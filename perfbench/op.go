package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"math"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// heapEvery is how many jobs pass between two in-band samples of the
// in-use heap; peak_heap_mib is the largest sample of an operation.
const heapEvery = 64

// heapObjects is the runtime/metrics name of the in-use heap: bytes in
// live or not yet swept heap objects.
const heapObjects = "/memory/classes/heap/objects:bytes"

// meteredSource is the operation's view of the job source. It samples the
// in-use heap every heapEvery jobs and, in the traced run, times each
// Next call. It forwards Err and Recycle, so the engine streams through it
// exactly as through the wrapped source.
type meteredSource struct {
	src    workload.Source
	timed  bool
	calls  int64
	nextNs int64
	peak   uint64
	sample [1]metrics.Sample
}

func newMeteredSource(src workload.Source, timed bool) *meteredSource {
	m := &meteredSource{src: src, timed: timed}
	m.sample[0].Name = heapObjects
	return m
}

func (m *meteredSource) Meta() workload.Meta { return m.src.Meta() }

func (m *meteredSource) Next() (*workload.Job, bool) {
	if m.calls%heapEvery == 0 {
		m.samplePeak()
	}
	m.calls++
	if !m.timed {
		return m.src.Next()
	}
	t0 := time.Now()
	j, ok := m.src.Next()
	m.nextNs += int64(time.Since(t0))
	return j, ok
}

func (m *meteredSource) Err() error { return workload.SourceErr(m.src) }

func (m *meteredSource) Recycle(j *workload.Job) {
	if r, ok := m.src.(workload.Recycler); ok {
		r.Recycle(j)
	}
}

func (m *meteredSource) samplePeak() {
	metrics.Read(m.sample[:])
	if v := m.sample[0].Value.Uint64(); v > m.peak {
		m.peak = v
	}
}

// meteredTrace is a meteredSource over an in-memory trace. Exposing the
// trace keeps the engine in trace-adapter mode, the path sim.Run takes.
type meteredTrace struct {
	*meteredSource
	trace *workload.Trace
}

func (m meteredTrace) Trace() *workload.Trace { return m.trace }

// signature is what every operation of a run must reproduce exactly: the
// report bytes and the bits of the headline percentiles, which a streamed
// report computes from reservoirs that WriteJSON does not serialise.
type signature struct {
	digest                   [sha256.Size]byte
	short50, short90, long50 uint64
}

// digestWriter is the discarding writer WriteJSON writes to; it keeps the
// report's size and SHA-256 for the determinism check.
type digestWriter struct {
	h hash.Hash
	n int64
}

func (d *digestWriter) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return d.h.Write(p)
}

// opRecord is what one operation leaves for the metrics. The span fields
// are filled by the traced run only.
type opRecord struct {
	dur       time.Duration
	cpu       time.Duration // CPU time of the whole process, GC included
	tasks     int64         // tasks the engine executed
	events    uint64
	classJobs int // jobs counted by the two class summaries
	alloc     uint64
	peak      uint64
	jsonSize  int64

	next    time.Duration
	nextN   int64
	simCall time.Duration
	summary time.Duration
	json    time.Duration
}

// runOp performs one operation: open the trace, run the engine, summarise
// the report and write it as JSON to a discarding writer. It returns the
// report for the gate; rec.dur covers exactly those steps.
func runOp(in *input, tr *tracer, op int) (rec opRecord, rep *policy.Report, sig signature, err error) {
	var before [1]metrics.Sample
	before[0].Name = "/gc/heap/allocs:bytes"
	metrics.Read(before[:])

	cpu0 := cpuTime()
	start := time.Now()
	src, release, err := in.open()
	if err != nil {
		return rec, nil, sig, fmt.Errorf("opening trace: %w", err)
	}
	tr.span("workload.open", op, "op", start)
	ms := newMeteredSource(src, tr != nil)
	var engineSrc workload.Source = ms
	if in.trace != nil {
		engineSrc = meteredTrace{ms, in.trace}
	}
	t0 := time.Now()
	rep, err = sim.RunSource(engineSrc, in.cfg)
	rec.simCall = time.Since(t0)
	tr.span("sim.RunSource", op, "op", t0)
	tr.aggregate("workload.Source.Next", op, "sim.RunSource", t0, ms.nextNs, ms.calls)
	if cerr := release(); err == nil && cerr != nil {
		err = fmt.Errorf("closing trace: %w", cerr)
	}
	if err == nil {
		err = workload.SourceErr(src)
	}
	if err != nil {
		return rec, nil, sig, err
	}
	ms.samplePeak()
	sig, err = summarise(rep, &rec, tr, op)
	if err != nil {
		return rec, nil, sig, err
	}
	rec.dur = time.Since(start)
	rec.cpu = cpuTime() - cpu0
	tr.span("op", op, "", start)

	ms.samplePeak()
	var after [1]metrics.Sample
	after[0].Name = before[0].Name
	metrics.Read(after[:])
	rec.alloc = after[0].Value.Uint64() - before[0].Value.Uint64()
	rec.peak = ms.peak
	rec.next, rec.nextN = time.Duration(ms.nextNs), ms.calls
	rec.tasks, rec.events = rep.TasksExecuted, rep.Events
	return rec, rep, sig, nil
}

// summarise is the operation's reporting step: the headline percentiles,
// both class summaries, and the report's JSON written to a discarding
// writer that keeps its digest.
func summarise(rep *policy.Report, rec *opRecord, tr *tracer, op int) (sig signature, err error) {
	t0 := time.Now()
	sig.short50 = math.Float64bits(rep.Percentile(false, 50))
	sig.short90 = math.Float64bits(rep.Percentile(false, 90))
	sig.long50 = math.Float64bits(rep.Percentile(true, 50))
	rec.classJobs = rep.ClassSummary(false).Count + rep.ClassSummary(true).Count
	rec.summary = time.Since(t0)
	tr.span("policy.summary", op, "op", t0)

	t0 = time.Now()
	dw := &digestWriter{h: sha256.New()}
	if err := rep.WriteJSON(dw); err != nil {
		return sig, fmt.Errorf("writing report: %w", err)
	}
	dw.h.Sum(sig.digest[:0])
	rec.json = time.Since(t0)
	rec.jsonSize = dw.n
	tr.span("policy.WriteJSON", op, "op", t0)
	return sig, nil
}

// reportedJobs is the number of jobs the report accounts for, retained or
// folded into the streamed aggregates.
func reportedJobs(rep *policy.Report) int {
	if rep.Streamed != nil {
		return int(rep.Streamed.ShortJobs + rep.Streamed.LongJobs)
	}
	return len(rep.Jobs)
}

var errNotDeterministic = errors.New("report differs from the run's first operation")

// gate is the correctness check every operation passes: within the time
// budget, every trace job reported and summarised, every trace task
// executed at least once, and the same report as the reference operation.
func gate(in *input, rec opRecord, rep *policy.Report, sig, ref signature) error {
	if rec.dur > in.spec.budget {
		return fmt.Errorf("took %v, budget %v", rec.dur, in.spec.budget)
	}
	if n := reportedJobs(rep); n != in.jobs {
		return fmt.Errorf("report holds %d jobs, trace has %d", n, in.jobs)
	}
	if rec.classJobs != in.jobs {
		return fmt.Errorf("class summaries count %d jobs, trace has %d", rec.classJobs, in.jobs)
	}
	if rep.TasksExecuted < in.tasks {
		return fmt.Errorf("executed %d tasks, trace has %d", rep.TasksExecuted, in.tasks)
	}
	if sig != ref {
		return errNotDeterministic
	}
	return nil
}

// cpuTime is the CPU time the process has used, user and system, on all
// threads, GC included. Unlike the wall clock it does not advance while a
// virtual machine's CPUs are descheduled by its host.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
