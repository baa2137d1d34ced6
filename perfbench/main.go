// Command perfbench is the repository benchmark. It runs one of three
// trace-driven workloads for a fixed number of seconds, checks every
// operation's output, and prints its metrics by name with their units,
// ending with one JSON line:
//
//	perfbench --workload google-stream --seed 1 --seconds 20 --trace 0
//
// One operation is one whole simulation: open the trace, run the engine,
// summarise the report and write it as JSON to a discarding writer.
// Operations run back to back on one goroutine. --trace 0 prints the
// end-to-end metrics, measured with tracing and profiling off; --trace 1
// prints the per-layer metrics from a traced, CPU-profiled pass. README.md
// lists the metrics and which end-to-end metric each layer metric should
// move on which workload.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/policy"
)

// minOps is the fewest operations a measuring pass runs, however long
// they take, so each median has at least three samples.
const minOps = 3

// Setup repeats until it has run minSetups times and for minSetupTime in
// total, at most maxSetups times; setup_s is the median.
const (
	minSetups    = 3
	maxSetups    = 25
	minSetupTime = 2 * time.Second
)

const mib = 1 << 20

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: google-stream, multisched-faults or centralized")
	seed := fs.Int64("seed", 1, "seed every trace is generated from")
	seconds := fs.Int("seconds", 20, "seconds of operations to measure")
	traced := fs.Int("trace", 0, "0 prints end-to-end metrics; 1 prints per-layer metrics from a traced pass")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the trace file and the spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if err == nil && *traced != 0 && *traced != 1 {
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := bench(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *out, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// metric is one named, measured value.
type metric struct {
	name  string
	unit  string
	value float64
}

// result is what one benchmark run prints.
type result struct {
	stamp             []string
	attempted, failed int
	metrics           []metric
}

func (r *result) print(w io.Writer) error {
	for _, s := range r.stamp {
		fmt.Fprintln(w, s)
	}
	fmt.Fprintf(w, "%-30s %g (%d of %d operations)\n", "failed_op_ratio",
		float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := make(map[string]value, len(r.metrics))
	for _, x := range r.metrics {
		fmt.Fprintf(w, "%-30s %g %s\n", x.name, x.value, x.unit)
		m[x.name] = value{x.value, x.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, m})
	if err != nil {
		return fmt.Errorf("encoding the result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// session is one benchmark run's set-up traces and its gate state.
type session struct {
	ins []*input
	// refs holds each trace's first good operation's signature, and
	// reports the per-layer counts of that operation's report.
	refs              []*signature
	reports           [][]metric
	attempted, failed int
	stderr            io.Writer
}

func newSession(ins []*input, stderr io.Writer) *session {
	return &session{ins: ins, refs: make([]*signature, len(ins)), reports: make([][]metric, len(ins)), stderr: stderr}
}

// pass runs operations back to back, cycling through the traces, until d
// has passed and at least minOps have run, and returns their records in
// plain. Given a tracer, whole cycles through the traces alternate between
// untraced and traced, so both sets see the same machine conditions; the
// traced operations record spans, are CPU-profiled into shares, and
// return in traced.
func (s *session) pass(d time.Duration, tr *tracer, shares map[string]int64) (plain, traced []opRecord, gcs []gcRecord, err error) {
	cycle := len(s.ins)
	minN := minOps
	if tr != nil {
		minN = 2 * max(minOps, cycle)
	}
	var buf bytes.Buffer
	start := time.Now()
	for n := 0; n < minN || time.Since(start) < d; n++ {
		k := s.attempted % cycle
		in := s.ins[k]
		tracing := tr != nil && (s.attempted/cycle)%2 == 1
		runtime.GC()
		var before runtime.MemStats
		if tracing {
			runtime.ReadMemStats(&before)
			buf.Reset()
			if err := pprof.StartCPUProfile(&buf); err != nil {
				return nil, nil, nil, fmt.Errorf("starting CPU profile: %w", err)
			}
		}
		opTr := tr
		if !tracing {
			opTr = nil
		}
		rec, rep, sig, err := runOp(in, opTr, s.attempted)
		if tracing {
			pprof.StopCPUProfile()
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			if _, ferr := foldProfile(buf.Bytes(), shares); ferr != nil {
				return nil, nil, nil, ferr
			}
			gcs = append(gcs, gcRecord{
				cycles: after.NumGC - before.NumGC,
				pause:  time.Duration(after.PauseTotalNs - before.PauseTotalNs),
			})
		}
		s.attempted++
		if err == nil {
			if s.refs[k] == nil {
				s.refs[k], s.reports[k] = &sig, reportMetrics(in, rep, sig)
			}
			err = gate(in, rec, rep, sig, *s.refs[k])
		}
		if err != nil {
			s.failed++
			fmt.Fprintf(s.stderr, "perfbench: %s operation %d (trace %d) failed: %v\n", in.spec.name, s.attempted-1, k, err)
			continue
		}
		if tracing {
			traced = append(traced, rec)
		} else {
			plain = append(plain, rec)
		}
	}
	if len(plain) == 0 || (tr != nil && len(traced) == 0) {
		return nil, nil, nil, fmt.Errorf("%d of %d operations failed", s.failed, s.attempted)
	}
	return plain, traced, gcs, nil
}

type gcRecord struct {
	cycles uint32
	pause  time.Duration
}

// digest combines the traces' report digests, in trace order.
func (s *session) digest() string {
	h := sha256.New()
	for _, ref := range s.refs {
		if ref != nil {
			h.Write(ref.digest[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func bench(w workloadSpec, seed int64, d time.Duration, traced bool, out string, stderr io.Writer) (*result, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	ins, setupS, err := setupRepeated(w, seed, out)
	if err != nil {
		return nil, err
	}
	defer cleanup(ins)
	s := newSession(ins, stderr)
	res := &result{}
	if !traced {
		recs, _, _, err := s.pass(d, nil, nil)
		if err != nil {
			return nil, err
		}
		res.metrics = endToEnd(recs, setupS)
		res.stamp = append(res.stamp, durationLine(recs))
	} else {
		tr := newTracer()
		shares := map[string]int64{}
		plain, recs, gcs, err := s.pass(d, tr, shares)
		if err != nil {
			return nil, err
		}
		res.metrics = append(perLayer(recs, gcs, plain, shares), medianByName(s.reports)...)
		spans := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
		if err := tr.writeFile(spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		res.stamp = append(res.stamp, "spans: "+spans)
	}
	var jobs, tasks int64
	for _, in := range ins {
		jobs += int64(in.jobs)
		tasks += in.tasks
	}
	res.attempted, res.failed = s.attempted, s.failed
	res.stamp = append(res.stamp,
		fmt.Sprintf("env: go=%s GOMAXPROCS=%d nproc=%d cpu=%q", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel()),
		fmt.Sprintf("workload: %s seed=%d traces=%d jobs=%d tasks=%d report_sha256=%s",
			w.name, seed, len(ins), jobs, tasks, s.digest()))
	if !traced {
		res.stamp = append(res.stamp, "simulated (median over traces):")
		for _, m := range medianByName(s.reports) {
			if strings.HasPrefix(m.name, "sim_") {
				res.stamp = append(res.stamp, fmt.Sprintf("  %-28s %g %s", m.name, m.value, m.unit))
			}
		}
	}
	return res, nil
}

// setupRepeated runs setup repeatedly and returns the last traces with the
// median set-up time in seconds.
func setupRepeated(w workloadSpec, seed int64, out string) ([]*input, float64, error) {
	var times []float64
	var ins []*input
	var total time.Duration
	for len(times) < minSetups || (total < minSetupTime && len(times) < maxSetups) {
		cleanup(ins)
		runtime.GC()
		t0 := time.Now()
		var err error
		ins, err = setup(w, seed, out)
		d := time.Since(t0)
		if err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		total += d
		times = append(times, d.Seconds())
	}
	return ins, median(times), nil
}

func endToEnd(recs []opRecord, setupS float64) []metric {
	return []metric{
		{"run_s", "s", medianOf(recs, func(r opRecord) float64 { return r.dur.Seconds() })},
		// Per CPU second, not per wall second: CPU time stops while a
		// virtual machine's host deschedules it, so this throughput
		// measures the program rather than its neighbours.
		{"tasks_per_s", "1/s", medianOf(recs, func(r opRecord) float64 { return float64(r.tasks) / r.cpu.Seconds() })},
		{"alloc_mib_per_op", "MiB", medianOf(recs, func(r opRecord) float64 { return float64(r.alloc) / mib })},
		{"peak_heap_mib", "MiB", medianOf(recs, func(r opRecord) float64 { return float64(r.peak) / mib })},
		{"setup_s", "s", setupS},
	}
}

// reportMetrics are the per-layer metrics one trace's report determines:
// exact counts, which repeat on every operation of the trace, and the
// simulated latencies.
func reportMetrics(in *input, rep *policy.Report, sig signature) []metric {
	events := float64(rep.Events)
	return []metric{
		{"sim_short_p50_s", "s", math.Float64frombits(sig.short50)},
		{"sim_short_p90_s", "s", math.Float64frombits(sig.short90)},
		{"sim_long_p50_s", "s", math.Float64frombits(sig.long50)},
		{"eventq.events", "count", events},
		{"core.central_assigns", "count", float64(rep.CentralAssigns)},
		{"core.snapshot_refreshes", "count", float64(rep.SnapshotRefreshes)},
		{"core.placement_conflicts", "count", float64(rep.PlacementConflicts)},
		{"core.commit_success_ratio", "ratio", ratio(rep.CentralAssigns, rep.CentralAssigns+rep.PlacementConflicts)},
		{"core.steal_attempts", "count", float64(rep.StealAttempts)},
		{"core.steal_success_ratio", "ratio", ratio(rep.StealSuccesses, rep.StealAttempts)},
		{"core.entries_stolen", "count", float64(rep.EntriesStolen)},
		{"core.probes_per_task", "ratio", ratio(rep.ProbesSent, in.tasks)},
		{"sim.events_per_task", "ratio", events / float64(in.tasks)},
		{"sim.messages_dropped", "count", float64(rep.MessagesDropped.Total())},
		{"sim.probe_retries", "count", float64(rep.ProbeRetries)},
		{"sim.assign_retries", "count", float64(rep.AssignRetries)},
		{"sim.fallbacks_to_central", "count", float64(rep.FallbacksToCentral)},
		{"sim.tasks_reexecuted", "count", float64(rep.TasksReexecuted)},
	}
}

// medianByName takes, metric by metric, the median over the traces.
func medianByName(perTrace [][]metric) []metric {
	var first []metric
	for _, ms := range perTrace {
		if ms != nil {
			first = ms
			break
		}
	}
	out := make([]metric, len(first))
	for i, m := range first {
		var vs []float64
		for _, ms := range perTrace {
			if ms != nil {
				vs = append(vs, ms[i].value)
			}
		}
		out[i] = metric{m.name, m.unit, median(vs)}
	}
	return out
}

// perLayer derives the timed per-layer metrics from the traced operations,
// recs, and the untraced ones that alternated with them, plain.
func perLayer(recs []opRecord, gcs []gcRecord, plain []opRecord, shares map[string]int64) []metric {
	med := func(f func(opRecord) float64) float64 { return medianOf(recs, f) }
	engineSelf := func(r opRecord) float64 { return (r.simCall - r.next).Seconds() }
	var samples int64
	for _, n := range shares {
		samples += n
	}
	ms := []metric{
		{"workload.next_s", "s", med(func(r opRecord) float64 { return r.next.Seconds() })},
		{"workload.ns_per_job", "ns", med(func(r opRecord) float64 { return float64(r.next.Nanoseconds()) / float64(r.nextN) })},
		{"workload.share", "ratio", med(func(r opRecord) float64 { return r.next.Seconds() / r.dur.Seconds() })},
		{"eventq.ns_per_event", "ns", med(func(r opRecord) float64 { return engineSelf(r) * 1e9 / float64(r.events) })},
		{"sim.engine_self_s", "s", med(engineSelf)},
		{"policy.summary_s", "s", med(func(r opRecord) float64 { return r.summary.Seconds() })},
		{"policy.report_json_s", "s", med(func(r opRecord) float64 { return r.json.Seconds() })},
		{"policy.report_json_mib", "MiB", med(func(r opRecord) float64 { return float64(r.jsonSize) / mib })},
		{"runtime.gc_cycles", "count", median(mapSlice(gcs, func(g gcRecord) float64 { return float64(g.cycles) }))},
		{"runtime.gc_pause_s", "s", median(mapSlice(gcs, func(g gcRecord) float64 { return g.pause.Seconds() }))},
		{"trace.overhead_ratio", "ratio", med(func(r opRecord) float64 { return r.dur.Seconds() }) /
			medianOf(plain, func(r opRecord) float64 { return r.dur.Seconds() })},
		{"trace.remainder_s", "s", med(func(r opRecord) float64 { return (r.dur - r.simCall - r.summary - r.json).Seconds() })},
		{"profile.samples", "count", float64(samples)},
	}
	for _, l := range layers {
		ms = append(ms, metric{l + ".cpu_share", "ratio", ratio(shares[l], samples)})
	}
	return ms
}

func ratio[T int64 | int](num, den T) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func mapSlice[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func medianOf(recs []opRecord, f func(opRecord) float64) float64 {
	return median(mapSlice(recs, f))
}

// median returns the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// durationLine states the sample count and spread behind run_s.
func durationLine(recs []opRecord) string {
	d := mapSlice(recs, func(r opRecord) float64 { return r.dur.Seconds() })
	slices.Sort(d)
	q := func(p float64) float64 { return d[int(p*float64(len(d)-1)+0.5)] }
	return fmt.Sprintf("operations: %d, seconds min %.4g p25 %.4g median %.4g p75 %.4g max %.4g",
		len(d), d[0], q(0.25), median(d), q(0.75), d[len(d)-1])
}
