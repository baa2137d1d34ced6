package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/policy"
	"repro/internal/workload"
)

// workloadSpec is one benchmark workload: the Google-shaped trace it
// generates from the seed, how an operation reads that trace back, and the
// engine configuration the operation runs it under. BENCHMARK.json and
// README.md record why each workload was chosen and which layers it
// stresses.
type workloadSpec struct {
	name         string
	jobs         int
	interArrival float64
	// traces is how many traces, each of jobs jobs, a run cycles its
	// operations through. Host time and the simulated latencies vary from
	// trace to trace; a run over several traces reports steadier medians
	// from one seed to the next.
	traces int
	// file makes setup write the trace as a gzip hawk-trace file that every
	// operation streams back through workload.OpenSource; otherwise setup
	// materialises the trace and operations read it from memory.
	file bool
	// budget is the host time an operation may take before the gate counts
	// it as failed: several times the expected duration on a 2-core
	// machine.
	budget time.Duration
	config func(seed int64) policy.Config
}

var workloads = []workloadSpec{
	{
		name: "google-stream", jobs: 80000, interArrival: 2.3, traces: 1, file: true,
		budget: 60 * time.Second,
		config: func(seed int64) policy.Config {
			return policy.Config{NumNodes: 15000, Policy: "hawk", Seed: seed, DiscardJobReports: true}
		},
	},
	{
		name: "multisched-faults", jobs: 3000, interArrival: 0.5, traces: 8,
		budget: 30 * time.Second,
		config: func(seed int64) policy.Config {
			return policy.Config{
				NumNodes: 12000, Policy: "hawk", Seed: seed,
				Schedulers: &policy.SchedulerSpec{Count: 10, SnapshotInterval: 60},
				Churn: &policy.ChurnSpec{Events: []policy.ChurnEvent{
					{At: 200, Kind: policy.ChurnFail, Count: 600},
					{At: 500, Kind: policy.ChurnRecover, Count: 600},
				}},
				Faults: &policy.FaultSpec{
					ProbeLoss: 0.01, ReplyLoss: 0.01, StealLoss: 0.01,
					AssignLoss: 0.01, CommitLoss: 0.01, Jitter: 0.001, MaxRetries: 8,
				},
			}
		},
	},
	{
		name: "centralized", jobs: 20000, interArrival: 2.3, traces: 8,
		budget: 30 * time.Second,
		config: func(seed int64) policy.Config {
			return policy.Config{NumNodes: 15000, Policy: "centralized", Seed: seed}
		},
	},
}

func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (want google-stream, multisched-faults or centralized)", name)
}

// input is the set-up state of one trace: everything an operation on it
// reads.
type input struct {
	spec  workloadSpec
	cfg   policy.Config
	trace *workload.Trace // materialised workloads
	path  string          // file workloads
	jobs  int
	tasks int64
	// open returns the operation's job source and the function that
	// releases it. Tests replace it to feed the gate a broken source.
	open func() (workload.Source, func() error, error)
}

// engineSeedOffset separates the engine's seeds from the trace seeds: the
// engine draws from its seed and the five after it.
const engineSeedOffset = 1 << 32

// setup builds the workload's traces from seed, trace k from seed
// seed*traces+k: generated in memory, and for a file workload written to
// dir as a gzip hawk-trace file.
func setup(w workloadSpec, seed int64, dir string) ([]*input, error) {
	ins := make([]*input, 0, w.traces)
	for k := range int64(w.traces) {
		in, err := setupTrace(w, seed*int64(w.traces)+k, dir)
		if err != nil {
			cleanup(ins)
			return nil, err
		}
		ins = append(ins, in)
	}
	return ins, nil
}

func setupTrace(w workloadSpec, seed int64, dir string) (*input, error) {
	gen := workload.GenConfig{NumJobs: w.jobs, MeanInterArrival: w.interArrival, Seed: seed}
	in := &input{spec: w, cfg: w.config(seed + engineSeedOffset)}
	if !w.file {
		in.trace = workload.Generate(workload.Google(), gen)
		m := in.trace.Meta()
		in.jobs, in.tasks = m.NumJobs, m.TotalTasks
		in.open = func() (workload.Source, func() error, error) {
			return workload.NewTraceSource(in.trace), func() error { return nil }, nil
		}
		return in, nil
	}
	src := workload.NewGeneratorSource(workload.Google(), gen)
	m := src.Meta()
	in.jobs, in.tasks = m.NumJobs, m.TotalTasks
	in.path = filepath.Join(dir, fmt.Sprintf("%s-trace%d.csv.gz", w.name, seed))
	if err := workload.SaveSource(in.path, src); err != nil {
		os.Remove(in.path)
		return nil, fmt.Errorf("writing %s: %w", in.path, err)
	}
	in.open = func() (workload.Source, func() error, error) {
		fs, err := workload.OpenSource(in.path)
		if err != nil {
			return nil, nil, err
		}
		return fs, fs.Close, nil
	}
	return in, nil
}

// cleanup removes what setup wrote.
func cleanup(ins []*input) {
	for _, in := range ins {
		if in.path != "" {
			os.Remove(in.path)
		}
	}
}
