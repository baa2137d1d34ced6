// Command hawksim runs a single trace-driven scheduling simulation and
// prints the collected metrics. The scheduler is selected by name through
// the hawk policy registry, so policies registered by linked-in code are
// available without touching this file.
//
// Usage:
//
//	hawksim -workload google -nodes 15000 -policy hawk -jobs 20000
//	hawksim -trace mytrace.csv -nodes 1000 -policy sparrow -cutoff 500
//	hawksim -trace google.trace.gz -nodes 15000 -stream
//	hawksim -workload google -jobs 1000000 -trace-out google.trace.gz
//	hawksim -nodes 1000 -policy split -json run.json
//
// -trace accepts both the hawk-trace stream format (written by -trace-out
// or hawkgen; gzip by ".gz" suffix), which is decoded job by job as the
// simulation runs, and the legacy bare-CSV format (which carries no cutoff;
// pass -cutoff). With -stream the run keeps no per-job reports — class
// counts and percentile reservoirs only — so memory stays O(in-flight)
// regardless of trace length; combine with -dump to still persist every
// job's outcome as CSV.
//
// For performance work, -cpuprofile and -memprofile write pprof profiles
// of the run (inspect with `go tool pprof`):
//
//	hawksim -workload google -nodes 15000 -jobs 20000 -cpuprofile cpu.prof -memprofile mem.prof
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/hawk"
	"repro/internal/cliflags"
)

var (
	workloadFlag  = flag.String("workload", "google", "synthetic workload: google, cloudera, facebook, yahoo, motivation")
	traceFlag     = flag.String("trace", "", "trace file, hawk-trace stream or legacy CSV (overrides -workload)")
	jobsFlag      = flag.Int("jobs", 20000, "number of jobs to generate")
	iaFlag        = flag.Float64("ia", 0, "mean job inter-arrival time in seconds (0 = workload default)")
	nodesFlag     = flag.Int("nodes", 15000, "cluster size")
	policyFlag    = flag.String("policy", "hawk", "scheduling policy: "+strings.Join(hawk.Policies(), ", "))
	modeFlag      = flag.String("mode", "", "deprecated alias for -policy")
	cutoffFlag    = flag.Float64("cutoff", 0, "long/short cutoff seconds (0 = trace default)")
	partFlag      = flag.Float64("partition", 0, "short-partition fraction (0 = trace default)")
	probesFlag    = flag.Int("probes", 2, "probes per task")
	stealCapFlag  = flag.Int("stealcap", 10, "max nodes contacted per steal attempt")
	noStealFlag   = flag.Bool("nosteal", false, "disable work stealing")
	noPartFlag    = flag.Bool("nopartition", false, "disable the short partition")
	noCentralFlag = flag.Bool("nocentral", false, "schedule long jobs with probing instead of centrally")
	misLoFlag     = flag.Float64("mislo", 0, "mis-estimation factor lower bound")
	misHiFlag     = flag.Float64("mishi", 0, "mis-estimation factor upper bound")
	seedFlag      = flag.Int64("seed", 42, "random seed")
	listPolFlag   = flag.Bool("list-policies", false, "list registered scheduling policies and exit")

	traceOutFlag = flag.String("trace-out", "", "write the workload to this hawk-trace file (gzip by .gz suffix) before running")
	streamFlag   = flag.Bool("stream", false, "discard per-job reports; aggregate into bounded reservoirs (for multi-million-task traces)")

	dumpFlag = flag.String("dump", "", "write per-job results to this CSV file")
	jsonFlag = flag.String("json", "", "write the full report to this JSON file")

	// Dynamic-cluster, multi-scheduler and gray-failure scenario flags.
	scenario = cliflags.Register(flag.CommandLine).RegisterSimOnly()
	profile  = cliflags.RegisterProfile(flag.CommandLine)
)

func main() {
	flag.Parse()
	os.Exit(realMain())
}

// realMain holds the body so deferred profile writers run before the
// process exits (os.Exit skips defers in main).
func realMain() int {
	if err := scenario.Check(); err != nil {
		fmt.Fprintf(os.Stderr, "hawksim: %v\n", err)
		return 2
	}
	stop, err := profile.Start("hawksim")
	if err != nil {
		fmt.Fprintf(os.Stderr, "hawksim: %v\n", err)
		return 1
	}
	defer stop()
	if *listPolFlag {
		for _, name := range hawk.Policies() {
			fmt.Println(name)
		}
		return 0
	}
	trace, streamFile, err := loadWorkload()
	if err != nil {
		fmt.Fprintf(os.Stderr, "hawksim: %v\n", err)
		return 1
	}
	name := *policyFlag
	if *modeFlag != "" {
		policySet := false
		flag.Visit(func(f *flag.Flag) { policySet = policySet || f.Name == "policy" })
		if policySet && *modeFlag != *policyFlag {
			fmt.Fprintf(os.Stderr, "hawksim: conflicting -policy %q and deprecated -mode %q; drop -mode\n",
				*policyFlag, *modeFlag)
			return 2
		}
		fmt.Fprintln(os.Stderr, "hawksim: -mode is deprecated; use -policy")
		name = *modeFlag
	}
	if !hawk.Registered(name) {
		fmt.Fprintf(os.Stderr, "hawksim: unknown policy %q (registered: %v)\n", name, hawk.Policies())
		return 2
	}
	if *traceOutFlag != "" {
		if err := writeTraceOut(trace, streamFile); err != nil {
			fmt.Fprintf(os.Stderr, "hawksim: writing %s: %v\n", *traceOutFlag, err)
			return 1
		}
		fmt.Printf("wrote workload to %s\n", *traceOutFlag)
	}
	cfg := hawk.Config{
		Policy:                 name,
		NumNodes:               *nodesFlag,
		Cutoff:                 *cutoffFlag,
		ShortPartitionFraction: *partFlag,
		ProbeRatio:             *probesFlag,
		StealCap:               *stealCapFlag,
		DisableStealing:        *noStealFlag,
		DisablePartition:       *noPartFlag,
		DisableCentral:         *noCentralFlag,
		MisestimateLo:          *misLoFlag,
		MisestimateHi:          *misHiFlag,
		NetworkDelay:           scenario.NetDelay(),
		Schedulers:             scenario.Schedulers(),
		Churn:                  scenario.Churn(),
		Heterogeneity:          scenario.Heterogeneity(),
		Faults:                 scenario.Faults(),
		Seed:                   *seedFlag,
		DiscardJobReports:      *streamFlag,
	}
	// On a streamed run -dump rides the job sink, so per-job rows land on
	// disk at completion and the report never holds them.
	var sink *hawk.JobCSVSink
	if *streamFlag && *dumpFlag != "" {
		sink, err = hawk.CreateJobCSVSink(*dumpFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hawksim: %v\n", err)
			return 1
		}
		cfg.JobSink = sink.Sink
	}
	var res *hawk.Report
	if streamFile {
		src, serr := hawk.OpenTraceSource(*traceFlag)
		if serr != nil {
			fmt.Fprintf(os.Stderr, "hawksim: %v\n", serr)
			return 1
		}
		res, err = hawk.SimulateSource(src, cfg)
		src.Close()
	} else {
		res, err = hawk.Simulate(trace, cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hawksim: %v\n", err)
		return 1
	}
	printResult(trace, res)
	if sink != nil {
		if err := sink.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "hawksim: writing %s: %v\n", *dumpFlag, err)
			return 1
		}
		fmt.Printf("wrote per-job results to %s\n", *dumpFlag)
	} else if *dumpFlag != "" {
		if err := hawk.SaveResultsCSV(*dumpFlag, res); err != nil {
			fmt.Fprintf(os.Stderr, "hawksim: writing %s: %v\n", *dumpFlag, err)
			return 1
		}
		fmt.Printf("wrote per-job results to %s\n", *dumpFlag)
	}
	if *jsonFlag != "" {
		if err := hawk.SaveReportJSON(*jsonFlag, res); err != nil {
			fmt.Fprintf(os.Stderr, "hawksim: writing %s: %v\n", *jsonFlag, err)
			return 1
		}
		fmt.Printf("wrote report to %s\n", *jsonFlag)
	}
	return 0
}

// loadWorkload resolves -trace/-workload. It returns either a materialized
// trace (synthetic generation, legacy CSV) or stream=true for a hawk-trace
// file, which the run then opens and decodes job by job instead of loading.
func loadWorkload() (t *hawk.Trace, stream bool, err error) {
	if *traceFlag != "" {
		src, err := hawk.OpenTraceSource(*traceFlag)
		if err == nil {
			src.Close() // probe only; the run reopens to stream
			return nil, true, nil
		}
		if !errors.Is(err, hawk.ErrNotStreamTrace) {
			return nil, false, err
		}
		t, err := hawk.LoadTraceFile(*traceFlag)
		if err != nil {
			return nil, false, err
		}
		if *cutoffFlag > 0 {
			t.Cutoff = *cutoffFlag
		}
		if t.Cutoff == 0 {
			return nil, false, fmt.Errorf("legacy CSV traces carry no cutoff; pass -cutoff")
		}
		if *partFlag > 0 {
			t.ShortPartitionFraction = *partFlag
		}
		return t, false, nil
	}
	if *workloadFlag == "motivation" {
		return hawk.MotivationWorkload(*seedFlag), false, nil
	}
	spec, err := hawk.SpecByName(*workloadFlag)
	if err != nil {
		return nil, false, err
	}
	ia := *iaFlag
	if ia <= 0 {
		ia = defaultInterArrival(spec.Name)
	}
	return hawk.Generate(spec, hawk.GenConfig{
		NumJobs:          *jobsFlag,
		MeanInterArrival: ia,
		Seed:             *seedFlag,
	}), false, nil
}

// writeTraceOut dumps the resolved workload to -trace-out in the
// hawk-trace stream format (a format conversion when the input was itself
// a trace file).
func writeTraceOut(t *hawk.Trace, streamFile bool) error {
	if streamFile {
		src, err := hawk.OpenTraceSource(*traceFlag)
		if err != nil {
			return err
		}
		defer src.Close()
		return hawk.SaveTraceSource(*traceOutFlag, src)
	}
	return hawk.SaveTraceSource(*traceOutFlag, hawk.NewTraceSource(t))
}

func defaultInterArrival(name string) float64 {
	switch name {
	case "google":
		return 2.3
	case "cloudera":
		return 1.5
	case "facebook":
		return 1.0
	case "yahoo":
		return 7.5
	}
	return 2.3
}

// printResult prints the run's headline numbers. trace is nil when the
// workload streamed from a file; ClassSummary reads whichever store the
// run kept (per-job reports, or the -stream reservoirs).
func printResult(trace *hawk.Trace, res *hawk.Report) {
	short := res.ClassSummary(false)
	long := res.ClassSummary(true)
	fmt.Printf("policy: %s  jobs: %d  makespan: %.0f s  events: %d\n",
		res.Policy, short.Count+long.Count, res.Makespan, res.Events)
	fmt.Printf("short jobs: %s\n", short)
	fmt.Printf("long jobs:  %s\n", long)
	if trace != nil {
		fmt.Printf("median utilization (arrival window): %.1f%%  max: %.1f%%\n",
			100*res.Utilization.MedianUpTo(trace.MakespanLowerBound()), 100*res.Utilization.Max())
	} else {
		fmt.Printf("median utilization: %.1f%%  max: %.1f%%\n",
			100*res.Utilization.Median(), 100*res.Utilization.Max())
	}
	fmt.Printf("probes: %d  cancels: %d  tasks: %d  central assigns: %d\n",
		res.ProbesSent, res.Cancels, res.TasksExecuted, res.CentralAssigns)
	fmt.Printf("steals: attempts=%d contacts=%d successes=%d entries=%d\n",
		res.StealAttempts, res.StealContacts, res.StealSuccesses, res.EntriesStolen)
	if res.NodeFailures > 0 || res.CentralOutageSeconds > 0 {
		fmt.Printf("churn: failures=%d recoveries=%d reexecuted=%d probesLost=%d workLost=%.0fs outage=%.0fs deferred=%d\n",
			res.NodeFailures, res.NodeRecoveries, res.TasksReexecuted, res.ProbesLost,
			res.WorkLostSeconds, res.CentralOutageSeconds, res.CentralDeferred)
	}
	if d := res.MessagesDropped; d != nil {
		fmt.Printf("faults: dropped probes=%d replies=%d steals=%d assigns=%d commits=%d  retries=%d/%d  fallbacks=%d\n",
			d.Probes, d.Replies, d.Steals, d.Assigns, d.Commits,
			res.ProbeRetries, res.AssignRetries, res.FallbacksToCentral)
		if res.SpeculativeLaunches > 0 || res.StragglerSlowdowns > 0 {
			fmt.Printf("speculation: launches=%d wins=%d wasted=%d  stragglers=%d\n",
				res.SpeculativeLaunches, res.SpeculativeWins, res.SpeculativeWasted, res.StragglerSlowdowns)
		}
	}
	if res.Config.Schedulers != nil {
		fmt.Printf("schedulers: n=%d conflicts=%d retries=%d refreshes=%d staleness=%.1fs\n",
			res.Config.Schedulers.Count, res.PlacementConflicts, res.ConflictRetries,
			res.SnapshotRefreshes, res.SnapshotStalenessSeconds)
		if res.SchedulerFailures > 0 {
			fmt.Printf("scheduler churn: failures=%d recoveries=%d reassigned=%d\n",
				res.SchedulerFailures, res.SchedulerRecoveries, res.SchedulerReassigned)
		}
	}
}
