package sim

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/policy"
	"repro/internal/workload"
)

// The golden-report pin: the typed-event engine rewrite (and any future
// hot-path work) must leave simulator output byte-identical to the engine
// that generated the files under testdata/golden. The serialized form
// includes everything a run produces — per-job reports, every counter, the
// event count, utilization samples, and the per-entry queueing waits — so
// any behavioral drift, however small, fails the diff.
//
// Regenerate (only when output is *meant* to change, with justification):
//
//	SIM_UPDATE_GOLDEN=1 go test ./internal/sim -run TestReportsMatchGolden

// pinnedReport is the full serialized state of one run, including the
// fields Report deliberately excludes from its public JSON form.
type pinnedReport struct {
	Report             *policy.Report `json:"report"`
	UtilizationSamples []float64      `json:"utilizationSamples"`
	ShortEntryWaits    []float64      `json:"shortEntryWaits"`
	LongEntryWaits     []float64      `json:"longEntryWaits"`
}

// goldenCases enumerates the pinned (trace, config) points: all four
// policies at a steal-heavy operating point, plus the mis-estimation,
// multi-slot, and random-position-stealing code paths.
func goldenCases() (*workload.Trace, map[string]policy.Config) {
	base := policy.Config{NumNodes: 1200, Seed: 9}
	cases := map[string]policy.Config{}
	for _, pol := range []string{"sparrow", "hawk", "centralized", "split"} {
		cfg := base
		cfg.Policy = pol
		cases[pol] = cfg
	}
	mis := base
	mis.Policy = "hawk"
	mis.MisestimateLo, mis.MisestimateHi = 0.5, 1.8
	cases["hawk-misestimate"] = mis

	slots := base
	slots.Policy = "hawk"
	slots.NumNodes, slots.SlotsPerNode = 600, 2
	cases["hawk-slots2"] = slots

	randSteal := base
	randSteal.Policy = "hawk"
	randSteal.StealRandomPositions = true
	cases["hawk-randsteal"] = randSteal

	// Dynamic-cluster scenarios: rolling node churn (membership-aware
	// sampling, task re-execution, probe re-sends) and a mid-trace
	// central-scheduler outage (backlog, outage marks). These pin the
	// churn paths the static cases never enter.
	churn := base
	churn.Policy = "hawk"
	churn.Churn = &policy.ChurnSpec{Events: []policy.ChurnEvent{
		{At: 30, Kind: policy.ChurnFail, Count: 60},
		{At: 60, Kind: policy.ChurnFail, Node: 2},
		{At: 90, Kind: policy.ChurnRecover, Count: 40},
		{At: 130, Kind: policy.ChurnRecover, Count: 30},
	}}
	cases["hawk-churn"] = churn

	outage := base
	outage.Policy = "hawk"
	outage.Churn = &policy.ChurnSpec{Events: []policy.ChurnEvent{
		{At: 40, Kind: policy.ChurnCentralDown},
		{At: 160, Kind: policy.ChurnCentralUp},
	}}
	cases["hawk-central-outage"] = outage

	// Multi-scheduler model: two concurrent schedulers placing against
	// stale snapshots with claim/commit conflict resolution. Pins the
	// optimistic-concurrency paths (snapshot refresh, conflict retry,
	// staleness accounting) that every single-scheduler case bypasses.
	sched2 := base
	sched2.Policy = "hawk"
	sched2.Schedulers = &policy.SchedulerSpec{Count: 2}
	cases["hawk-sched2"] = sched2

	// Gray-failure scenarios: a lossy/jittery message plane (drop
	// decisions, retry backoff chains, fault-stream draws) and straggler-
	// triggered speculative re-execution (threshold arming, duplicate
	// launches, first-completion-wins). These pin the fault-plane event
	// paths and the Seed+5 stream's draw order.
	msgloss := base
	msgloss.Policy = "hawk"
	msgloss.Faults = &policy.FaultSpec{
		ProbeLoss: 0.05, ReplyLoss: 0.03, StealLoss: 0.1,
		AssignLoss: 0.03, CommitLoss: 0.03, Jitter: 0.002, MaxRetries: 8,
	}
	cases["hawk-msgloss"] = msgloss

	spec := base
	spec.Policy = "hawk"
	spec.Faults = &policy.FaultSpec{
		Speculate: true, SpeculatePercentile: 90,
		Stragglers: []policy.StragglerEvent{
			{At: 20, Count: 80, Factor: 6},
			{At: 120, Count: 40, Factor: 1},
		},
	}
	cases["hawk-speculation"] = spec
	return goldenTrace(), cases
}

func goldenTrace() *workload.Trace {
	return workload.Generate(workload.Google(), workload.GenConfig{
		NumJobs: 250, MeanInterArrival: 0.4, Seed: 11,
	})
}

func marshalPinned(t *testing.T, res *policy.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	err := enc.Encode(pinnedReport{
		Report:             res,
		UtilizationSamples: res.Utilization.Samples(),
		ShortEntryWaits:    res.ShortEntryWaits,
		LongEntryWaits:     res.LongEntryWaits,
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReportsMatchGolden(t *testing.T) {
	trace, cases := goldenCases()
	update := os.Getenv("SIM_UPDATE_GOLDEN") != ""
	if update {
		if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			res, err := Run(trace, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := marshalPinned(t, res)
			path := filepath.Join("testdata", "golden", name+".json")
			if update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (regenerate with SIM_UPDATE_GOLDEN=1): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: report differs from pinned golden output.\n"+
					"The simulator must stay byte-identical across perf work; if this "+
					"change is intentional, regenerate with SIM_UPDATE_GOLDEN=1 and say why in the PR.",
					name)
			}
		})
	}
}
