package cliflags

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/hawk"
)

// parse registers the scenario flags on a fresh FlagSet — with the
// hawksim-only flags when simOnly is set, as cmd/hawksim does — and parses
// args into it.
func parse(t *testing.T, simOnly bool, args ...string) (*Scenario, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	s := Register(fs)
	if simOnly {
		s.RegisterSimOnly()
	}
	return s, fs.Parse(args)
}

func mustParse(t *testing.T, simOnly bool, args ...string) *Scenario {
	t.Helper()
	s, err := parse(t, simOnly, args...)
	if err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return s
}

// specs is everything a Scenario builds, for whole-value comparison.
type specs struct {
	Churn         *hawk.ChurnSpec
	Heterogeneity *hawk.Heterogeneity
	Schedulers    *hawk.SchedulerSpec
	Faults        *hawk.FaultSpec
	NetDelay      float64
}

func built(s *Scenario) specs {
	return specs{s.Churn(), s.Heterogeneity(), s.Schedulers(), s.Faults(), s.NetDelay()}
}

func lossSpec(p float64) *hawk.FaultSpec {
	return &hawk.FaultSpec{ProbeLoss: p, ReplyLoss: p, StealLoss: p, AssignLoss: p, CommitLoss: p}
}

// TestSpecs pins the specs each flag combination builds: nothing set
// builds nothing, each overlay builds only its own spec, and the fully
// composed hawksim case keeps the churn-event order (fail, recover,
// central down, central up, scheduler churn) that reaches the report
// bytes.
func TestSpecs(t *testing.T) {
	full := &hawk.FaultSpec{
		ProbeLoss: 0.01, ReplyLoss: 0.01, StealLoss: 0.01, AssignLoss: 0.01, CommitLoss: 0.01,
		Jitter: 0.002, MaxRetries: 5, Speculate: true,
		Stragglers: []hawk.StragglerEvent{{At: 30, Count: 20, Factor: 3}},
	}
	cases := []struct {
		name    string
		simOnly bool
		args    []string
		want    specs
	}{
		{name: "none"},
		{name: "none-sim-only", simOnly: true},
		{name: "fail", args: []string{"-fail-nodes", "80", "-fail-at", "40"},
			want: specs{Churn: &hawk.ChurnSpec{Events: []hawk.ChurnEvent{
				{At: 40, Kind: hawk.ChurnFail, Count: 80},
			}}}},
		{name: "fail-recover", args: []string{"-fail-nodes", "80", "-fail-at", "40", "-recover-at", "120"},
			want: specs{Churn: &hawk.ChurnSpec{Events: []hawk.ChurnEvent{
				{At: 40, Kind: hawk.ChurnFail, Count: 80},
				{At: 120, Kind: hawk.ChurnRecover, Count: 80},
			}}}},
		{name: "central-outage", simOnly: true, args: []string{"-central-down", "60", "-central-up", "200"},
			want: specs{Churn: &hawk.ChurnSpec{Events: []hawk.ChurnEvent{
				{At: 60, Kind: hawk.ChurnCentralDown},
				{At: 200, Kind: hawk.ChurnCentralUp},
			}}}},
		{name: "speed-skew-default-speed", args: []string{"-speed-skew", "0.2"},
			want: specs{Heterogeneity: &hawk.Heterogeneity{Classes: []hawk.SpeedClass{{Fraction: 0.2, Speed: 0.5}}}}},
		{name: "speed-skew", args: []string{"-speed-skew", "0.2", "-slow-speed", "0.4"},
			want: specs{Heterogeneity: &hawk.Heterogeneity{Classes: []hawk.SpeedClass{{Fraction: 0.2, Speed: 0.4}}}}},
		{name: "schedulers", args: []string{"-schedulers", "3"},
			want: specs{Schedulers: &hawk.SchedulerSpec{Count: 3}}},
		{name: "schedulers-snapshot", simOnly: true, args: []string{"-schedulers", "3", "-snapshot-interval", "2"},
			want: specs{Schedulers: &hawk.SchedulerSpec{Count: 3, SnapshotInterval: 2}}},
		{name: "scheduler-churn", args: []string{"-schedulers", "3", "-scheduler-fail-at", "50", "-scheduler-recover-at", "150"},
			want: specs{
				Schedulers: &hawk.SchedulerSpec{Count: 3},
				Churn:      &hawk.ChurnSpec{Events: hawk.SchedulerChurn(0, 50, 150)},
			}},
		{name: "msg-loss", args: []string{"-msg-loss", "0.01"}, want: specs{Faults: lossSpec(0.01)}},
		{name: "jitter", args: []string{"-jitter", "0.002"}, want: specs{Faults: &hawk.FaultSpec{Jitter: 0.002}}},
		{name: "speculate", args: []string{"-speculate"}, want: specs{Faults: &hawk.FaultSpec{Speculate: true}}},
		{name: "stragglers", args: []string{"-straggle-nodes", "20", "-straggle-at", "30", "-straggle-factor", "3"},
			want: specs{Faults: &hawk.FaultSpec{Stragglers: []hawk.StragglerEvent{{At: 30, Count: 20, Factor: 3}}}}},
		{name: "fault-retries-alone", args: []string{"-fault-retries", "5"}},
		{name: "net-delay", args: []string{"-net-delay", "0.001"}, want: specs{NetDelay: 0.001}},
		{name: "hawksim-composed", simOnly: true, args: []string{
			"-fail-nodes", "80", "-fail-at", "40", "-recover-at", "120",
			"-central-down", "60", "-central-up", "200",
			"-schedulers", "3", "-snapshot-interval", "2", "-scheduler-fail-at", "50", "-scheduler-recover-at", "150",
			"-msg-loss", "0.01", "-jitter", "0.002", "-fault-retries", "5",
			"-straggle-nodes", "20", "-straggle-at", "30", "-straggle-factor", "3", "-speculate",
			"-speed-skew", "0.2", "-slow-speed", "0.4", "-net-delay", "0.001",
		}, want: specs{
			Churn: &hawk.ChurnSpec{Events: append([]hawk.ChurnEvent{
				{At: 40, Kind: hawk.ChurnFail, Count: 80},
				{At: 120, Kind: hawk.ChurnRecover, Count: 80},
				{At: 60, Kind: hawk.ChurnCentralDown},
				{At: 200, Kind: hawk.ChurnCentralUp},
			}, hawk.SchedulerChurn(0, 50, 150)...)},
			Heterogeneity: &hawk.Heterogeneity{Classes: []hawk.SpeedClass{{Fraction: 0.2, Speed: 0.4}}},
			Schedulers:    &hawk.SchedulerSpec{Count: 3, SnapshotInterval: 2},
			Faults:        full,
			NetDelay:      0.001,
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := mustParse(t, c.simOnly, c.args...)
			if err := s.Check(); err != nil {
				t.Fatalf("Check: %v", err)
			}
			if got := built(s); !reflect.DeepEqual(got, c.want) {
				t.Fatalf("built %+v\nwant  %+v", got, c.want)
			}
			if want := c.want != (specs{}); s.Active() != want {
				t.Fatalf("Active() = %v, want %v", s.Active(), want)
			}
		})
	}
}

// TestCheckRejectsOrphanedFlags table-tests every dependency rule: the
// dependent flag alone is an error naming both flags, and adding the flag
// it depends on clears it.
func TestCheckRejectsOrphanedFlags(t *testing.T) {
	rules := []struct{ flag, on string }{
		{"fail-at", "fail-nodes"},
		{"recover-at", "fail-nodes"},
		{"slow-speed", "speed-skew"},
		{"straggle-at", "straggle-nodes"},
		{"straggle-factor", "straggle-nodes"},
		{"scheduler-recover-at", "scheduler-fail-at"},
		{"central-up", "central-down"},
		{"snapshot-interval", "schedulers"},
	}
	for _, r := range rules {
		t.Run(r.flag, func(t *testing.T) {
			// Any value parses for every flag involved ("1" is a valid
			// int and float; bool flags take -name=value).
			orphan := "-" + r.flag + "=1"
			err := mustParse(t, true, orphan).Check()
			if err == nil {
				t.Fatalf("%s alone: Check passed", orphan)
			}
			if msg := err.Error(); !strings.Contains(msg, "-"+r.flag) || !strings.Contains(msg, "-"+r.on) {
				t.Fatalf("%s alone: error %q does not name -%s and -%s", orphan, msg, r.flag, r.on)
			}
			if err := mustParse(t, true, orphan, "-"+r.on+"=1").Check(); err != nil {
				t.Fatalf("%s with -%s: %v", orphan, r.on, err)
			}
		})
	}
	// Explicitly setting a flag to its default still counts as set: the
	// user asked for a slow-speed the run would never apply.
	if err := mustParse(t, false, "-slow-speed", "0.5").Check(); err == nil {
		t.Fatal("-slow-speed at its default value without -speed-skew: Check passed")
	}
}

// TestSimOnlyFlags pins which flags only cmd/hawksim defines.
func TestSimOnlyFlags(t *testing.T) {
	for _, name := range []string{"central-down", "central-up", "snapshot-interval"} {
		if _, err := parse(t, false, "-"+name, "1"); err == nil {
			t.Errorf("-%s parsed without RegisterSimOnly", name)
		}
		if _, err := parse(t, true, "-"+name, "1"); err != nil {
			t.Errorf("-%s with RegisterSimOnly: %v", name, err)
		}
	}
}

func TestProfile(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	p := RegisterProfile(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	stop, err := p.Start("test")
	if err != nil {
		t.Fatal(err)
	}
	stop()
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s not written: %v", filepath.Base(path), err)
		}
	}

	// Neither flag set: Start and stop are no-ops.
	stop, err = RegisterProfile(flag.NewFlagSet("none", flag.ContinueOnError)).Start("test")
	if err != nil {
		t.Fatal(err)
	}
	stop()

	// An unwritable CPU profile path fails Start.
	fs = flag.NewFlagSet("bad", flag.ContinueOnError)
	p = RegisterProfile(fs)
	if err := fs.Parse([]string{"-cpuprofile", filepath.Join(dir, "missing", "cpu.prof")}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Start("test"); err == nil {
		t.Fatal("Start with an unwritable -cpuprofile path succeeded")
	}
}
