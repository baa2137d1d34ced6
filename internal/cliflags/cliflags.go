// Package cliflags is the scenario-flag surface cmd/hawksim and
// cmd/hawkexp share. It registers the dynamic-cluster, multi-scheduler and
// gray-failure flags on a flag.FlagSet, rejects a flag set without the
// flag it depends on, and builds the hawk.Config overlay specs from the
// parsed values. It also owns the -cpuprofile/-memprofile pair both
// commands offer.
package cliflags

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/hawk"
)

// Scenario holds the parsed scenario flags. Each spec builder returns nil
// when its flags are unset, so a run without overlays keeps the static
// fast path.
type Scenario struct {
	fs *flag.FlagSet

	failNodes            int
	failAt, recoverAt    float64
	speedSkew, slowSpeed float64

	schedulers                  int
	schedFailAt, schedRecoverAt float64

	netDelay, msgLoss, jitter float64
	straggleAt                float64
	straggleNodes             int
	straggleFactor            float64
	speculate                 bool
	faultRetries              int

	// Defined only by RegisterSimOnly; zero (no effect) otherwise.
	centralDown, centralUp, snapshotInterval float64
}

// Register defines the shared scenario flags on fs and returns the
// Scenario their parsed values land in.
func Register(fs *flag.FlagSet) *Scenario {
	s := &Scenario{fs: fs}
	fs.IntVar(&s.failNodes, "fail-nodes", 0, "fail this many random nodes at -fail-at (0 = no failures)")
	fs.Float64Var(&s.failAt, "fail-at", 0, "simulated seconds at which -fail-nodes nodes fail")
	fs.Float64Var(&s.recoverAt, "recover-at", 0, "simulated seconds at which failed nodes recover (0 = never)")
	fs.Float64Var(&s.speedSkew, "speed-skew", 0, "fraction of nodes running at -slow-speed (0 = homogeneous)")
	fs.Float64Var(&s.slowSpeed, "slow-speed", 0.5, "speed factor of the skewed nodes (1 = nominal)")

	fs.IntVar(&s.schedulers, "schedulers", 0, "concurrent schedulers with stale snapshots (0 or 1 = exact single-scheduler model)")
	fs.Float64Var(&s.schedFailAt, "scheduler-fail-at", 0, "simulated seconds at which scheduler 0 fails (0 = never; requires -schedulers)")
	fs.Float64Var(&s.schedRecoverAt, "scheduler-recover-at", 0, "simulated seconds at which scheduler 0 recovers (0 = never)")

	fs.Float64Var(&s.netDelay, "net-delay", 0, "one-way network delay per message leg in seconds (0 = default)")
	fs.Float64Var(&s.msgLoss, "msg-loss", 0, "drop probability applied to every message class (0 = lossless)")
	fs.Float64Var(&s.jitter, "jitter", 0, "extra uniform [0,jitter) delay per message leg in seconds")
	fs.Float64Var(&s.straggleAt, "straggle-at", 0, "simulated seconds at which -straggle-nodes nodes slow down")
	fs.IntVar(&s.straggleNodes, "straggle-nodes", 0, "slow down this many random nodes at -straggle-at (0 = no stragglers)")
	fs.Float64Var(&s.straggleFactor, "straggle-factor", 4, "slowdown factor of the straggling nodes (tasks stretch by this)")
	fs.BoolVar(&s.speculate, "speculate", false, "speculatively re-execute straggling short tasks (first completion wins)")
	fs.IntVar(&s.faultRetries, "fault-retries", 0, "send retries before a lossy message gives up (0 = default 3; raise for heavy -msg-loss)")
	return s
}

// RegisterSimOnly defines the flags only a single simulation offers — the
// centralized scheduler's outage window and the multi-scheduler snapshot
// refresh interval — on the Register flag set, and returns s.
func (s *Scenario) RegisterSimOnly() *Scenario {
	s.fs.Float64Var(&s.centralDown, "central-down", 0, "simulated seconds at which the centralized scheduler goes down (0 = never)")
	s.fs.Float64Var(&s.centralUp, "central-up", 0, "simulated seconds at which the centralized scheduler recovers (0 = never)")
	s.fs.Float64Var(&s.snapshotInterval, "snapshot-interval", 0, "seconds between scheduler snapshot refreshes (0 = default)")
	return s
}

// requires pairs each flag with the flag it has no effect without.
var requires = []struct{ flag, on string }{
	{"fail-at", "fail-nodes"},
	{"recover-at", "fail-nodes"},
	{"slow-speed", "speed-skew"},
	{"straggle-at", "straggle-nodes"},
	{"straggle-factor", "straggle-nodes"},
	{"scheduler-recover-at", "scheduler-fail-at"},
	{"central-up", "central-down"},
	{"snapshot-interval", "schedulers"},
}

// Check rejects a flag given on the command line without the flag it
// depends on, which would otherwise be dropped silently. "Given" means
// present in the parsed arguments, not non-zero: -slow-speed and
// -straggle-factor have non-zero defaults.
func (s *Scenario) Check() error {
	set := map[string]bool{}
	s.fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, r := range requires {
		if set[r.flag] && !set[r.on] {
			return fmt.Errorf("-%s has no effect without -%s", r.flag, r.on)
		}
	}
	return nil
}

// Churn assembles the scripted cluster churn, or nil when none is set.
// Events keep a fixed order — node failure, node recovery, central
// outage, central recovery, then scheduler churn — because the order
// reaches Report.Config and therefore the report bytes.
func (s *Scenario) Churn() *hawk.ChurnSpec {
	var events []hawk.ChurnEvent
	if s.failNodes > 0 {
		events = append(events, hawk.ChurnEvent{At: s.failAt, Kind: hawk.ChurnFail, Count: s.failNodes})
		if s.recoverAt > 0 {
			events = append(events, hawk.ChurnEvent{At: s.recoverAt, Kind: hawk.ChurnRecover, Count: s.failNodes})
		}
	}
	if s.centralDown > 0 {
		events = append(events, hawk.ChurnEvent{At: s.centralDown, Kind: hawk.ChurnCentralDown})
		if s.centralUp > 0 {
			events = append(events, hawk.ChurnEvent{At: s.centralUp, Kind: hawk.ChurnCentralUp})
		}
	}
	if s.schedFailAt > 0 {
		events = append(events, hawk.SchedulerChurn(0, s.schedFailAt, s.schedRecoverAt)...)
	}
	if len(events) == 0 {
		return nil
	}
	return &hawk.ChurnSpec{Events: events}
}

// Heterogeneity maps -speed-skew/-slow-speed onto a one-class spec, or nil
// for a homogeneous cluster.
func (s *Scenario) Heterogeneity() *hawk.Heterogeneity {
	if s.speedSkew <= 0 {
		return nil
	}
	return &hawk.Heterogeneity{Classes: []hawk.SpeedClass{{Fraction: s.speedSkew, Speed: s.slowSpeed}}}
}

// Schedulers maps -schedulers (and -snapshot-interval, where defined) onto
// a SchedulerSpec, or nil for the exact single-scheduler model.
func (s *Scenario) Schedulers() *hawk.SchedulerSpec {
	if s.schedulers <= 0 {
		return nil
	}
	return &hawk.SchedulerSpec{Count: s.schedulers, SnapshotInterval: s.snapshotInterval}
}

// Faults assembles the gray-failure scenario, or nil when no injection
// flag is set.
func (s *Scenario) Faults() *hawk.FaultSpec {
	// Zero means unset; non-zero values (including invalid negatives) are
	// passed through so Config.Normalize can reject them with a real error.
	if s.msgLoss == 0 && s.jitter == 0 && s.straggleNodes == 0 && !s.speculate {
		return nil
	}
	f := &hawk.FaultSpec{
		ProbeLoss:  s.msgLoss,
		ReplyLoss:  s.msgLoss,
		StealLoss:  s.msgLoss,
		AssignLoss: s.msgLoss,
		CommitLoss: s.msgLoss,
		Jitter:     s.jitter,
		MaxRetries: s.faultRetries,
		Speculate:  s.speculate,
	}
	if s.straggleNodes != 0 {
		f.Stragglers = []hawk.StragglerEvent{
			{At: s.straggleAt, Count: s.straggleNodes, Factor: s.straggleFactor},
		}
	}
	return f
}

// NetDelay returns -net-delay: the per-leg network delay override, zero
// for the default.
func (s *Scenario) NetDelay() float64 { return s.netDelay }

// Active reports whether any overlay is in effect.
func (s *Scenario) Active() bool {
	return s.Churn() != nil || s.Heterogeneity() != nil || s.Schedulers() != nil ||
		s.Faults() != nil || s.netDelay != 0
}

// Profile holds the -cpuprofile/-memprofile destinations.
type Profile struct {
	cpu, mem string
}

// RegisterProfile defines -cpuprofile and -memprofile on fs.
func RegisterProfile(fs *flag.FlagSet) *Profile {
	p := &Profile{}
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&p.mem, "memprofile", "", "write a heap profile (taken after the run) to this file")
	return p
}

// Start begins the CPU profile when -cpuprofile is set. The returned stop
// writes the -memprofile heap profile (after a GC, so it shows live
// objects) and then ends the CPU profile; it reports its own failures on
// stderr, prefixed with prog, since they come too late to change the run.
func (p *Profile) Start(prog string) (stop func(), err error) {
	var cpu *os.File
	if p.cpu != "" {
		if cpu, err = os.Create(p.cpu); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	return func() {
		if p.mem != "" {
			if err := writeHeapProfile(p.mem); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
			}
		}
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
		}
	}, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("writing heap profile: %w", err)
	}
	return nil
}
