// Package repro is a from-scratch Go reproduction of "Hawk: Hybrid
// Datacenter Scheduling" (Delgado, Dinu, Kermarrec, Zwaenepoel — USENIX ATC
// 2015).
//
// # Public API
//
// Import repro/hawk. It is the one engine-agnostic scheduling surface:
//
//   - a Policy interface plus a string-keyed registry — "sparrow", "hawk",
//     "centralized", and "split" are registered implementations, and
//     hawk.Register plugs new policies into both engines without engine
//     changes;
//   - one shared hawk.Config (functional options, validation, defaults
//     resolved once) consumed by every engine;
//   - one hawk.Report result schema with CSV and JSON export, so engines
//     compare apples-to-apples.
//
// Two engines execute policies: hawk.Simulate, the trace-driven
// discrete-event simulator of the paper's evaluation (§4.1), and
// hawk.RunLive, a goroutine-per-node prototype runtime in which messages
// and task execution consume real time (§3.8, §4.10). hawk.SimulateSource
// is the simulator's streaming entry point: it consumes a hawk.Source —
// an in-memory trace adapter, an on-demand synthetic generator, or a
// hawk-trace file reader — decoding each job only when it submits, so a
// multi-million-task trace runs in memory proportional to in-flight work.
//
// # What is reproduced
//
// The library implements Hawk's hybrid scheduler — centralized scheduling
// for long jobs, Sparrow-style distributed batch sampling for short jobs, a
// reserved short partition, and randomized work stealing — together with
// every substrate the paper's evaluation depends on: the discrete-event
// cluster simulator, synthetic Google/Cloudera/Facebook/Yahoo workload
// generators, the Sparrow, fully-centralized, and split-cluster baselines,
// and the live prototype runtime.
//
// # Cluster model
//
// Engines schedule against a dynamic cluster model (core.ClusterView):
// the short/general partition, the live membership set, and per-node
// speed factors. A hawk.Config can script the scenarios the paper's
// robustness story depends on — node failures and recoveries (work on a
// failed node is lost and re-routed: probes re-sent, central tasks
// re-assigned, running tasks re-executed), central-scheduler outages
// (placements park in a backlog while probing and stealing keep the
// general partition utilized), and heterogeneous node speeds (a task of
// duration d takes d/speed seconds on its node). Both engines replay the
// same spec — the simulator as typed events on its virtual clock, the
// live prototype on a real-time controller — and runs stay deterministic
// per seed. With no scenario configured the view is static: samplers
// delegate to the dense partition fast path, draws are bit-identical,
// and the golden reports prove churn-free output unchanged.
//
// # Multi-scheduler model
//
// hawk.WithSchedulerSpec layers the paper's distributed multi-scheduler
// evaluation (§4.10 runs ten concurrent Hawk schedulers) on both engines
// in the shared-state optimistic style: each scheduler owns an
// independent mirror of the centralized queue and a stale snapshot of
// the cluster state, refreshed on a configurable cadence; placements are
// optimistic and commit through a versioned per-node claim, with
// conflicts detected and retried under a bounded backoff before a forced
// refresh. Jobs hash-partition over the live schedulers, and scheduler
// failure/recovery rides the churn machinery with a failed scheduler's
// jobs re-hashed to the survivors. The report accounts for the protocol
// (PlacementConflicts, ConflictRetries, SnapshotRefreshes,
// SnapshotStalenessSeconds, SchedulerFailures/Recoveries/Reassigned); a
// one-scheduler spec canonicalizes back to the single-scheduler fast
// path, byte-identical to the golden reports. docs/ARCHITECTURE.md
// documents the commit path; hawkexp -exp multisched sweeps 1–100
// schedulers.
//
// # Layout
//
// internal/policy holds the API implementation (registry, config, report);
// internal/core holds the engine-independent scheduler building blocks
// (estimation, classification, partitioning, probe placement, stealing, the
// centralized waiting-time queue); internal/sim and internal/liverun are
// the engines; internal/sweep fans independent runs out over a bounded
// worker pool (hawk.RunSweep) with results byte-identical to a serial
// loop; internal/workload generates and serializes traces;
// internal/experiments reproduces every table and figure of the paper on
// top of the sweep layer.
//
// See README.md for a tour and a runnable quickstart. The benchmarks in
// bench_test.go regenerate every table and figure of the paper's
// evaluation at a reduced scale; cmd/hawksim, cmd/hawkexp, and cmd/hawkgen
// are the command-line entry points (the first two share their scenario
// flags through internal/cliflags).
//
// # Performance
//
// The simulator is built around a typed-event engine (internal/eventq):
// the event queue stores flat payload structs ordered by (timestamp,
// sequence) and executes them through one dispatch switch, so scheduling
// an event allocates nothing — no per-event closures. The queue is a
// calendar-style ladder timeline that bins events by timestamp into
// bucket rungs and sorts lazily on dispatch — amortized O(1) per event,
// with bucket storage recycled through a spare pool so the steady state
// allocates nothing. It dispatches in exactly the (timestamp, sequence)
// order of the binary heap it replaced, which the package's tests keep
// as a reference model: the golden reports were generated under the heap
// and pass unregenerated, and a differential fuzzer (FuzzLadderVsHeap)
// pins the equivalence. The core state is
// data-oriented: nodes and per-job state live in dense value-slice arenas
// and queue entries and events refer to jobs by int32 arena index, so the
// hot structs are small, pointer-free, and invisible to the garbage
// collector, and each entry caches its job's class in a packed flag byte
// so steal scans read queues linearly. Trace submission is lazily
// chained — each submit event schedules the next — bounding the event
// heap by in-flight state rather than trace length (the engine's
// MaxPending high-water mark pins this in tests). Streamed runs extend
// the bound to the whole pipeline: jobs decode one at a time from a
// hawk.Source, arena slots and Durations arrays recycle through free
// lists at completion, and reports either stream to a per-job sink or
// fold into bounded reservoir aggregates — peak live heap is O(in-flight
// jobs + cluster) regardless of trace length, pinned by test at the
// ≈2M-task scale (BenchmarkStreamGoogleScale). The surrounding hot
// path holds the same line: probe and steal-victim sampling appends into
// per-simulation scratch buffers (randdist.SampleWithoutReplacementInto,
// core.RandomShortIndicesInto), and node FIFO queues and the central
// queue's server heaps recycle their backing arrays. Zero steady-state
// allocation on the submit→probe, steal, and central-assign paths is
// asserted with testing.AllocsPerRun regression tests.
// Simulator output is pinned byte-identical across this work by golden
// report diffs (internal/sim/testdata/golden). See README.md's
// "Performance" section for the measured trajectory.
//
// # Benchmark-regression gate
//
// CI treats simulator performance as a tested invariant: every push to
// main benchmarks SimulatorThroughput, CentralQueue, LargeCluster,
// GoogleScale, StreamGoogleScale, ChurnScale, MultiScheduler,
// FaultInjection, and the eventq EngineHeap/EngineLadder
// micro-benchmarks (-benchmem, -count=5) and uploads the result as a
// BENCH_<sha>.json artifact, and every pull request re-runs the same
// benchmarks on its base commit on the same runner and fails if min ns/op
// regresses by more than 15%, or min allocs/op or min B/op by more than
// 25%. cmd/benchjson does the conversion and comparison.
//
// # Static analysis
//
// The same invariants are enforced at compile time by hawklint
// (internal/lint, built as a go vet -vettool binary by cmd/hawklint):
// //hawk:hotpath functions may not contain allocating constructs,
// //hawk:size and //hawk:nopointers pin the hot structs' layout,
// //hawk:deterministic packages may not touch wall clocks, global
// randomness, the environment, or map iteration order, hot-path
// packages may not import container/heap, container/list, reflect, or
// sort (hot paths hand-roll their comparison sorts instead of paying
// sort's interface boxing and closure allocations),
// and //hawk:exporteddoc packages (the public API surface) must document
// every exported symbol. CI
// runs the suite on every push together with a negative self-test over a
// deliberately-broken fixture. See README.md's "Static analysis" section
// and internal/lint/doc.go for the directive grammar.
package repro
