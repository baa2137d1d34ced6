package eventq

import (
	"math/rand"
	"testing"
)

// benchEvent mirrors internal/sim's simEvent exactly: a 16-byte
// pointer-free union of tag bytes and arena indices, so the benchmarks
// pay the same record-move cost as the production hot path.
type benchEvent struct {
	kind  uint8
	flags uint8
	gen   uint8
	sched uint8
	ref   int32
	jidx  int32
	aux   int32
}

// rollingEngine builds an engine holding depth pending events, mimicking a
// live simulation's steady state: a window of in-flight completions and
// probes rolling forward through virtual time.
func rollingEngine(depth int, sink *int) (*Engine[benchEvent], *rand.Rand) {
	rng := rand.New(rand.NewSource(1))
	e := New(func(_ float64, ev benchEvent) { *sink += int(ev.ref) }, depth)
	for i := 0; i < depth; i++ {
		e.At(rng.Float64()*1000, benchEvent{kind: 1, ref: int32(i)})
	}
	return e, rng
}

// benchRolling measures one push plus one dispatch per iteration at a
// fixed queue depth — the simulator's exact hot-loop shape.
func benchRolling(b *testing.B, depth int) {
	b.ReportAllocs()
	var sink int
	e, rng := rollingEngine(depth, &sink)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(rng.Float64()*10, benchEvent{kind: 1, ref: int32(i)})
		e.Step()
	}
	_ = sink
}

// benchRollingHeap is benchRolling on the reference heap engine, the
// baseline the ladder's speed is measured against.
func benchRollingHeap(b *testing.B, depth int) {
	b.ReportAllocs()
	var sink int
	rng := rand.New(rand.NewSource(1))
	e := newRefEngine(func(_ float64, ev benchEvent) { sink += int(ev.ref) }, depth)
	for i := 0; i < depth; i++ {
		e.At(rng.Float64()*1000, benchEvent{kind: 1, ref: int32(i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(rng.Float64()*10, benchEvent{kind: 1, ref: int32(i)})
		e.Step()
	}
	_ = sink
}

func BenchmarkEngineHeap1k(b *testing.B)     { benchRollingHeap(b, 1024) }
func BenchmarkEngineLadder1k(b *testing.B)   { benchRolling(b, 1024) }
func BenchmarkEngineHeap16k(b *testing.B)    { benchRollingHeap(b, 16384) }
func BenchmarkEngineLadder16k(b *testing.B)  { benchRolling(b, 16384) }
func BenchmarkEngineHeap256k(b *testing.B)   { benchRollingHeap(b, 262144) }
func BenchmarkEngineLadder256k(b *testing.B) { benchRolling(b, 262144) }

// BenchmarkEngineLadderDrain measures pre-load-then-drain: push b.N events
// up front (the trace pre-flight shape — churn scripts, straggler
// schedules), then pop them all. BenchmarkEngineHeapDrain is the same on
// the reference heap engine.
func BenchmarkEngineLadderDrain(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(2))
	var sink int
	e := New(func(_ float64, ev benchEvent) { sink += int(ev.ref) }, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(rng.Float64()*1e6, benchEvent{kind: 1, ref: int32(i)})
	}
	e.Run()
	_ = sink
}

func BenchmarkEngineHeapDrain(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(2))
	var sink int
	e := newRefEngine(func(_ float64, ev benchEvent) { sink += int(ev.ref) }, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(rng.Float64()*1e6, benchEvent{kind: 1, ref: int32(i)})
	}
	e.Run()
	_ = sink
}

// TestLadderZeroAllocAcrossDepths pins the zero-allocation contract at
// every benchmarked depth: after warm-up, the rolling push/dispatch cycle
// must not allocate regardless of how many events are pending.
func TestLadderZeroAllocAcrossDepths(t *testing.T) {
	depths := []int{1024, 16384, 262144}
	if testing.Short() {
		depths = depths[:2]
	}
	for _, depth := range depths {
		var sink int
		e, rng := rollingEngine(depth, &sink)
		warm := 10 * depth
		if warm < 100000 {
			warm = 100000
		}
		for i := 0; i < warm; i++ {
			e.After(rng.Float64()*10, benchEvent{kind: 1})
			e.Step()
		}
		avg := testing.AllocsPerRun(50000, func() {
			e.After(rng.Float64()*10, benchEvent{kind: 1})
			e.Step()
		})
		if avg != 0 {
			t.Fatalf("depth %d: steady-state cycle allocated %v times per op, want 0", depth, avg)
		}
	}
}
