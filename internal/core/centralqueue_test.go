package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestCentralQueueAssignsIdleFirst(t *testing.T) {
	q := NewCentralQueue([]int{1, 2, 3})
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		id, wait := q.Assign(0, 100)
		if wait != 0 {
			t.Fatalf("idle server should have zero waiting, got %v", wait)
		}
		if seen[id] {
			t.Fatalf("server %d assigned twice before others", id)
		}
		seen[id] = true
	}
	// Fourth assignment stacks on some server with waiting 100.
	_, wait := q.Assign(0, 100)
	if wait != 100 {
		t.Fatalf("stacked assignment waiting = %v, want 100", wait)
	}
}

func TestCentralQueueWaitingAccumulates(t *testing.T) {
	q := NewCentralQueue([]int{1})
	for i := 0; i < 5; i++ {
		_, wait := q.Assign(0, 10)
		if want := float64(i * 10); wait != want {
			t.Fatalf("assignment %d waiting = %v, want %v", i, wait, want)
		}
	}
}

func TestCentralQueueTimeDecay(t *testing.T) {
	q := NewCentralQueue([]int{1})
	q.Assign(0, 100) // queued work: 100
	q.TaskStarted(1, 0, 100, 100)
	// At t=40, 60 seconds of the running task remain.
	if w := q.MinWaiting(40); math.Abs(w-60) > 1e-9 {
		t.Fatalf("waiting at t=40 = %v, want 60", w)
	}
	// Past the estimated end, waiting clamps at zero.
	if w := q.MinWaiting(150); w != 0 {
		t.Fatalf("waiting at t=150 = %v, want 0", w)
	}
}

func TestCentralQueueFeedbackReanchors(t *testing.T) {
	q := NewCentralQueue([]int{1, 2})
	// Both get one task of estimate 100.
	q.Assign(0, 100)
	q.Assign(0, 100)
	q.TaskStarted(1, 0, 100, 100)
	q.TaskStarted(2, 0, 100, 100)
	// Server 1 finishes early at t=10: its waiting drops to zero while
	// server 2 still has ~90 remaining, so the next task goes to 1.
	q.TaskFinished(1, 10)
	id, wait := q.Assign(10, 50)
	if id != 1 {
		t.Fatalf("assignment went to %d, want the early-finisher 1", id)
	}
	if wait != 0 {
		t.Fatalf("waiting = %v, want 0", wait)
	}
}

func TestCentralQueueLateFinishKeepsWaiting(t *testing.T) {
	q := NewCentralQueue([]int{1, 2})
	q.Assign(0, 100)
	q.TaskStarted(1, 0, 100, 100)
	// At t=150 the task on 1 still runs (estimate was wrong). Server 1's
	// running term is exhausted; waiting is 0 — the scheduler believed
	// the estimate. Assign goes to server 2 only if it has less waiting;
	// both are zero, so tie-break by id picks 1. Start feedback matters:
	// after server 1 reports a *new* start, its waiting rises again.
	q.TaskStarted(1, 150, 100, 100)
	id, _ := q.Assign(150, 10)
	if id != 2 {
		t.Fatalf("assignment went to %d, want idle server 2", id)
	}
}

func TestCentralQueueNilSafety(t *testing.T) {
	var q *CentralQueue
	q.TaskStarted(1, 0, 10, 10) // must not panic
	q.TaskFinished(1, 0)
}

func TestCentralQueueUntrackedNode(t *testing.T) {
	q := NewCentralQueue([]int{1})
	q.TaskStarted(99, 0, 10, 10) // unknown node: ignored
	q.TaskFinished(99, 0)
	if w := q.Waiting(99, 0); w != -1 {
		t.Fatalf("Waiting(unknown) = %v, want -1", w)
	}
}

func TestCentralQueueEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Assign on empty queue should panic")
		}
	}()
	NewCentralQueue(nil).Assign(0, 1)
}

// Property: Assign always returns the minimum waiting time across servers
// (checked against a brute-force scan via Waitings).
func TestCentralQueueMinProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ids := make([]int, 50)
	for i := range ids {
		ids[i] = i
	}
	q := NewCentralQueue(ids)
	now := 0.0
	running := map[int]float64{} // node -> est of running task
	queued := map[int][]float64{}
	for step := 0; step < 3000; step++ {
		now += rng.Float64() * 5
		switch rng.Intn(3) {
		case 0: // assign
			est := rng.Float64()*100 + 1
			all := q.Waitings(now)
			min := math.Inf(1)
			for _, w := range all {
				min = math.Min(min, w)
			}
			id, wait := q.Assign(now, est)
			if math.Abs(wait-min) > 1e-6 {
				t.Fatalf("step %d: Assign waiting %v != min %v", step, wait, min)
			}
			queued[id] = append(queued[id], est)
		case 1: // start a queued task somewhere
			for id, list := range queued {
				if len(list) > 0 && running[id] == 0 {
					est := list[0]
					queued[id] = list[1:]
					q.TaskStarted(id, now, est, est)
					running[id] = est
					break
				}
			}
		case 2: // finish a running task
			for id, est := range running {
				if est > 0 {
					q.TaskFinished(id, now)
					delete(running, id)
					break
				}
			}
		}
		// Waiting times must never be negative.
		for _, w := range q.Waitings(now) {
			if w < 0 {
				t.Fatalf("negative waiting %v", w)
			}
		}
	}
}

func TestCentralQueueDeterministicTieBreak(t *testing.T) {
	q1 := NewCentralQueue([]int{3, 1, 2})
	q2 := NewCentralQueue([]int{3, 1, 2})
	for i := 0; i < 10; i++ {
		a, _ := q1.Assign(0, 10)
		b, _ := q2.Assign(0, 10)
		if a != b {
			t.Fatal("equal queues diverged")
		}
	}
}

// Property-based workout of the heap invariant under arbitrary operation
// sequences encoded as byte strings.
func TestCentralQueueFuzzOps(t *testing.T) {
	check := func(ops []byte) bool {
		q := NewCentralQueue([]int{0, 1, 2, 3, 4})
		now := 0.0
		for _, op := range ops {
			now += float64(op%7) * 0.5
			switch op % 3 {
			case 0:
				q.Assign(now, float64(op%11)+1)
			case 1:
				q.TaskStarted(int(op%5), now, float64(op%13)+1, float64(op%13)+1)
			case 2:
				q.TaskFinished(int(op%5), now)
			}
		}
		for _, w := range q.Waitings(now) {
			if w < 0 || math.IsNaN(w) {
				return false
			}
		}
		return q.Len() == 5
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// The constructor tracks a duplicate id once and ignores a negative one,
// matching Add's contract. Before, {1, 1} reported two servers for one
// node and lost the first task's load on the second Assign, and {-1, 2}
// panicked.
func TestCentralQueueConstructorIDs(t *testing.T) {
	q := NewCentralQueue([]int{1, 1})
	if q.Len() != 1 {
		t.Fatalf("Len = %d for one distinct id, want 1", q.Len())
	}
	if id, w := q.Assign(0, 10); id != 1 || w != 0 {
		t.Fatalf("first Assign = (%d, %g), want (1, 0)", id, w)
	}
	if id, w := q.Assign(0, 10); id != 1 || w != 10 {
		t.Fatalf("second Assign = (%d, %g), want (1, 10)", id, w)
	}
	if ws := q.Waitings(0); len(ws) != 1 || ws[0] != 20 {
		t.Fatalf("Waitings = %v, want [20]", ws)
	}

	q = NewCentralQueue([]int{-1, 2, -7})
	if q.Len() != 1 {
		t.Fatalf("Len = %d with one non-negative id, want 1", q.Len())
	}
	if w := q.Waiting(-1, 0); w != -1 {
		t.Fatalf("Waiting(-1) = %g, want -1 (untracked)", w)
	}
	if id, _ := q.Assign(0, 1); id != 2 {
		t.Fatalf("Assign chose %d, want 2", id)
	}

	q = NewCentralQueue([]int{3, 0, 3, -2, 0})
	if q.Len() != 2 {
		t.Fatalf("Len = %d for ids {0, 3}, want 2", q.Len())
	}
	if !q.Remove(3) || q.Remove(3) || q.Len() != 1 {
		t.Fatal("a deduplicated id must be removable exactly once")
	}
}

// The runtime backstop for the //hawk:size and //hawk:nopointers pins on
// heapEntry and serverState, which hawklint's structsize analyzer enforces
// at vet time: every heap sift moves heapEntry values and every SyncFrom
// copies the whole serverState table.
func TestCentralQueueStructSizes(t *testing.T) {
	if got := unsafe.Sizeof(heapEntry{}); got != 16 {
		t.Errorf("sizeof(heapEntry) = %d, want 16", got)
	}
	if got := unsafe.Sizeof(serverState{}); got != 24 {
		t.Errorf("sizeof(serverState) = %d, want 24", got)
	}
}

// A snapshot refresh into an already-sized mirror and a churn rejoin of a
// known id allocate nothing.
func TestCentralQueueZeroAlloc(t *testing.T) {
	ids := make([]int, 1000)
	for i := range ids {
		ids[i] = i
	}
	truth := NewCentralQueue(ids)
	mirror := NewCentralQueue(ids)
	now := 0.0
	for i := 0; i < 600; i++ {
		id, _ := truth.Assign(now, 5)
		if i%2 == 0 {
			truth.TaskStarted(id, now, 5, 7)
		}
		now += 0.01
	}
	allocs := testing.AllocsPerRun(100, func() {
		now += 0.01
		truth.Assign(now, 3)
		mirror.SyncFrom(truth)
	})
	if allocs != 0 {
		t.Errorf("SyncFrom into a sized mirror allocated %v times, want 0", allocs)
	}

	allocs = testing.AllocsPerRun(100, func() {
		now += 0.01
		truth.Remove(42)
		truth.Add(42, now)
	})
	if allocs != 0 {
		t.Errorf("Remove + Add of a known id allocated %v times, want 0", allocs)
	}
}

// FuzzCentralQueueVsReference drives the flat CentralQueue and the
// pointer-heap reference model (centralqueue_ref_test.go) through the
// identical fuzzer-chosen program over three queue pairs, a truth and two
// mirrors, and requires every observable result to match bit for bit:
// Assign's (node, waiting), MinWaiting, Waiting, Remove and Add results,
// and Len after every step. At the end both sides' Waitings must agree,
// and draining each queue with Assign must visit the same nodes in the
// same order.
//
// Program encoding (permissive, so every input is a valid program): the
// first byte picks the initial server count n = 1 + b%48 over ids
// 0..n-1; then one op per 3 bytes:
//
//	byte 0:    %10 picks the op (Assign twice as often as the rest),
//	           /10%3 the queue it targets
//	byte 1:    node id %(n+5) - 1, so -1 and ids past the initial range
//	           occur; SyncFrom's source queue is derived from it too
//	byte 2:    bits 0-2 advance the clock in half seconds; bit 3 calls
//	           with an instant one second stale; bits 4-7 pick the
//	           estimated duration
func FuzzCentralQueueVsReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 2, 1, 0x11, 7, 0, 0})
	// Two mirrors sync, diverge, remove, rejoin beyond the range, re-sync.
	f.Add([]byte{
		5,
		16, 0, 0, 26, 1, 0, 0, 2, 0x21, 2, 2, 0x31, 14, 3, 0,
		4, 6, 1, 15, 9, 2, 5, 6, 0, 25, 0, 0, 9, 4, 3, 8, 5, 8,
	})
	// Restarting a task on a server already in the running heap must
	// refresh that server's cached key (a fuzzer find against a queue
	// that skipped the in-place fix).
	f.Add([]byte("8p1x000\xe810422"))
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		program := make([]byte, 1+3*600)
		rng.Read(program)
		f.Add(program)
	}
	f.Fuzz(func(t *testing.T, program []byte) {
		n := 4
		if len(program) > 0 {
			n = 1 + int(program[0]%48)
			program = program[1:]
		}
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		var qs [3]*CentralQueue
		var refs [3]*refCentralQueue
		for k := range qs {
			qs[k] = NewCentralQueue(ids)
			refs[k] = newRefCentralQueue(ids)
		}
		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		now := 0.0
		for step := 0; len(program) >= 3; step++ {
			op, arg, tb := program[0], program[1], program[2]
			program = program[3:]
			k := int(op/10) % 3
			q, r := qs[k], refs[k]
			now += float64(tb&7) * 0.5
			at := now
			if tb&8 != 0 {
				at = now - 1
			}
			id := int(arg)%(n+5) - 1
			est := float64(tb>>4)*0.75 + 0.25
			run := est * float64(1+arg%3) / 2 // under-, exact or over-running
			switch op % 10 {
			case 0, 9:
				if q.Len() == 0 || r.Len() == 0 {
					break
				}
				gi, gw := q.Assign(at, est)
				wi, ww := r.Assign(at, est)
				if gi != wi || !same(gw, ww) {
					t.Fatalf("step %d queue %d: Assign = (%d, %v), reference (%d, %v)", step, k, gi, gw, wi, ww)
				}
			case 1:
				q.AddLoad(id, at, est)
				r.AddLoad(id, at, est)
			case 2:
				q.TaskStarted(id, at, est, run)
				r.TaskStarted(id, at, est, run)
			case 3:
				q.TaskFinished(id, at)
				r.TaskFinished(id, at)
			case 4:
				if g, w := q.Remove(id), r.Remove(id); g != w {
					t.Fatalf("step %d queue %d: Remove(%d) = %v, reference %v", step, k, id, g, w)
				}
			case 5:
				if g, w := q.Add(id, at), r.Add(id, at); g != w {
					t.Fatalf("step %d queue %d: Add(%d) = %v, reference %v", step, k, id, g, w)
				}
			case 6:
				src := (k + 1 + int(arg)%2) % 3
				q.SyncFrom(qs[src])
				r.SyncFrom(refs[src])
			case 7:
				if g, w := q.MinWaiting(at), r.MinWaiting(at); !same(g, w) {
					t.Fatalf("step %d queue %d: MinWaiting = %v, reference %v", step, k, g, w)
				}
			case 8:
				if g, w := q.Waiting(id, at), r.Waiting(id, at); !same(g, w) {
					t.Fatalf("step %d queue %d: Waiting(%d) = %v, reference %v", step, k, id, g, w)
				}
			}
			if q.Len() != r.Len() {
				t.Fatalf("step %d queue %d: Len = %d, reference %d", step, k, q.Len(), r.Len())
			}
		}
		for k := range qs {
			q, r := qs[k], refs[k]
			gw, ww := q.Waitings(now), r.Waitings(now)
			sort.Float64s(gw)
			sort.Float64s(ww)
			if len(gw) != len(ww) {
				t.Fatalf("queue %d: %d waitings, reference %d", k, len(gw), len(ww))
			}
			for i := range gw {
				if !same(gw[i], ww[i]) {
					t.Fatalf("queue %d: waitings %v, reference %v", k, gw, ww)
				}
			}
			for i := 0; i < 2*q.Len(); i++ {
				gi, gwt := q.Assign(now, 1)
				wi, wwt := r.Assign(now, 1)
				if gi != wi || !same(gwt, wwt) {
					t.Fatalf("queue %d drain %d: Assign = (%d, %v), reference (%d, %v)", k, i, gi, gwt, wi, wwt)
				}
			}
		}
	})
}
