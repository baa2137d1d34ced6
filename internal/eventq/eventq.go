// Package eventq implements the discrete-event engine underlying the
// trace-driven cluster simulator.
//
// The engine is a typed-event design: a priority queue of flat event
// records — timestamp, sequence number, and a caller-defined payload —
// with a virtual clock. Engine is generic over the payload type E, and
// executing an event means handing its payload to the single dispatch
// function supplied at construction. This is deliberate: the obvious
// alternative, a queue of func() closures, heap-allocates one closure (plus
// its captured variables) per scheduled event, and the engine is the
// simulator's hottest call site — a run executes hundreds of thousands of
// events. With a small struct payload (the simulator uses a 16-byte
// pointer-free union of tag bytes and int32 arena indices, so the queue is
// also opaque to the garbage collector), pushing, popping, and dispatching
// events performs zero heap allocations; the only allocations the engine
// ever makes are the amortized growths of the backing arrays, and New's
// capacity hint removes even those when the caller can bound the live
// event count.
//
// # Queue
//
// The queue behind the engine is a ladder (calendar) timeline: events
// binned by timestamp into bucket rungs over a moving time window,
// buckets sorted lazily on first pop, with an unsorted overflow tier for
// far-future timers. Push and pop are amortized O(1) on workloads whose
// pending window moves forward, which is every discrete-event
// simulation. See ladder.go for the structure and the argument for why
// its order is exactly the (timestamp, sequence) order below.
//
// A hand-rolled binary min-heap over the same records is kept in the
// package's tests as the reference model of that order: the differential
// tests and FuzzLadderVsHeap drive both through identical programs and
// require identical dispatch streams, and the BenchmarkEngineHeap*
// benchmarks are the baseline the ladder's speed is measured against.
// The golden reports in internal/sim were generated under the heap and
// still pass byte for byte.
//
// # Ordering invariant
//
// Events fire in nondecreasing timestamp order, and events scheduled for the
// same instant fire in scheduling (insertion) order: every event carries a
// monotonically increasing sequence number assigned by At, and the queue
// orders by (timestamp, sequence). A caller that schedules events lazily
// but needs them ordered as if scheduled up front can reserve the low end
// of the sequence space with ReserveSeqs and place events there with
// AtReserved. This FIFO tie-breaking is load-bearing:
// it makes every simulation a pure function of (trace, config, seed), which
// is what lets internal/sweep fan runs out over worker pools while
// guaranteeing byte-identical results to a serial run. Periodic samplers
// (internal/sim's utilization ticks) are ordinary events and obey the same
// rule: a tick scheduled before another event at the same instant fires
// before it, and one scheduled after fires after it.
//
// The whole package is a hot path and every function in it must be
// replayable; hawklint (internal/lint) enforces both:
//
//hawk:hotpath
//hawk:deterministic
package eventq

// Engine is a discrete-event simulation engine over payloads of type E.
// The zero value is not usable; call New.
type Engine[E any] struct {
	now          float64
	seq          uint64
	reserved     uint64 // low sequence numbers set aside by ReserveSeqs
	lastReserved uint64 // highest reserved seq used so far (must increase)
	lad          ladder[E]
	count        uint64 // total events executed
	maxLen       int    // peak number of simultaneously pending events
	dispatch     func(now float64, ev E)
}

// New returns an empty engine with the clock at zero. dispatch is invoked
// once per executed event, with the clock already advanced to the event's
// timestamp; it must not be nil. capacity pre-sizes the event queue,
// eliminating growth-path copies on the hot loop: size it to the largest
// number of events expected to be pending at once (internal/sim derives a
// deliberately generous bound from its trace — see the hint comment in
// sim.Run). Zero is valid and simply means "grow on demand".
func New[E any](dispatch func(now float64, ev E), capacity int) *Engine[E] {
	if dispatch == nil {
		panic("eventq: nil dispatch")
	}
	e := &Engine[E]{dispatch: dispatch}
	e.lad.init(capacity)
	return e
}

// Now returns the current virtual time in seconds.
func (e *Engine[E]) Now() float64 { return e.now }

// Executed returns the number of events processed so far.
func (e *Engine[E]) Executed() uint64 { return e.count }

// Pending returns the number of events waiting in the queue.
func (e *Engine[E]) Pending() int { return e.lad.n }

// MaxPending returns the peak number of events that were pending at any one
// instant so far. It is the engine's live-memory high-water mark: the queue's
// working set is MaxPending events, however many events a run executes in
// total. Callers that feed the engine lazily (internal/sim chains trace
// submissions one at a time instead of preloading them) use it to verify
// the queue stays O(in-flight state) rather than O(trace).
func (e *Engine[E]) MaxPending() int { return e.maxLen }

// Cap returns the current capacity of the backing array New's hint
// pre-sizes (for tests and introspection): the ladder's overflow tier,
// which is where a pre-loaded schedule lands.
func (e *Engine[E]) Cap() int { return cap(e.lad.top) }

// At schedules ev to be dispatched at absolute virtual time t. Scheduling
// in the past (t < Now) is clamped to Now: the event fires before any later
// event but virtual time never runs backwards. Among events with equal
// timestamps, earlier At calls fire first (see the package ordering
// invariant).
func (e *Engine[E]) At(t float64, ev E) {
	e.seq++
	e.schedule(t, e.seq, ev)
}

// schedule clamps t to the clock, pushes the event, and maintains the
// pending high-water mark — the single push path shared by At and
// AtReserved.
func (e *Engine[E]) schedule(t float64, seq uint64, ev E) {
	if t < e.now {
		t = e.now
	}
	e.lad.push(event[E]{at: t, seq: seq, payload: ev})
	if e.lad.n > e.maxLen {
		e.maxLen = e.lad.n
	}
}

// After schedules ev to be dispatched d seconds after the current virtual
// time.
func (e *Engine[E]) After(d float64, ev E) {
	e.At(e.now+d, ev)
}

// ReserveSeqs reserves sequence numbers 1..n for AtReserved, starting
// ordinary At/After assignment at n+1. It must be called on a fresh engine
// (before anything is scheduled). Reserving lets a caller that schedules a
// known set of events lazily — internal/sim chains one trace submission at
// a time — keep the exact tie-break order those events would have had if
// pushed up front, before anything else: a reserved event wins every
// equal-timestamp tie against normally scheduled events.
func (e *Engine[E]) ReserveSeqs(n uint64) {
	if e.seq != 0 || e.Pending() != 0 {
		panic("eventq: ReserveSeqs after events were scheduled")
	}
	e.seq = n
	e.reserved = n
}

// AtReserved schedules ev at absolute virtual time t with the given
// reserved sequence number (1-based, at most the ReserveSeqs count).
// Scheduling in the past is clamped to Now, as in At. Reserved sequence
// numbers must be used in strictly increasing order — enforced, because a
// duplicated seq would give the queue two entries with an identical
// (timestamp, sequence) rank and silently break the total order the
// engine's determinism guarantee rests on.
func (e *Engine[E]) AtReserved(t float64, seq uint64, ev E) {
	if seq == 0 || seq > e.reserved {
		panic("eventq: AtReserved sequence number outside the reserved range")
	}
	if seq <= e.lastReserved {
		panic("eventq: AtReserved sequence numbers must strictly increase")
	}
	e.lastReserved = seq
	e.schedule(t, seq, ev)
}

// Step executes the single earliest pending event, advancing the clock.
// It returns false when the queue is empty.
func (e *Engine[E]) Step() bool {
	p := e.lad.front()
	if p == nil {
		return false
	}
	ev := *p
	e.lad.advance()
	e.now = ev.at
	e.count++
	e.dispatch(e.now, ev.payload)
	return true
}

// peekAt reports the timestamp of the earliest pending event. The ladder
// may sort or re-bucket internally to find it, but never changes the
// dispatch order.
func (e *Engine[E]) peekAt() (float64, bool) {
	p := e.lad.front()
	if p == nil {
		return 0, false
	}
	return p.at, true
}

// Run executes events until the queue drains.
func (e *Engine[E]) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, leaving later events
// queued and the clock at the last executed event (or deadline if the first
// pending event lies beyond it).
func (e *Engine[E]) RunUntil(deadline float64) {
	for {
		at, ok := e.peekAt()
		if !ok || at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// event is one queue entry: the (at, seq) rank plus the caller's payload.
type event[E any] struct {
	at      float64
	seq     uint64
	payload E
}

// eventLess is the total order the engine realizes: nondecreasing
// timestamp, FIFO sequence number within a timestamp.
func eventLess[E any](a, b *event[E]) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
