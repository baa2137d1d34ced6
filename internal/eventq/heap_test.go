package eventq

// refEngine is the reference model of the engine's (at, seq) order: the
// binary min-heap engine the ladder replaced. It mirrors Engine's
// scheduling API — clamping, reserved sequence numbers, the pending
// high-water mark — without the misuse checks, so the differential tests
// and FuzzLadderVsHeap can drive both through identical programs, and the
// EngineHeap benchmarks measure the baseline the ladder's speed is
// claimed against.
type refEngine[E any] struct {
	now      float64
	seq      uint64
	events   eventHeap[E]
	count    uint64
	maxLen   int
	dispatch func(now float64, ev E)
}

func newRefEngine[E any](dispatch func(now float64, ev E), capacity int) *refEngine[E] {
	return &refEngine[E]{dispatch: dispatch, events: make(eventHeap[E], 0, capacity)}
}

func (e *refEngine[E]) Now() float64         { return e.now }
func (e *refEngine[E]) Executed() uint64     { return e.count }
func (e *refEngine[E]) Pending() int         { return len(e.events) }
func (e *refEngine[E]) MaxPending() int      { return e.maxLen }
func (e *refEngine[E]) ReserveSeqs(n uint64) { e.seq = n }

func (e *refEngine[E]) At(t float64, ev E) {
	e.seq++
	e.AtReserved(t, e.seq, ev)
}

func (e *refEngine[E]) After(d float64, ev E) { e.At(e.now+d, ev) }

func (e *refEngine[E]) AtReserved(t float64, seq uint64, ev E) {
	if t < e.now {
		t = e.now
	}
	e.events.push(event[E]{at: t, seq: seq, payload: ev})
	if len(e.events) > e.maxLen {
		e.maxLen = len(e.events)
	}
}

func (e *refEngine[E]) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.events.pop()
	e.now = ev.at
	e.count++
	e.dispatch(e.now, ev.payload)
	return true
}

func (e *refEngine[E]) Run() {
	for e.Step() {
	}
}

// eventHeap is a hand-rolled binary min-heap ordered by (at, seq). It
// deliberately does not implement container/heap.Interface: that interface
// moves elements through interface{}, which would allocate on every push
// and pop.
type eventHeap[E any] []event[E]

func (h eventHeap[E]) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap[E]) push(ev event[E]) {
	*h = append(*h, ev)
	h.siftUp(len(*h) - 1)
}

func (h *eventHeap[E]) pop() event[E] {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = event[E]{} // drop payload references so they can be collected
	*h = old[:n]
	if n > 1 {
		old[:n].siftDown(0)
	}
	return top
}

func (h eventHeap[E]) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h eventHeap[E]) siftDown(i int) {
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		j := left
		if right := left + 1; right < n && h.less(right, left) {
			j = right
		}
		if !h.less(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}
