package core

// CentralQueue is the centralized scheduler's data structure (§3.7): a
// priority queue of <server, waiting time> tuples kept sorted by waiting
// time. The waiting time of a server is the sum of the estimated execution
// times of all long tasks in that server's queue plus the remaining
// estimated execution time of any long task currently executing there.
//
// The queue observes the lifecycle of the tasks it placed: the runtime
// reports TaskStarted and TaskFinished, which is what keeps the waiting
// times "timely and fairly accurate" (§3.7) even when actual task durations
// deviate from the estimates. Short tasks and probes are invisible to it,
// exactly as in the paper.
//
// Exact min-waiting extraction despite continuously decaying waiting times
// is achieved with two heaps:
//
//   - the running heap holds servers whose estimated running task extends
//     into the future (runEnd > now), keyed by runEnd + queued. All such
//     waiting times decay at unit rate, so their relative order is
//     time-invariant. A member whose runEnd slips into the past has true
//     waiting = queued >= key - now, so it can only be *under*-estimated
//     while buried in the heap — the root therefore stays the true minimum
//     of the heap, and expired roots are lazily migrated out.
//   - the idle heap holds the rest, keyed by queued (time-invariant).
//
// Assign compares the two roots' true waiting times and picks the smaller,
// so assignments are exactly min-waiting at every instant.
//
// The layout is data-oriented. Both heaps hold flat 16-byte heapEntry
// values whose key is cached whenever the server's state changes, so a heap
// comparison reads only the two entries and never chases a pointer.
// Per-server state lives in one slice indexed by node id, and a parallel
// pos slice maps each tracked node to its slot in whichever heap holds it.
// No element of these four slices carries a pointer or depends on where
// the queue lives in memory, so copying them makes an exact mirror:
// SyncFrom is four memmoves, with no heapify and no per-server work, and
// the mirror's heaps are arranged exactly like the source's.
type CentralQueue struct {
	now float64
	// states is indexed by node id; states[id].tracked marks membership.
	// Node ids are dense per partition, so a slice lookup replaces the
	// obvious map.
	states  []serverState
	pos     []int32   // heap slot of each tracked node, in the heap its inRun names
	count   int       // tracked servers
	running entryHeap // key: runEnd + queued
	idle    entryHeap // key: queued
}

// serverState is one server's waiting-time state. It is copied wholesale by
// every SyncFrom, so its size is a direct multiplier on snapshot refreshes.
//
//hawk:size=24
//hawk:nopointers
type serverState struct {
	runEnd  float64 // estimated completion instant of the running long task
	queued  float64 // summed estimates of queued long tasks
	inRun   bool    // member of the running heap (else the idle heap)
	tracked bool
}

// key returns the heap ordering key for the heap the server currently
// occupies.
//
//hawk:hotpath
func (s *serverState) key() float64 {
	if s.inRun {
		return s.runEnd + s.queued
	}
	return s.queued
}

// waiting returns the true waiting time at instant now.
//
//hawk:hotpath
func (s *serverState) waiting(now float64) float64 {
	w := s.queued
	if s.runEnd > now {
		w += s.runEnd - now
	}
	return w
}

// NewCentralQueue builds a queue over the given node ids, all initially
// idle (zero waiting time). A duplicate id is tracked once and a negative
// id is ignored, as Add does. Ids must be below 2^31. Both heaps are sized
// for every server up front, so neither grows while the membership stays
// within the initial id range.
func NewCentralQueue(nodeIDs []int) *CentralQueue {
	maxID := -1
	for _, id := range nodeIDs {
		if id > maxID {
			maxID = id
		}
	}
	q := &CentralQueue{
		states:  make([]serverState, maxID+1),
		pos:     make([]int32, maxID+1),
		running: make(entryHeap, 0, len(nodeIDs)),
		idle:    make(entryHeap, 0, len(nodeIDs)),
	}
	for _, id := range nodeIDs {
		if id < 0 || q.states[id].tracked {
			continue
		}
		q.states[id].tracked = true
		q.idle.push(heapEntry{id: int32(id)}, q.pos)
		q.count++
	}
	return q
}

// Len returns the number of servers tracked.
func (q *CentralQueue) Len() int { return q.count }

// tracks reports whether nodeID is a tracked server.
//
//hawk:hotpath
func (q *CentralQueue) tracks(nodeID int) bool {
	return nodeID >= 0 && nodeID < len(q.states) && q.states[nodeID].tracked
}

// heap returns the running heap if running is set, else the idle heap.
//
//hawk:hotpath
func (q *CentralQueue) heap(running bool) *entryHeap {
	if running {
		return &q.running
	}
	return &q.idle
}

//hawk:hotpath
func (q *CentralQueue) advance(now float64) {
	if now > q.now {
		q.now = now
	}
	// Migrate expired running roots: their tasks should have finished by
	// their estimate; their waiting no longer decays.
	for len(q.running) > 0 {
		id := q.running[0].id
		s := &q.states[id]
		if s.runEnd > q.now {
			break
		}
		q.running.remove(0, q.pos)
		s.inRun = false
		q.idle.push(heapEntry{key: s.key(), id: id}, q.pos)
	}
}

// best returns the id of the server with the smallest true waiting time at
// q.now. The queue must be non-empty.
//
//hawk:hotpath
func (q *CentralQueue) best() int {
	switch {
	case len(q.running) == 0:
		return int(q.idle[0].id)
	case len(q.idle) == 0:
		return int(q.running[0].id)
	}
	r, i := q.running[0].id, q.idle[0].id
	wr, wi := q.states[r].waiting(q.now), q.states[i].waiting(q.now)
	if wr != wi {
		if wr < wi {
			return int(r)
		}
		return int(i)
	}
	if r < i {
		return int(r)
	}
	return int(i)
}

// Assign places one task with the given estimated duration on the server
// with the smallest waiting time at instant now, bumps that server's
// waiting time, and returns the chosen node id along with the waiting time
// the scheduler expects the task to experience.
//
//hawk:hotpath
func (q *CentralQueue) Assign(now, estDuration float64) (nodeID int, waiting float64) {
	if q.count == 0 {
		panic("core: Assign on empty CentralQueue")
	}
	q.advance(now)
	nodeID = q.best()
	s := &q.states[nodeID]
	waiting = s.waiting(q.now)
	s.queued += estDuration
	q.fix(nodeID)
	return nodeID, waiting
}

// AddLoad bumps a specific server's queued-work estimate without choosing
// it: the multi-scheduler commit path picked the node on a scheduler's
// *local* queue (Assign there) and, after winning the claim, reflects the
// placement into the shared authoritative queue with AddLoad — so every
// scheduler's next snapshot sees the committed load. A node the queue does
// not track (removed by churn) is ignored. Never allocates.
//
//hawk:hotpath
func (q *CentralQueue) AddLoad(nodeID int, now, estDuration float64) {
	if !q.tracks(nodeID) {
		return
	}
	q.advance(now)
	q.states[nodeID].queued += estDuration
	q.fix(nodeID)
}

// SyncFrom makes this queue a copy of src: same clock, same tracked
// servers, same per-server waiting state, same heap arrangement. This is
// the snapshot-refresh primitive of the multi-scheduler model — a
// scheduler's stale local queue catches up to the shared authoritative
// queue. The layout holds no pointers, so the copy is four slice copies,
// and it allocates nothing once this queue's slices have grown to src's
// size. The two queues share no memory afterwards.
func (q *CentralQueue) SyncFrom(src *CentralQueue) {
	q.now = src.now
	q.count = src.count
	q.states = append(q.states[:0], src.states...)
	q.pos = append(q.pos[:0], src.pos...)
	q.running = append(q.running[:0], src.running...)
	q.idle = append(q.idle[:0], src.idle...)
}

// TaskStarted records that a previously assigned task began executing on
// nodeID at instant now: its estimate leaves the queued sum, and the
// running term is anchored to the duration the executing node reports
// (runDuration). Node monitors know the concrete task they launched, so
// the "remaining execution time of any long task that currently may be
// executing" (§3.7) tracks the real task rather than a stale estimate —
// without this, a server whose task overruns its estimate looks idle and
// attracts assignments while still busy. Callers without better knowledge
// may pass runDuration == estDuration.
//
//hawk:hotpath
func (q *CentralQueue) TaskStarted(nodeID int, now, estDuration, runDuration float64) {
	if q == nil || !q.tracks(nodeID) {
		return // node not tracked (e.g. outside the general partition)
	}
	q.advance(now)
	s := &q.states[nodeID]
	s.queued -= estDuration
	if s.queued < 0 {
		s.queued = 0
	}
	q.moveTo(nodeID, true, q.now+runDuration)
}

// TaskFinished records that the running task on nodeID completed at instant
// now, clearing the remaining-execution term.
//
//hawk:hotpath
func (q *CentralQueue) TaskFinished(nodeID int, now float64) {
	if q == nil || !q.tracks(nodeID) {
		return
	}
	q.advance(now)
	q.moveTo(nodeID, false, q.now)
}

// moveTo sets the server's runEnd and places it in the heap that now
// matches: running if requested and runEnd lies in the future, else idle.
//
//hawk:hotpath
func (q *CentralQueue) moveTo(nodeID int, running bool, runEnd float64) {
	s := &q.states[nodeID]
	was := s.inRun
	s.runEnd = runEnd
	s.inRun = running && runEnd > q.now
	if s.inRun == was {
		q.fix(nodeID)
		return
	}
	q.heap(was).remove(int(q.pos[nodeID]), q.pos)
	q.heap(s.inRun).push(heapEntry{key: s.key(), id: int32(nodeID)}, q.pos)
}

// fix refreshes the server's cached key and restores heap order around it.
//
//hawk:hotpath
func (q *CentralQueue) fix(nodeID int) {
	s := &q.states[nodeID]
	h := q.heap(s.inRun)
	i := int(q.pos[nodeID])
	(*h)[i].key = s.key()
	h.fix(i, q.pos)
}

// Remove stops tracking nodeID — the node left the cluster (failure or
// drain). Estimated work attributed to the server is discarded; the runtime
// re-routes the concrete tasks it knows were queued or running there. It
// reports whether the node was tracked. Rare-path: membership transitions,
// not assignment.
func (q *CentralQueue) Remove(nodeID int) bool {
	if !q.tracks(nodeID) {
		return false
	}
	s := &q.states[nodeID]
	q.heap(s.inRun).remove(int(q.pos[nodeID]), q.pos)
	*s = serverState{}
	q.count--
	return true
}

// Add starts (or resumes) tracking nodeID as an idle server with zero
// waiting time at instant now — the node joined or rejoined the cluster.
// It reports whether the node was newly added (false if already tracked or
// nodeID is negative). Rejoining an id within the tracked range allocates
// nothing.
func (q *CentralQueue) Add(nodeID int, now float64) bool {
	if nodeID < 0 || q.tracks(nodeID) {
		return false
	}
	q.advance(now)
	if grow := nodeID + 1 - len(q.states); grow > 0 {
		q.states = append(q.states, make([]serverState, grow)...)
		q.pos = append(q.pos, make([]int32, grow)...)
	}
	q.states[nodeID] = serverState{runEnd: q.now, tracked: true}
	q.idle.push(heapEntry{id: int32(nodeID)}, q.pos)
	q.count++
	return true
}

// MinWaiting returns the smallest waiting time across servers at instant
// now: the queueing delay the next assigned task would see.
func (q *CentralQueue) MinWaiting(now float64) float64 {
	if q.count == 0 {
		return 0
	}
	q.advance(now)
	return q.states[q.best()].waiting(q.now)
}

// Waiting returns the waiting time of a specific server at instant now, or
// -1 if the server is not tracked.
func (q *CentralQueue) Waiting(nodeID int, now float64) float64 {
	if !q.tracks(nodeID) {
		return -1
	}
	q.advance(now)
	return q.states[nodeID].waiting(q.now)
}

// Waitings returns the waiting time of every tracked server at instant now,
// in unspecified order. Intended for tests and introspection.
func (q *CentralQueue) Waitings(now float64) []float64 {
	q.advance(now)
	out := make([]float64, 0, q.count)
	for i := range q.states {
		if s := &q.states[i]; s.tracked {
			out = append(out, s.waiting(q.now))
		}
	}
	return out
}

// heapEntry is one heap slot: a server's cached ordering key and its node
// id. Heap sifts move and compare only these 16 bytes.
//
//hawk:size=16
//hawk:nopointers
type heapEntry struct {
	key float64
	id  int32
}

// less orders entries by (key, id). Node ids are unique within a queue, so
// this is a strict total order over a heap's members.
//
//hawk:hotpath
func (a heapEntry) less(b heapEntry) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.id < b.id
}

// entryHeap is an indexed binary min-heap of entries under heapEntry.less.
// The index, pos, is owned by the CentralQueue and shared by both of its
// heaps (a node sits in at most one), so every method that moves an entry
// takes it and records the entry's new slot there. Like internal/eventq's
// event heap it is hand-rolled rather than built on container/heap: the
// heap sits on CentralQueue.Assign's hot path, and container/heap both
// moves elements through interface{} and pays an indirect call per
// comparison and swap. Only the root is ever observed (best/advance), and
// the order is strict and total, so any valid heap arrangement yields
// identical scheduling decisions.
type entryHeap []heapEntry

//hawk:hotpath
func (h *entryHeap) push(e heapEntry, pos []int32) {
	*h = append(*h, e)
	h.siftUp(len(*h)-1, pos)
}

// remove deletes the entry in slot i.
//
//hawk:hotpath
func (h *entryHeap) remove(i int, pos []int32) {
	n := len(*h) - 1
	if i != n {
		(*h)[i] = (*h)[n]
	}
	*h = (*h)[:n]
	if i != n {
		h.fix(i, pos)
	}
}

// fix restores heap order around slot i after its key changed in place.
//
//hawk:hotpath
func (h entryHeap) fix(i int, pos []int32) {
	if !h.siftDown(i, pos) {
		h.siftUp(i, pos)
	}
}

// siftUp moves the entry in slot i toward the root, shifting each parent
// it passes down one level, and records every moved entry's slot in pos.
//
//hawk:hotpath
func (h entryHeap) siftUp(i int, pos []int32) {
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(h[parent]) {
			break
		}
		h[i] = h[parent]
		pos[h[i].id] = int32(i)
		i = parent
	}
	h[i] = e
	pos[e.id] = int32(i)
}

// siftDown reports whether it moved the entry, mirroring container/heap's
// down so fix sifts up only when no downward motion occurred.
//
//hawk:hotpath
func (h entryHeap) siftDown(i int, pos []int32) bool {
	start := i
	e := h[i]
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		j := left
		if right := left + 1; right < n && h[right].less(h[left]) {
			j = right
		}
		if !h[j].less(e) {
			break
		}
		h[i] = h[j]
		pos[h[i].id] = int32(i)
		i = j
	}
	h[i] = e
	pos[e.id] = int32(i)
	return i > start
}
