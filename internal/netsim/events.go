package netsim

// Event kinds.
const (
	evStart   uint8 = iota // a flow begins (idx = flow)
	evTxDone               // a link finished serializing pkt (idx = link)
	evDeliver              // pkt arrives after propagation
	evRTO                  // a flow's retransmission timer fires (idx = flow)
	evFault                // the next batch of scheduled fault events applies
	evReroute              // a time-varying routing phase boundary is reached
)

// event is one scheduled occurrence. seq breaks time ties so the event
// order (and hence the whole simulation) is deterministic. The struct is
// pointer-free (pkt is an index into the packet store), so moving events
// through the queue costs no GC write barriers.
type event struct {
	t    int64
	seq  uint64
	idx  int32
	pkt  int32
	kind uint8
}

// eventQueue pops events in exact (t, seq) order. It merges a small
// binary heap with one FIFO lane per fixed delay d: events pushed d after
// a non-decreasing clock, with increasing seq, arrive already sorted, so a
// lane's head is its minimum and pushing costs O(1). Only events whose
// delay matches no lane (flow starts, faults, reroutes, backed-off RTOs,
// partial segments, degraded-rate transmissions) pay for the heap.
type eventQueue struct {
	lanes []lane
	heap  []event
	n     int
}

// lane is a growable ring buffer of events that share one delay.
type lane struct {
	d    int64
	buf  []event // len is a power of two
	head int
	n    int
}

// laneInitSlots is the initial ring size of a lane; lanes double on
// demand. The MinRTO lane instead starts at two slots per flow: every ACK
// re-arms its flow's timer MinRTO ahead, so that lane holds far more
// pending (mostly stale) timers than the others.
const laneInitSlots = 64

// initQueue sizes the event queue for a run of nFlows flows: a heap with
// room for every flow start, and one lane per distinct delay most events
// are scheduled after — the link and host propagation delays, the minimum
// RTO, and the serialization times of a full segment and an ACK at link
// and host rate.
func (s *Simulator) initQueue(nFlows int) {
	c := s.cfg
	rto := int64(c.MinRTO)
	netLink := link{bytesPerNS: c.LinkRateBps / 8 / 1e9}
	hostLink := link{bytesPerNS: c.hostRate() / 8 / 1e9}
	seg, ack := int32(c.MSS+c.HeaderBytes), int32(c.AckBytes)
	delays := [...]int64{c.LinkDelayNS, c.hostDelay(), rto,
		netLink.txTimeNS(seg), netLink.txTimeNS(ack), hostLink.txTimeNS(seg), hostLink.txTimeNS(ack)}
	q := &s.events
	q.heap = make([]event, 0, nFlows+64)
	q.lanes = make([]lane, 0, len(delays))
	for _, d := range delays {
		if q.lane(d) != nil {
			continue
		}
		n := laneInitSlots
		for d == rto && n < 2*nFlows {
			n *= 2
		}
		q.lanes = append(q.lanes, lane{d: d, buf: make([]event, n)})
	}
}

// lane returns the lane for delay d, or nil when d has none.
func (q *eventQueue) lane(d int64) *lane {
	for i := range q.lanes {
		if q.lanes[i].d == d {
			return &q.lanes[i]
		}
	}
	return nil
}

//lint:hotpath
func (l *lane) push(ev event) {
	if l.n == len(l.buf) {
		l.grow()
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = ev
	l.n++
}

// grow doubles the ring, unrolling it so the head lands at slot 0.
func (l *lane) grow() {
	buf := make([]event, 2*len(l.buf)) //lint:allow hotpath (ring growth: doubling, amortized away)
	k := copy(buf, l.buf[l.head:])
	copy(buf[k:], l.buf[:l.head])
	l.buf, l.head = buf, 0
}

//lint:hotpath
func heapPush(h *[]event, ev event) {
	*h = append(*h, ev)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less((*h)[i], (*h)[parent]) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

//lint:hotpath
func heapPop(h *[]event) event {
	top := (*h)[0]
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	*h = (*h)[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && less((*h)[l], (*h)[smallest]) {
			smallest = l
		}
		if r < last && less((*h)[r], (*h)[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}

// push schedules ev at its absolute time ev.t on the heap.
//
//lint:hotpath
func (s *Simulator) push(ev event) {
	ev.seq = s.nextSeq()
	heapPush(&s.events.heap, ev)
	s.events.n++
}

// pushAfter schedules ev d nanoseconds from now and returns its seq. It
// appends to the lane for d when there is one, so the order is the same
// as if every event went through the heap.
//
//lint:hotpath
func (s *Simulator) pushAfter(d int64, ev event) uint64 {
	ev.t = s.now + d
	ev.seq = s.nextSeq()
	q := &s.events
	q.n++
	if l := q.lane(d); l != nil {
		l.push(ev)
	} else {
		heapPush(&q.heap, ev)
	}
	return ev.seq
}

// pop removes and returns the (t, seq)-smallest pending event among the
// lane heads and the heap top. The queue must not be empty.
//
//lint:hotpath
func (s *Simulator) pop() event {
	q := &s.events
	q.n--
	best := -1 // lane index; -1 is the heap
	have := len(q.heap) > 0
	var top event
	if have {
		top = q.heap[0]
	}
	for i := range q.lanes {
		l := &q.lanes[i]
		if l.n == 0 {
			continue
		}
		if h := l.buf[l.head]; !have || less(h, top) {
			top, best, have = h, i, true
		}
	}
	if best < 0 {
		return heapPop(&q.heap)
	}
	l := &q.lanes[best]
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	return top
}

func less(a, b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

func (s *Simulator) nextSeq() uint64 {
	s.seqCounter++
	return s.seqCounter
}
