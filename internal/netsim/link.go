package netsim

// packet is one frame in flight. Packets are pooled; never retain one after
// handing it back to the simulator.
type packet struct {
	id       int32 // index in the simulator's packet store
	flow     int32
	hop      int32
	wireSize int32 // bytes on the wire
	payload  int32 // data bytes carried (0 for ACKs)
	isAck    bool
	ce       bool  // data: congestion-experienced mark; ack: echoed mark
	pooled   bool  // in the free pool — set by free, cleared by alloc
	seq      int64 // data: first payload byte; ack: cumulative ack
	echo     int64 // data: send timestamp; ack: echoed timestamp
	links    []int32
	qnext    *packet // intrusive link-FIFO chain; nil when not queued
}

// link is one directed egress port: a drop-tail FIFO feeding a transmitter.
// Fault injection can mark a link down (packets blackhole), degrade its rate
// (bytesPerNS drops below nominalBytesPerNS) or make it gray (random loss).
// The FIFO is an intrusive list threaded through packet.qnext, so queueing
// never allocates — the former []*packet ring was the simulator's largest
// steady-state allocation source.
type link struct {
	bytesPerNS        float64
	nominalBytesPerNS float64
	delayNS           int64
	capBytes          int64

	down     bool
	lossProb float64

	queueBytes int64
	qHead      *packet // next to transmit
	qTail      *packet
	qCount     int
	busy       bool

	drops   uint64
	txBytes uint64
}

func (l *link) txTimeNS(wire int32) int64 {
	return int64(float64(wire)/l.bytesPerNS + 0.5)
}

// push appends p to the queue, returning false (drop) on overflow.
func (l *link) push(p *packet) bool {
	if l.queueBytes+int64(p.wireSize) > l.capBytes {
		l.drops++
		return false
	}
	l.queueBytes += int64(p.wireSize)
	p.qnext = nil
	if l.qTail == nil {
		l.qHead = p
	} else {
		l.qTail.qnext = p
	}
	l.qTail = p
	l.qCount++
	return true
}

// pop removes the head of the queue.
func (l *link) pop() *packet {
	p := l.qHead
	l.qHead = p.qnext
	if l.qHead == nil {
		l.qTail = nil
	}
	p.qnext = nil
	l.qCount--
	l.queueBytes -= int64(p.wireSize)
	return p
}

func (l *link) queued() int { return l.qCount }
