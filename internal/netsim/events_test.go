package netsim

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
	"unsafe"
)

// TestEventQueueMatchesReferenceOrder drives the lane+heap queue with
// random push/pushAfter/pop sequences, advancing now to each popped event
// as Run does, and checks every pop against a reference: the (t, seq)
// minimum of all pending events. Tiny rings force wrap-around and growth
// while lanes are non-empty; delays 3 and 13 match no lane and go to the
// heap; absolute pushes land on the same instants as lane events, so
// lane/lane and lane/heap ties at equal t are frequent.
func TestEventQueueMatchesReferenceOrder(t *testing.T) {
	// The reference minimum, written out rather than reusing less.
	refMin := func(evs []event) int {
		best := 0
		for i, e := range evs {
			if b := evs[best]; e.t < b.t || e.t == b.t && e.seq < b.seq {
				best = i
			}
		}
		return best
	}
	var wraps, grows, refills int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := &Simulator{}
		s.events.lanes = []lane{
			{d: 7, buf: make([]event, 1)},
			{d: 10, buf: make([]event, 2)},
			{d: 0, buf: make([]event, 4)},
		}
		pushedBefore := make([]bool, len(s.events.lanes))
		delays := []int64{0, 3, 7, 7, 10, 10, 13}
		var pending []event
		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(10); {
			case op < 3 && len(pending) > 0:
				got := s.pop()
				best := refMin(pending)
				want := pending[best]
				pending = append(pending[:best], pending[best+1:]...)
				if got != want {
					t.Fatalf("seed %d step %d: popped %+v, reference %+v", seed, step, got, want)
				}
				if got.t < s.now {
					t.Fatalf("seed %d step %d: time went backwards", seed, step)
				}
				s.now = got.t
			case op < 5:
				ev := event{t: s.now + int64(rng.Intn(15)), kind: evFault, idx: int32(step)}
				s.push(ev)
				ev.seq = s.seqCounter
				pending = append(pending, ev)
			default:
				d := delays[rng.Intn(len(delays))]
				for i := range s.events.lanes {
					l := &s.events.lanes[i]
					if l.d != d {
						continue
					}
					if l.n > 0 && l.n < len(l.buf) && l.head+l.n >= len(l.buf) {
						wraps++
					}
					if l.n == len(l.buf) {
						grows++
					}
					if l.n == 0 && pushedBefore[i] {
						refills++
					}
					pushedBefore[i] = true
				}
				ev := event{kind: evDeliver, pkt: int32(step)}
				seq := s.pushAfter(d, ev)
				ev.t, ev.seq = s.now+d, seq
				pending = append(pending, ev)
			}
			if s.events.n != len(pending) {
				t.Fatalf("seed %d step %d: queue holds %d events, reference %d", seed, step, s.events.n, len(pending))
			}
		}
		for len(pending) > 0 {
			best := refMin(pending)
			if got := s.pop(); got != pending[best] {
				t.Fatalf("seed %d drain: popped %+v, reference %+v", seed, got, pending[best])
			}
			pending = append(pending[:best], pending[best+1:]...)
		}
	}
	if wraps == 0 || grows == 0 || refills == 0 {
		t.Fatalf("coverage gap: %d wrapped pushes, %d growths, %d refills", wraps, grows, refills)
	}
}

// TestInitQueueLanes checks the lane set Run derives from Config: one lane
// per distinct fixed delay, duplicates merged.
func TestInitQueueLanes(t *testing.T) {
	delays := func(cfg Config) []int64 {
		s := &Simulator{cfg: cfg}
		s.initQueue(10)
		var out []int64
		for _, l := range s.events.lanes {
			out = append(out, l.d)
		}
		return out
	}
	// 10 Gbps: a 1500 B segment serializes in 1200 ns, a 40 B ACK in 32 ns;
	// the host links match the network links and share their lanes.
	if got, want := delays(DefaultConfig()), []int64{1000, 1_000_000, 1200, 32}; !reflect.DeepEqual(got, want) {
		t.Fatalf("default lanes %v, want %v", got, want)
	}
	cfg := DefaultConfig()
	cfg.HostRateBps = 25e9
	cfg.HostDelayNS = 500
	cfg.MinRTO = 2 * time.Millisecond
	if got, want := delays(cfg), []int64{1000, 500, 2_000_000, 1200, 32, 480, 13}; !reflect.DeepEqual(got, want) {
		t.Fatalf("host-rate lanes %v, want %v", got, want)
	}
}

// TestEventIsPointerFree pins the event layout: 32 bytes and no pointers,
// so queue moves cost no GC write barriers.
func TestEventIsPointerFree(t *testing.T) {
	if sz := unsafe.Sizeof(event{}); sz != 32 {
		t.Fatalf("event is %d bytes, want 32", sz)
	}
	typ := reflect.TypeOf(event{})
	for i := 0; i < typ.NumField(); i++ {
		switch typ.Field(i).Type.Kind() {
		case reflect.Int64, reflect.Uint64, reflect.Int32, reflect.Uint8:
		default:
			t.Fatalf("event field %s has kind %s; events must stay pointer-free",
				typ.Field(i).Name, typ.Field(i).Type.Kind())
		}
	}
}
