package gasnet

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// amQueue is a multi-producer single-consumer queue of inbound active
// messages for one endpoint. Producers are any rank's goroutine (plus, on
// the UDP conduit, whichever goroutine reads the socket); the sole
// consumer is the owning rank's progress engine.
//
// The fast path is a bounded lock-free ring (ring.go): a push costs one CAS
// and two stores, no mutex, no allocation, no clock read. When the ring is
// full the push spills to a mutex-guarded backlog slice; a sticky spill
// flag then routes *every* producer to the backlog until the consumer has
// drained it, which is what preserves per-producer FIFO order across the
// ring→backlog→ring transitions (a producer's later message may never
// overtake its earlier one by landing in the ring while the earlier one
// still waits in the backlog).
//
// Messages may carry a readyAt release time (SIM conduit wire latency); a
// message is not delivered before that time. Because every sender-receiver
// pair experiences the same constant latency and release times are stamped
// from a monotone cached clock, they are monotone in arrival order per
// producer and a FIFO prefix scan suffices. Queues that have never seen a
// timed message (every conduit but SIM) skip clock reads entirely: drain
// compares against a literal zero.
type amQueue struct {
	ring onceRing

	// timed is set (sticky) by the first push carrying a release time;
	// until then drains never read the clock.
	timed atomic.Bool

	// spilled is true while the backlog holds messages; it routes all
	// producers to the backlog, preserving per-producer FIFO.
	spilled atomic.Bool

	mu      sync.Mutex
	backlog []Msg

	scratch []Msg // drain buffer, reused across polls; see drain's contract

	// fastPushes counts entries delivered through the lock-free ring;
	// spills counts entries that overflowed into the backlog. fastPushes
	// is tallied on the consumer side (batched per drain) so the producer
	// fast path carries no shared counter traffic.
	fastPushes atomic.Int64
	spills     atomic.Int64
}

// push enqueues a message. It is the producer side of message delivery and
// may be called from any goroutine.
func (q *amQueue) push(m Msg) {
	if m.readyAt != 0 && !q.timed.Load() {
		q.timed.Store(true)
	}
	if !q.spilled.Load() && q.ring.get().push(m) {
		return
	}
	q.spills.Add(1)
	q.mu.Lock()
	q.backlog = append(q.backlog, m)
	q.spilled.Store(true)
	q.mu.Unlock()
}

// drain moves all deliverable messages (readyAt <= now) into the returned
// slice. It returns nil when nothing is deliverable.
//
// Ownership contract: the returned slice and the Msg values in it are
// owned by the caller ONLY until the next drain call on this queue — the
// backing array is reused. Callers that keep a message beyond that point
// (Endpoint.PollInternal's held set, collective matching tables) must copy
// the Msg value, and anything retaining Payload bytes past the enclosing
// dispatch must copy those too (the payload may alias a pooled wire
// buffer that is recycled after dispatch). TestDrainScratchOwnership
// pins this contract.
func (q *amQueue) drain(now int64) []Msg {
	q.scratch = q.scratch[:0]
	r := q.ring.get()
	var blocked bool
	q.scratch, blocked = r.drainInto(q.scratch, now)
	if n := len(q.scratch); n > 0 {
		q.fastPushes.Add(int64(n))
	}
	// The backlog holds messages appended after their producers' earlier
	// ring messages were published; only consult it once those are
	// collected. If the head of the ring is merely not deliverable yet
	// (blocked), the backlog's messages cannot be deliverable either for
	// the same producer, and skipping it keeps the reasoning simple for
	// all producers.
	if !blocked && q.spilled.Load() {
		q.mu.Lock()
		// Overflow-ordering fence: the sweep above may have raced ahead
		// of a publication that nonetheless happened before some backlog
		// append (producer order: ring push, then — once full — spill).
		// Under the lock, which excludes new backlog appends, sweep again
		// up to the tail observed now, waiting out any reservation that
		// is mid-publication, so the backlog can never overtake a ring
		// message from the same producer.
		tail := r.tail.Load()
		for !blocked && r.head != tail {
			m, ok, stalled := r.pop(now)
			switch {
			case ok:
				q.scratch = append(q.scratch, m)
				q.fastPushes.Add(1)
			case stalled:
				blocked = true
			default:
				runtime.Gosched() // producer mid-publish; finite wait
			}
		}
		if !blocked {
			n := 0
			for n < len(q.backlog) && q.backlog[n].readyAt <= now {
				n++
			}
			if n > 0 {
				q.scratch = append(q.scratch, q.backlog[:n]...)
				rem := copy(q.backlog, q.backlog[n:])
				for i := rem; i < len(q.backlog); i++ {
					q.backlog[i] = Msg{}
				}
				q.backlog = q.backlog[:rem]
			}
			if len(q.backlog) == 0 {
				// Producers may return to the ring: everything they had
				// enqueued before is in flight to the consumer already.
				q.spilled.Store(false)
			}
		}
		q.mu.Unlock()
	}
	if len(q.scratch) == 0 {
		return nil
	}
	return q.scratch
}

// drainNow drains using the cheapest clock that is correct for this
// queue's history: queues that never carried a release time compare
// against zero (no clock read at all); timed queues refresh the shared
// cached clock once per drain.
func (q *amQueue) drainNow() []Msg {
	if !q.timed.Load() {
		return q.drain(0)
	}
	return q.drain(clockRefresh())
}

// empty reports whether the queue holds no messages at all (deliverable or
// not).
func (q *amQueue) empty() bool {
	if !q.ring.get().empty() {
		return false
	}
	return !q.spilled.Load()
}

// --- cached wall clock ---

// wallClock caches time.Now().UnixNano() so that hot paths (SIM release
// stamping) read an atomic instead of making a clock syscall per push. It
// only ever advances. Consumers refresh it: every drain of a timed queue,
// every Park, and Domain construction. The staleness window is therefore
// one poll interval — release times stamped from a slightly stale clock
// release slightly early, which is a simulation-accuracy blip, never a
// correctness issue (delivery order per producer is preserved because the
// cache is monotone).
var wallClock atomic.Int64

// clockNow returns the cached clock, initialising it on first use.
func clockNow() int64 {
	if t := wallClock.Load(); t != 0 {
		return t
	}
	return clockRefresh()
}

// clockRefresh advances the cached clock to the real time (monotone: it
// never moves the cache backwards) and returns the freshest value known.
func clockRefresh() int64 {
	t := time.Now().UnixNano()
	for {
		cur := wallClock.Load()
		if cur >= t {
			return cur
		}
		if wallClock.CompareAndSwap(cur, t) {
			return t
		}
	}
}

// nanotime returns the current time in nanoseconds. Tests use it to build
// explicit release times; the runtime paths prefer clockNow/clockRefresh.
func nanotime() int64 { return time.Now().UnixNano() }
