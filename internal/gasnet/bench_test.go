package gasnet

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// seedQueue reimplements the pre-ring inbox (a mutex around a slice, with
// a clock read on every drain, as the seed's poll loop did) so
// BenchmarkAMInjection can compare the lock-free fast path against the
// design it replaced without checking out old commits.
type seedQueue struct {
	mu      sync.Mutex
	pending []Msg
	scratch []Msg
}

func (q *seedQueue) push(m Msg) {
	q.mu.Lock()
	q.pending = append(q.pending, m)
	q.mu.Unlock()
}

func (q *seedQueue) drain(now int64) []Msg {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.pending) == 0 {
		return nil
	}
	n := 0
	for n < len(q.pending) && q.pending[n].readyAt <= now {
		n++
	}
	if n == 0 {
		return nil
	}
	q.scratch = append(q.scratch[:0], q.pending[:n]...)
	rem := copy(q.pending, q.pending[n:])
	for i := rem; i < len(q.pending); i++ {
		q.pending[i] = Msg{}
	}
	q.pending = q.pending[:rem]
	return q.scratch
}

// BenchmarkAMInjection measures the inbox injection+delivery cycle — the
// cost a rank pays per active message — for the lock-free ring and the
// seed's mutexed slice, in the three shapes the runtime produces:
//
//   - poll: one push, one drain — the latency-critical GUPS issue/poll
//     loop, where the seed paid two lock round trips plus a clock read
//     per message and the ring pays neither. The acceptance comparison.
//   - batch64: 64 pushes per drain — a throughput-bound fan-in.
//   - mpsc8: 8 producer goroutines against the consumer.
//
// The seed variants read the clock per drain exactly as the seed's Poll
// did (drain(nanotime())); the ring variants go through drainNow, which
// skips the clock for queues that never saw a release time.
func BenchmarkAMInjection(b *testing.B) {
	b.Run("ring/poll", func(b *testing.B) {
		var q amQueue
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q.push(Msg{A0: uint64(i)})
			q.drainNow()
		}
	})
	b.Run("mutex/poll", func(b *testing.B) {
		var q seedQueue
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q.push(Msg{A0: uint64(i)})
			q.drain(nanotime())
		}
	})
	b.Run("ring/batch64", func(b *testing.B) {
		var q amQueue
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q.push(Msg{A0: uint64(i)})
			if i&63 == 63 {
				q.drainNow()
			}
		}
		q.drainNow()
	})
	b.Run("mutex/batch64", func(b *testing.B) {
		var q seedQueue
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q.push(Msg{A0: uint64(i)})
			if i&63 == 63 {
				q.drain(nanotime())
			}
		}
		q.drain(nanotime())
	})
	b.Run("ring/mpsc8", func(b *testing.B) {
		var q amQueue
		benchMPSC(b, q.push, func() int { return len(q.drainNow()) })
	})
	b.Run("mutex/mpsc8", func(b *testing.B) {
		var q seedQueue
		benchMPSC(b, q.push, func() int { return len(q.drain(nanotime())) })
	})
}

// benchMPSC drives 8 producers against a single consumer until b.N
// messages are delivered. The consumer yields on an empty drain so the
// benchmark measures queue cost rather than scheduler starvation when
// GOMAXPROCS is small.
func benchMPSC(b *testing.B, push func(Msg), drain func() int) {
	const producers = 8
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		n := b.N / producers
		if p < b.N%producers {
			n++
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				push(Msg{A0: uint64(i)})
			}
		}(n)
	}
	delivered := 0
	for delivered < b.N {
		if n := drain(); n > 0 {
			delivered += n
		} else {
			runtime.Gosched()
		}
	}
	wg.Wait()
}

// BenchmarkUDPCoalesce measures delivering an 8-message fan-in over the
// UDP conduit, one datagram per message versus one coalesced burst. ns/op
// covers all 8 messages (injection, kernel round trip, dispatch).
func BenchmarkUDPCoalesce(b *testing.B) {
	run := func(b *testing.B, burst bool) {
		d, err := NewDomain(Config{Ranks: 2, Conduit: UDP})
		if err != nil {
			b.Fatal(err)
		}
		defer d.Close()
		received := 0
		d.RegisterHandler(HandlerUserBase, func(*Endpoint, *Msg) { received++ })
		ep0, ep1 := d.Endpoint(0), d.Endpoint(1)
		payload := []byte("collective token payload")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if burst {
				ep0.BeginBurst()
			}
			for k := 0; k < 8; k++ {
				ep0.Send(1, Msg{Handler: HandlerUserBase, A0: uint64(k), Payload: payload})
			}
			if burst {
				ep0.EndBurst()
			}
			deadline := time.Now().Add(5 * time.Second)
			for received < (i+1)*8 {
				if ep1.Poll() == 0 {
					// Block on the endpoint's wake channel rather than
					// spinning: a spinning poller keeps the runqueue
					// non-empty, so the scheduler never runs the
					// netpoller and the reader goroutine starves for a
					// whole preemption quantum on small GOMAXPROCS.
					ep1.Park()
					if time.Now().After(deadline) {
						b.Fatalf("iteration %d: delivered %d", i, received)
					}
				}
			}
		}
		b.StopTimer()
		s := d.Stats()
		b.ReportMetric(float64(s.DatagramsSent)/float64(b.N), "datagrams/op")
		// Syscalls per burst, from the vectorized-datapath counters (zero
		// on the sequential fallback): the burst variant's 8→1 datagram
		// coalescing should show up again as syscall amortization.
		b.ReportMetric(float64(s.SendmmsgCalls)/float64(b.N), "sendmmsg/op")
		b.ReportMetric(float64(s.RecvmmsgCalls)/float64(b.N), "recvmmsg/op")
	}
	b.Run("single", func(b *testing.B) { run(b, false) })
	b.Run("burst8", func(b *testing.B) { run(b, true) })
}
