package gasnet

import (
	"errors"
	"net"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"
)

func TestUDPConduitTopology(t *testing.T) {
	d := newTestDomain(t, Config{Ranks: 4, Conduit: UDP})
	defer d.Close()
	// All ranks co-located; locality dynamic.
	if !d.Endpoint(0).Local(3) {
		t.Error("UDP ranks must be co-located")
	}
	if d.Config().StaticLocal() {
		t.Error("UDP locality is dynamic")
	}
	if d.Config().Conduit.String() != "udp" {
		t.Error("name wrong")
	}
	if c, err := ParseConduit("udp"); err != nil || c != UDP {
		t.Error("ParseConduit(udp) failed")
	}
}

func TestUDPWireDelivery(t *testing.T) {
	d := newTestDomain(t, Config{Ranks: 2, Conduit: UDP})
	defer d.Close()
	var got []uint64
	d.RegisterHandler(HandlerUserBase, func(ep *Endpoint, m *Msg) {
		got = append(got, m.A0)
		if string(m.Payload) != "over the wire" {
			t.Errorf("payload %q", m.Payload)
		}
	})
	for i := uint64(1); i <= 3; i++ {
		d.Endpoint(0).Send(1, Msg{
			Handler: HandlerUserBase,
			A0:      i,
			Payload: []byte("over the wire"),
		})
	}
	ep1 := d.Endpoint(1)
	deadline := time.Now().Add(2 * time.Second)
	for len(got) < 3 && time.Now().Before(deadline) {
		ep1.Poll()
	}
	if len(got) != 3 {
		t.Fatalf("delivered %d of 3", len(got))
	}
	// Loopback UDP from a single sender socket preserves order in
	// practice; assert all values arrived (set equality) rather than
	// order, since UDP makes no promise.
	seen := map[uint64]bool{}
	for _, v := range got {
		seen[v] = true
	}
	if !seen[1] || !seen[2] || !seen[3] {
		t.Errorf("values %v", got)
	}
}

func TestUDPClosureFallback(t *testing.T) {
	d := newTestDomain(t, Config{Ranks: 2, Conduit: UDP})
	defer d.Close()
	ran := false
	d.RegisterHandler(HandlerUserBase, func(ep *Endpoint, m *Msg) { m.Fn(ep) })
	d.Endpoint(0).Send(1, Msg{Handler: HandlerUserBase, Fn: func(*Endpoint) { ran = true }})
	deadline := time.Now().Add(time.Second)
	for !ran && time.Now().Before(deadline) {
		d.Endpoint(1).Poll()
	}
	if !ran {
		t.Error("closure message lost on UDP conduit")
	}
}

func TestUDPSelfSend(t *testing.T) {
	d := newTestDomain(t, Config{Ranks: 1, Conduit: UDP})
	defer d.Close()
	got := false
	d.RegisterHandler(HandlerUserBase, func(*Endpoint, *Msg) { got = true })
	d.Endpoint(0).Send(0, Msg{Handler: HandlerUserBase})
	deadline := time.Now().Add(time.Second)
	for !got && time.Now().Before(deadline) {
		d.Endpoint(0).Poll()
	}
	if !got {
		t.Error("self-send lost")
	}
}

func TestUDPCloseIdempotent(t *testing.T) {
	d := newTestDomain(t, Config{Ranks: 2, Conduit: UDP})
	d.Close()
	d.Close() // must not panic or deadlock
}

// TestUDPOversizedPayloadPanics: an oversized payload panics at Send, and
// the panic leaves the sender's staging usable — a later Send is
// delivered and Close returns.
func TestUDPOversizedPayloadPanics(t *testing.T) {
	d := newTestDomain(t, Config{Ranks: 2, Conduit: UDP})
	got := 0
	d.RegisterHandler(HandlerUserBase, func(*Endpoint, *Msg) { got++ })
	ep0, ep1 := d.Endpoint(0), d.Endpoint(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("oversized payload should panic")
			}
		}()
		ep0.Send(1, Msg{
			Handler: HandlerUserBase,
			Payload: make([]byte, maxUDPPayload+1),
		})
	}()

	ep0.Send(1, Msg{Handler: HandlerUserBase})
	ep0.Flush()
	deadline := time.Now().Add(10 * time.Second)
	for got == 0 && time.Now().Before(deadline) {
		if ep1.Poll() == 0 {
			ep1.Park()
		}
	}
	if got != 1 {
		t.Errorf("send after the panic delivered %d times, want 1", got)
	}
	closed := make(chan struct{})
	go func() {
		d.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung after an oversized-payload panic")
	}
}

// TestUnsequencedFrameDropped: payload travels only inside sequenced
// frames, so a bare frameSingle/frameBatch arriving on a socket — which
// would reach the inbox past the incarnation gate, duplicate suppression
// and sequencing — is a counted decode error: the handler never runs and
// the sender is not "heard". A sequenced message afterwards is the
// control showing both observations can move.
func TestUnsequencedFrameDropped(t *testing.T) {
	m := Msg{Handler: HandlerUserBase, From: 0, A0: 7}
	enc := encodeMsg(nil, &m)
	single := append([]byte{frameSingle}, enc...)
	batch := append([]byte{frameBatch, 1, 0, byte(len(enc)), 0, 0, 0}, enc...)
	for name, bare := range map[string][]byte{"single": single, "batch": batch} {
		t.Run(name, func(t *testing.T) {
			// An hour between heartbeat rounds: the detector's logical clock
			// moves only by this test's hand, and nothing but rank 0's own
			// frames can refresh rank 1's record of it.
			d := newTestDomain(t, Config{Ranks: 2, Conduit: UDP,
				Fault: &FaultConfig{}, HeartbeatEvery: time.Hour})
			defer d.Close()
			ran := 0
			d.RegisterHandler(HandlerUserBase, func(*Endpoint, *Msg) { ran++ })
			ep0, ep1 := d.Endpoint(0), d.Endpoint(1)
			d.eps[1].host.deliver(0, event{kind: evRound, n: 5})
			p := d.peer(1, 0)
			heardRound := func() int64 {
				p.mu.Lock()
				defer p.mu.Unlock()
				return p.lc.heardRound
			}

			if _, err := d.eps[0].host.send.WriteToUDPAddrPort(bare, d.udp.addrOf(1)); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(2 * time.Second)
			for d.Stats().DecodeErrors == 0 && ran == 0 && time.Now().Before(deadline) {
				ep1.Poll()
			}
			if ran != 0 {
				t.Fatal("bare frame was dispatched")
			}
			if n := d.Stats().DecodeErrors; n != 1 {
				t.Fatalf("DecodeErrors = %d, want 1", n)
			}
			if r := heardRound(); r != 0 {
				t.Errorf("bare frame refreshed heardRound to %d", r)
			}

			ep0.Send(1, m)
			for ran == 0 && time.Now().Before(deadline) {
				ep1.Poll()
			}
			if ran != 1 || heardRound() != 5 {
				t.Errorf("sequenced control: ran %d (want 1), heardRound %d (want 5)", ran, heardRound())
			}
		})
	}
}

// failOnceConn is a socket adapter whose next payload-carrying write,
// once armed, fails without reaching the wire.
type failOnceConn struct {
	batchConn
	armed atomic.Bool
}

var errInjectedWrite = errors.New("injected socket write failure")

func payloadFrame(b []byte) bool { return len(b) > relHeaderLen && b[0] == frameSeq }

func (c *failOnceConn) WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error) {
	if payloadFrame(b) && c.armed.CompareAndSwap(true, false) {
		return 0, errInjectedWrite
	}
	return c.batchConn.WriteToUDPAddrPort(b, addr)
}

func (c *failOnceConn) WriteBatch(frames []batchFrame) error {
	for _, fr := range frames {
		if payloadFrame(fr.b) && c.armed.CompareAndSwap(true, false) {
			return errInjectedWrite
		}
	}
	return c.batchConn.WriteBatch(frames)
}

// TestSendErrorIsRepairedLoss: a failed socket write — single-frame or
// vectorized, in-process world or not — is wire loss, not a panic: it is
// counted, the frame stays in the retransmission queue, and the put
// completes off a retransmission.
func TestSendErrorIsRepairedLoss(t *testing.T) {
	for _, burst := range []bool{false, true} {
		name := "writeFrame"
		if burst {
			name = "writeBatch"
		}
		t.Run(name, func(t *testing.T) {
			var rank0 *failOnceConn // sockets are built in rank order
			d, err := newDomain(Config{Ranks: 2, Conduit: UDP, Fault: &FaultConfig{}},
				func(c *net.UDPConn, d *Domain) batchConn {
					fc := &failOnceConn{batchConn: newBatchConn(c, d)}
					if rank0 == nil {
						rank0 = fc
					}
					return fc
				})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			ep0, ep1 := d.Endpoint(0), d.Endpoint(1)
			var done bool
			var failed error
			rank0.armed.Store(true)
			if burst {
				ep0.BeginBurst()
			}
			ep0.PutRemote(1, 0, []byte("survives a failed write"), nil, func(err error) {
				done, failed = true, err
			})
			if burst {
				ep0.EndBurst()
			}
			deadline := time.Now().Add(10 * time.Second)
			for !done && time.Now().Before(deadline) {
				ep1.Poll()
				if ep0.Poll() == 0 {
					ep0.Park()
				}
			}
			if !done || failed != nil {
				t.Fatalf("put done=%v err=%v", done, failed)
			}
			s := d.Stats()
			if s.SendErrors != 1 {
				t.Errorf("SendErrors = %d, want 1", s.SendErrors)
			}
			if s.Retransmits < 1 {
				t.Errorf("Retransmits = %d, want >= 1", s.Retransmits)
			}
		})
	}
}
