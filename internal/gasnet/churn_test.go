package gasnet

// Churn units: epoch-based readmission exercised inside one test process.
// A "restart" here is closeAbrupt (teardown with no goodbye frame — the
// kill -9 shape) followed by a fresh Domain for the same rank under a
// bumped incarnation and the Rejoin flag, exactly what a relaunched
// process gets from the rendezvous server's rejoin path.

import (
	"bytes"
	"errors"
	"net"
	"net/netip"
	"testing"
	"time"

	"gupcxx/internal/obs"
)

// newChurnWorld is newMultiprocWorld with the liveness clock sped up for
// kill/restart cycles; it also returns the peer table so restarts can
// splice in a fresh socket. bus, when non-nil, is attached to rank 0 so
// tests can assert the churn event vocabulary.
func newChurnWorld(t testing.TB, n int, bus *obs.Bus) ([]*Domain, []netip.AddrPort) {
	t.Helper()
	conns := make([]*net.UDPConn, n)
	peers := make([]netip.AddrPort, n)
	for i := range conns {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatalf("bind rank %d: %v", i, err)
		}
		conns[i] = c
		peers[i] = c.LocalAddr().(*net.UDPAddr).AddrPort()
	}
	doms := make([]*Domain, n)
	for i := range doms {
		var b *obs.Bus
		if i == 0 {
			b = bus
		}
		doms[i] = newChurnDomain(t, n, i, peers, conns[i], churnEpoch, false, b)
	}
	return doms, peers
}

const churnEpoch = 7

func newChurnDomain(t testing.TB, n, self int, peers []netip.AddrPort, conn *net.UDPConn, epoch uint32, rejoin bool, bus *obs.Bus) *Domain {
	t.Helper()
	d, err := NewDomain(Config{
		Ranks:          n,
		Conduit:        UDP,
		Multiproc:      true,
		Self:           self,
		Epoch:          epoch,
		Rejoin:         rejoin,
		Peers:          peers,
		SelfConn:       conn,
		Events:         bus,
		SegmentBytes:   1 << 16,
		HeartbeatEvery: 2 * time.Millisecond,
		SuspectAfter:   20 * time.Millisecond,
		DownAfter:      80 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("domain rank %d: %v", self, err)
	}
	t.Cleanup(d.Close)
	return d
}

// closeAbrupt tears a domain down without announcing departure — no
// goodbye frame, the in-process stand-in for kill -9. The peers are left
// to discover the death by silence.
func closeAbrupt(d *Domain) {
	d.rel.shutdown()
	d.udp.close()
	d.rel.drainState()
}

// restartRank binds a fresh socket for rank r and boots its replacement
// domain under a bumped incarnation with the Rejoin flag — the in-process
// equivalent of the launcher respawning the process and the rendezvous
// server bumping the epoch.
func restartRank(t testing.TB, n, r int, peers []netip.AddrPort, epoch uint32) (*Domain, []netip.AddrPort) {
	t.Helper()
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatalf("rebind rank %d: %v", r, err)
	}
	np := append([]netip.AddrPort(nil), peers...)
	np[r] = c.LocalAddr().(*net.UDPAddr).AddrPort()
	return newChurnDomain(t, n, r, np, c, epoch, true, nil), np
}

// spinDoms polls the self endpoint of every listed domain until cond
// holds — spinWorld restricted to the domains still alive.
func spinDoms(t testing.TB, doms []*Domain, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("churn spin timed out")
		}
		for _, d := range doms {
			d.Endpoint(d.Config().Self).Poll()
		}
	}
}

// TestChurnReadmission is the core Down→Readmitted cycle: rank 1 dies
// abruptly, rank 0 fails the op in flight against the dead incarnation
// with ErrPeerUnreachable, the restarted rank 1 rejoins under a bumped
// incarnation, rank 0 readmits it (counted, with fully reset pair
// state), and puts flow both directions afterwards.
func TestChurnReadmission(t *testing.T) {
	bus := obs.NewBus(0)
	sub := bus.Subscribe()
	defer sub.Close()
	doms, peers := newChurnWorld(t, 2, bus)
	ep0 := doms[0].Endpoint(0)

	// Healthy warmup: a put each way proves the pair works.
	var warm bool
	ep0.PutRemote(1, 0, []byte("warm"), nil, func(err error) {
		if err != nil {
			t.Errorf("warmup put: %v", err)
		}
		warm = true
	})
	spinDoms(t, doms, func() bool { return warm })

	// Kill rank 1 without a goodbye, then race an op against the corpse:
	// it must fail with ErrPeerUnreachable once silence buries the peer —
	// never hang, never silently retarget a later incarnation.
	closeAbrupt(doms[1])
	var deadErr error
	var deadDone bool
	ep0.PutRemote(1, 0, []byte("into the void"), nil, func(err error) {
		deadErr = err
		deadDone = true
	})
	alive := doms[:1]
	spinDoms(t, alive, func() bool { return deadDone })
	if !errors.Is(deadErr, ErrPeerUnreachable) {
		t.Fatalf("op against dead incarnation resolved with %v, want ErrPeerUnreachable", deadErr)
	}
	if !ep0.PeerDown(1) {
		t.Fatal("rank 1 not marked down after abrupt death")
	}
	if doms[0].Stats().PeersDown == 0 {
		t.Error("death not counted")
	}

	// Restart rank 1 under a bumped incarnation; its join announcements
	// must clear Down at rank 0 and reset the pair.
	d1b, _ := restartRank(t, 2, 1, peers, churnEpoch+1)
	world := []*Domain{doms[0], d1b}
	spinDoms(t, world, func() bool {
		return !ep0.PeerDown(1) && doms[0].Stats().PeersReadmitted >= 1
	})
	if got := doms[0].IncarnationOf(0, 1); got != churnEpoch+1 {
		t.Errorf("recorded incarnation %d, want %d", got, churnEpoch+1)
	}
	// The transition is an event, payload naming both incarnations.
	evs, ok := waitForEvent(sub, obs.EvPeerReadmitted, nil)
	if !ok {
		t.Fatal("no EvPeerReadmitted on the bus")
	}
	for _, ev := range evs {
		if ev.Kind == obs.EvPeerReadmitted {
			if ev.Peer != 1 || ev.A != churnEpoch+1 || ev.B != churnEpoch {
				t.Errorf("EvPeerReadmitted payload peer=%d A=%d B=%d, want peer=1 A=%d B=%d",
					ev.Peer, ev.A, ev.B, churnEpoch+1, churnEpoch)
			}
			break
		}
	}

	// Post-readmission traffic completes in BOTH directions, landing in
	// the reincarnated segment.
	data := []byte("second life")
	var putDone bool
	ep0.PutRemote(1, 64, data, nil, func(err error) {
		if err != nil {
			t.Errorf("post-readmission put 0->1: %v", err)
		}
		putDone = true
	})
	spinDoms(t, world, func() bool { return putDone })
	got := make([]byte, len(data))
	d1b.Segment(1).CopyOut(64, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("reincarnated segment holds %q, want %q", got, data)
	}
	var backDone bool
	d1b.Endpoint(1).PutRemote(0, 128, []byte("hello back"), nil, func(err error) {
		if err != nil {
			t.Errorf("post-readmission put 1->0: %v", err)
		}
		backDone = true
	})
	spinDoms(t, world, func() bool { return backDone })
}

// TestChurnStaleIncarnationDrops: once a peer is Down, datagrams from its
// dead incarnation — heartbeats included — are dropped and counted, never
// delivered: they must not refresh the silence clock, must not emit
// recovery, and must not resurrect the peer.
func TestChurnStaleIncarnationDrops(t *testing.T) {
	bus := obs.NewBus(0)
	sub := bus.Subscribe()
	defer sub.Close()
	doms, _ := newChurnWorld(t, 2, bus)
	ep0 := doms[0].Endpoint(0)

	closeAbrupt(doms[1])
	alive := doms[:1]
	spinDoms(t, alive, func() bool { return ep0.PeerDown(1) })

	// Forge the dead incarnation's late datagrams arriving after the
	// declaration: a heartbeat and a sequenced data frame, injected
	// exactly as the reader goroutine would.
	before := doms[0].Stats().StaleIncarnationDrops
	hb := doms[0].arena.get(bufClassSmall)
	hb.b = append(hb.b[:0], frameHB, 1, 0, churnEpoch, 0, 0, 0)
	doms[0].receiveDatagram(ep0, hb)

	m := Msg{Handler: HandlerUserBase, A0: 1}
	wb := doms[0].arena.get(bufClassLarge)
	wire := append(wb.b[:relHeaderLen], frameSingle)
	wire = appendMsg(wire, &m)
	wb.b = wire
	wb.b[0] = frameSeq
	wb.b[1], wb.b[2] = 1, 0 // from rank 1
	putU32(wb.b[3:7], churnEpoch)
	putU32(wb.b[7:11], 1)
	putU32(wb.b[11:15], 0)
	delivered := false
	doms[0].RegisterHandler(HandlerUserBase, func(*Endpoint, *Msg) { delivered = true })
	doms[0].receiveDatagram(ep0, wb)
	for i := 0; i < 64; i++ {
		ep0.Poll()
	}

	if delivered {
		t.Error("dead incarnation's data frame was delivered")
	}
	if got := doms[0].Stats().StaleIncarnationDrops; got < before+2 {
		t.Errorf("StaleIncarnationDrops = %d, want >= %d", got, before+2)
	}
	if !ep0.PeerDown(1) {
		t.Error("late datagrams resurrected a dead incarnation")
	}
	if _, ok := waitForEvent(sub, obs.EvStaleIncarnation, nil); !ok {
		t.Error("no EvStaleIncarnation on the bus")
	}
}

// TestChurnDownGenScopesSweep: operation generations scope the peer-down
// sweep — an op issued against the readmitted incarnation must survive
// even though the endpoint's sweep for the previous death runs after it
// was registered.
func TestChurnDownGenScopesSweep(t *testing.T) {
	doms, peers := newChurnWorld(t, 2, nil)
	ep0 := doms[0].Endpoint(0)

	closeAbrupt(doms[1])
	spinDoms(t, doms[:1], func() bool { return ep0.PeerDown(1) })
	if gen := ep0.DownGen(1); gen != 1 {
		t.Fatalf("death generation %d after first death, want 1", gen)
	}

	d1b, _ := restartRank(t, 2, 1, peers, churnEpoch+1)
	world := []*Domain{doms[0], d1b}
	spinDoms(t, world, func() bool { return !ep0.PeerDown(1) })

	// New ops stamp the current generation and complete normally; the
	// sweep for death #1 (already consumed or not) must not touch them.
	var done bool
	ep0.PutRemote(1, 0, []byte("post-churn"), nil, func(err error) {
		if err != nil {
			t.Errorf("post-readmission op swept: %v", err)
		}
		done = true
	})
	spinDoms(t, world, func() bool { return done })
}
