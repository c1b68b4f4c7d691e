package gasnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"net/netip"
	"strings"
	"testing"
	"time"
)

// newMultiprocWorld builds an n-rank multiproc world inside this one test
// process: n Domains, each believing it is one rank of a process-per-rank
// world, wired through n real loopback UDP sockets bound here (standing in
// for the bootstrap exchange). Everything below the socket is then exactly
// what separate processes would run — the in-memory handoff is structurally
// unreachable because each Domain holds only its own segment.
func newMultiprocWorld(t testing.TB, n int) []*Domain {
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
		d, err := NewDomain(Config{
			Ranks:        n,
			Conduit:      UDP,
			Multiproc:    true,
			Self:         i,
			Epoch:        7,
			Peers:        peers,
			SelfConn:     conns[i],
			SegmentBytes: 1 << 16,
		})
		if err != nil {
			t.Fatalf("domain rank %d: %v", i, err)
		}
		doms[i] = d
		t.Cleanup(d.Close)
	}
	return doms
}

// spinWorld polls every domain's self endpoint until cond holds.
func spinWorld(t testing.TB, doms []*Domain, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("multiproc spin timed out")
		}
		for _, d := range doms {
			d.Endpoint(d.Config().Self).Poll()
		}
	}
}

func TestMultiprocTopology(t *testing.T) {
	doms := newMultiprocWorld(t, 3)
	d0 := doms[0]
	ep0 := d0.Endpoint(0)
	if !ep0.Local(0) {
		t.Error("self must be local")
	}
	if ep0.Local(1) || ep0.Local(2) {
		t.Error("multiproc peers must be remote: there is no shared address space")
	}
	if d0.Segment(0) == nil {
		t.Error("self segment missing")
	}
	if d0.Segment(1) != nil || d0.Segment(2) != nil {
		t.Error("peer segments must not exist in this process")
	}
	if d0.Config().StaticLocal() {
		t.Error("multiproc locality must be dynamic")
	}
	// One hosted rank, one row of Ranks peer records — not Ranks².
	if len(d0.udp.hosts) != 1 || d0.udp.hosts[0].rank != 0 || len(d0.udp.hosts[0].peers) != 3 {
		t.Errorf("rank 0 hosts %d rank(s), want exactly itself with a 3-peer row", len(d0.udp.hosts))
	}
	if d0.eps[1].host != nil || d0.eps[2].host != nil {
		t.Error("a rank hosted by another process has a host record here")
	}
	if fs := d0.FlowState(1, 0); fs != (FlowState{}) {
		t.Errorf("FlowState of a rank hosted elsewhere = %+v, want zero", fs)
	}
	if err := d0.SetFault(1, FaultConfig{}); err == nil {
		t.Error("SetFault accepted a rank hosted by another process")
	}
}

func TestMultiprocConfigValidation(t *testing.T) {
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	self := c.LocalAddr().(*net.UDPAddr).AddrPort()
	peers := []netip.AddrPort{self, self}
	bad := []Config{
		{Ranks: 2, Conduit: SMP, Multiproc: true, Self: 0, Peers: peers, SelfConn: c},
		{Ranks: 2, Conduit: UDP, Multiproc: true, Self: 2, Peers: peers, SelfConn: c},
		{Ranks: 2, Conduit: UDP, Multiproc: true, Self: 0, Peers: peers[:1], SelfConn: c},
		{Ranks: 2, Conduit: UDP, Multiproc: true, Self: 0, Peers: peers, SelfConn: nil},
	}
	for i, cfg := range bad {
		if _, err := NewDomain(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestMultiprocPutGetAmo(t *testing.T) {
	doms := newMultiprocWorld(t, 2)
	ep0 := doms[0].Endpoint(0)
	seg1 := doms[1].Segment(1)

	// Put crosses the wire into the other domain's segment.
	data := []byte("across process boundaries")
	var putDone bool
	ep0.PutRemote(1, 64, data, nil, func(err error) {
		if err != nil {
			t.Errorf("put: %v", err)
		}
		putDone = true
	})
	spinWorld(t, doms, func() bool { return putDone })
	got := make([]byte, len(data))
	seg1.CopyOut(64, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("segment holds %q, want %q", got, data)
	}

	// Get reads it back over the wire.
	back := make([]byte, len(data))
	var getDone bool
	ep0.GetRemote(1, 64, len(data), back, func(err error) {
		if err != nil {
			t.Errorf("get: %v", err)
		}
		getDone = true
	})
	spinWorld(t, doms, func() bool { return getDone })
	if !bytes.Equal(back, data) {
		t.Fatalf("get returned %q, want %q", back, data)
	}

	// Atomic fetch-add executes in the target process.
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], 40)
	seg1.CopyIn(128, word[:])
	var old uint64
	var amoDone bool
	ep0.AmoRemote(1, 128, AmoAdd, 2, 0, ValueBytes(&old), func(err error) {
		if err != nil {
			t.Errorf("amo: %v", err)
		}
		amoDone = true
	})
	spinWorld(t, doms, func() bool { return amoDone })
	if old != 40 {
		t.Errorf("fetch-add old = %d, want 40", old)
	}
	seg1.CopyOut(128, word[:])
	if v := binary.LittleEndian.Uint64(word[:]); v != 42 {
		t.Errorf("word after fetch-add = %d, want 42", v)
	}
	if doms[0].Stats().InMemFallbacks != 0 || doms[1].Stats().InMemFallbacks != 0 {
		t.Error("multiproc world took an in-memory shortcut")
	}
}

func TestMultiprocPutNotify(t *testing.T) {
	doms := newMultiprocWorld(t, 2)
	ep0 := doms[0].Endpoint(0)
	var gotID uint32
	var gotArgs []byte
	doms[1].SetNotifyHook(func(_ *Endpoint, id uint32, args []byte) {
		gotID = id
		gotArgs = append([]byte(nil), args...)
	})
	var done bool
	ep0.PutNotifyRemote(1, 0, []byte{1, 2, 3}, 9, []byte("hi"), func(err error) {
		if err != nil {
			t.Errorf("put-notify: %v", err)
		}
		done = true
	})
	spinWorld(t, doms, func() bool { return done && gotID != 0 })
	if gotID != 9 || string(gotArgs) != "hi" {
		t.Errorf("notify delivered id=%d args=%q, want 9/hi", gotID, gotArgs)
	}
}

func TestMultiprocBadAddressRefused(t *testing.T) {
	doms := newMultiprocWorld(t, 2)
	ep0 := doms[0].Endpoint(0)
	segBytes := uint32(doms[1].Config().SegmentBytes)
	var gotErr error
	var done bool
	ep0.PutRemote(1, segBytes-1, []byte("spills past the end"), nil, func(err error) {
		gotErr = err
		done = true
	})
	spinWorld(t, doms, func() bool { return done })
	if !errors.Is(gotErr, ErrBadAddress) {
		t.Fatalf("out-of-segment put resolved with %v, want ErrBadAddress", gotErr)
	}
	if doms[1].Stats().BadAddrDrops == 0 {
		t.Error("target did not count the refused request")
	}
}

func TestMultiprocClosureSendPanics(t *testing.T) {
	doms := newMultiprocWorld(t, 2)
	ep0 := doms[0].Endpoint(0)
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("closure to a remote rank in a multiproc world must panic")
		}
		if !strings.Contains(p.(string), "closure message") {
			t.Errorf("panic %v", p)
		}
	}()
	ep0.Send(1, Msg{Handler: HandlerUserBase, Fn: func(*Endpoint) {}})
}

func TestMultiprocGracefulClose(t *testing.T) {
	doms := newMultiprocWorld(t, 2)
	// Close rank 1 first: its goodbye frame should reach rank 0, whose
	// liveness detector then treats the silence as expected (no spurious
	// down declaration while rank 0 drains).
	doms[1].Close()
	doms[0].Close()
}
