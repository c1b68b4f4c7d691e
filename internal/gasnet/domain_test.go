package gasnet

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"
)

func newTestDomain(t testing.TB, cfg Config) *Domain {
	t.Helper()
	d, err := NewDomain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewDomain(Config{Ranks: 0}); err == nil {
		t.Error("0 ranks accepted")
	}
	if _, err := NewDomain(Config{Ranks: 2, Conduit: Conduit(9)}); err == nil {
		t.Error("bad conduit accepted")
	}
	if _, err := NewDomain(Config{Ranks: 2, SegmentBytes: 4}); err == nil {
		t.Error("tiny segment accepted")
	}
	// The wire's rank field is a u16; checked on the Config alone, so no
	// 65537-rank world is built to find out.
	t.Setenv(faultEnvVar, "")
	if _, err := (Config{Ranks: 1<<16 + 1, Conduit: UDP}).normalized(); err == nil {
		t.Error("65537 ranks accepted on the UDP conduit: rank 65536 would alias rank 0 on the wire")
	}
	if _, err := (Config{Ranks: 1 << 16, Conduit: UDP}).normalized(); err != nil {
		t.Errorf("65536 ranks refused on the UDP conduit: %v", err)
	}
	d := newTestDomain(t, Config{Ranks: 2})
	if d.Config().SegmentBytes != DefaultSegmentBytes {
		t.Error("segment default not applied")
	}
	if d.Config().Conduit != SMP {
		t.Error("default conduit should be SMP")
	}
}

func TestParseConduit(t *testing.T) {
	for _, name := range []string{"smp", "pshm", "sim", "udp"} {
		c, err := ParseConduit(name)
		if err != nil || c.String() != name {
			t.Errorf("ParseConduit(%q) = %v, %v", name, c, err)
		}
	}
	if _, err := ParseConduit("ibv"); err == nil {
		t.Error("unknown conduit accepted")
	}
}

func TestTopology(t *testing.T) {
	d := newTestDomain(t, Config{Ranks: 6, Conduit: SIM, RanksPerNode: 2})
	wantNodes := []int{0, 0, 1, 1, 2, 2}
	for r, want := range wantNodes {
		if d.Endpoint(r).Node() != want {
			t.Errorf("rank %d on node %d, want %d", r, d.Endpoint(r).Node(), want)
		}
	}
	ep0 := d.Endpoint(0)
	if !ep0.Local(1) || ep0.Local(2) {
		t.Error("locality wrong")
	}
	// PSHM: everyone co-located, but not statically.
	p := newTestDomain(t, Config{Ranks: 4, Conduit: PSHM})
	if !p.Endpoint(0).Local(3) {
		t.Error("PSHM ranks must be co-located")
	}
	if p.Config().StaticLocal() {
		t.Error("PSHM locality is dynamic")
	}
	if !newTestDomain(t, Config{Ranks: 2, Conduit: SMP}).Config().StaticLocal() {
		t.Error("SMP locality is static")
	}
}

func TestHandlerRegistration(t *testing.T) {
	d := newTestDomain(t, Config{Ranks: 1})
	d.RegisterHandler(HandlerUserBase, func(*Endpoint, *Msg) {})
	for _, bad := range []func(){
		func() { d.RegisterHandler(HandlerUserBase, func(*Endpoint, *Msg) {}) }, // dup
		func() { d.RegisterHandler(0, func(*Endpoint, *Msg) {}) },               // reserved
		func() { d.RegisterHandler(MaxHandlers, func(*Endpoint, *Msg) {}) },     // range
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad registration accepted")
				}
			}()
			bad()
		}()
	}
}

func TestSendPollSameNode(t *testing.T) {
	d := newTestDomain(t, Config{Ranks: 2, Conduit: PSHM})
	var got []uint64
	d.RegisterHandler(HandlerUserBase, func(ep *Endpoint, m *Msg) {
		got = append(got, m.A0)
	})
	ep0, ep1 := d.Endpoint(0), d.Endpoint(1)
	for i := uint64(1); i <= 3; i++ {
		ep0.Send(1, Msg{Handler: HandlerUserBase, A0: i})
	}
	if n := ep1.Poll(); n != 3 {
		t.Fatalf("Poll = %d", n)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("delivery order %v", got)
	}
	if d.AMSends() != 3 {
		t.Errorf("AMSends = %d", d.AMSends())
	}
}

func TestSendCrossNodeLatencyAndWireRoundTrip(t *testing.T) {
	lat := 5 * time.Millisecond
	d := newTestDomain(t, Config{Ranks: 2, Conduit: SIM, SimLatency: lat})
	var got *Msg
	d.RegisterHandler(HandlerUserBase, func(ep *Endpoint, m *Msg) {
		cp := *m
		got = &cp
	})
	payload := []byte("hello wire")
	d.Endpoint(0).Send(1, Msg{
		Handler: HandlerUserBase,
		A0:      1, A1: 2, A2: 3, A3: 4,
		Payload: payload,
	})
	ep1 := d.Endpoint(1)
	if n := ep1.Poll(); n != 0 {
		t.Fatal("message delivered before wire latency elapsed")
	}
	deadline := time.Now().Add(time.Second)
	for got == nil && time.Now().Before(deadline) {
		ep1.Poll()
		time.Sleep(time.Millisecond)
	}
	if got == nil {
		t.Fatal("message never delivered")
	}
	if got.A0 != 1 || got.A1 != 2 || got.A2 != 3 || got.A3 != 4 {
		t.Errorf("args corrupted: %+v", got)
	}
	if string(got.Payload) != "hello wire" {
		t.Errorf("payload corrupted: %q", got.Payload)
	}
	if got.From != 0 {
		t.Errorf("From = %d", got.From)
	}
}

func TestCrossNodeClosureReattached(t *testing.T) {
	d := newTestDomain(t, Config{Ranks: 2, Conduit: SIM, SimLatency: time.Nanosecond})
	ran := false
	d.RegisterHandler(HandlerUserBase, func(ep *Endpoint, m *Msg) {
		m.Fn(ep)
	})
	d.Endpoint(0).Send(1, Msg{Handler: HandlerUserBase, Fn: func(*Endpoint) { ran = true }})
	deadline := time.Now().Add(time.Second)
	for !ran && time.Now().Before(deadline) {
		d.Endpoint(1).Poll()
	}
	if !ran {
		t.Error("closure lost across simulated wire")
	}
}

func TestUnknownHandlerCountedDrop(t *testing.T) {
	d := newTestDomain(t, Config{Ranks: 2})
	d.Endpoint(0).Send(1, Msg{Handler: HandlerUserBase + 7})
	d.Endpoint(1).Poll()
	if got := d.Stats().BadHandlerDrops; got != 1 {
		t.Errorf("BadHandlerDrops = %d, want 1", got)
	}
}

func TestPutGetAmoRemote(t *testing.T) {
	d := newTestDomain(t, Config{Ranks: 2, Conduit: SIM, SimLatency: time.Nanosecond})
	ep0 := d.Endpoint(0)
	seg1 := d.Segment(1)
	off, _ := seg1.Alloc(8)

	// Put with remote completion and op completion.
	putDone, remoteRan := false, false
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	ep0.PutRemote(1, off, data, func(*Endpoint) { remoteRan = true }, func(error) { putDone = true })
	spinBoth(t, d, func() bool { return putDone })
	if !remoteRan {
		t.Error("remote completion did not run")
	}
	out := make([]byte, 8)
	seg1.CopyOut(off, out)
	if string(out) != string(data) {
		t.Errorf("put data %v", out)
	}
	if ep0.PendingOps() != 0 {
		t.Errorf("pending ops = %d", ep0.PendingOps())
	}

	// Get.
	dst := make([]byte, 8)
	getDone := false
	ep0.GetRemote(1, off, 8, dst, func(error) { getDone = true })
	spinBoth(t, d, func() bool { return getDone })
	if string(dst) != string(data) {
		t.Errorf("get data %v", dst)
	}

	// Atomic fetch-add.
	var old uint64
	amoDone := false
	ep0.AmoRemote(1, off, AmoAdd, 10, 0, ValueBytes(&old), func(error) { amoDone = true })
	spinBoth(t, d, func() bool { return amoDone })
	want := binary.NativeEndian.Uint64(data)
	if old != want {
		t.Errorf("amo old = %#x, want %#x", old, want)
	}
	if v := ApplyAmo(seg1, off, AmoLoad, 0, 0); v != want+10 {
		t.Errorf("amo result = %#x", v)
	}
}

// spinBoth drives both endpoints' progress until cond holds.
func spinBoth(t *testing.T, d *Domain, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("timeout")
		}
		for r := 0; r < d.Ranks(); r++ {
			d.Endpoint(r).Poll()
		}
	}
}

func TestPutSourceBufferReusableImmediately(t *testing.T) {
	d := newTestDomain(t, Config{Ranks: 2, Conduit: SIM, SimLatency: time.Nanosecond})
	seg1 := d.Segment(1)
	off, _ := seg1.Alloc(8)
	buf := []byte{9, 9, 9, 9, 9, 9, 9, 9}
	done := false
	d.Endpoint(0).PutRemote(1, off, buf, nil, func(error) { done = true })
	// Clobber the source immediately: injection must have copied.
	for i := range buf {
		buf[i] = 0
	}
	spinBoth(t, d, func() bool { return done })
	out := make([]byte, 8)
	seg1.CopyOut(off, out)
	for _, b := range out {
		if b != 9 {
			t.Fatalf("source reuse corrupted transfer: %v", out)
		}
	}
}

func TestOpTableRecycling(t *testing.T) {
	d := newTestDomain(t, Config{Ranks: 2, Conduit: PSHM})
	ep0 := d.Endpoint(0)
	seg1 := d.Segment(1)
	off, _ := seg1.Alloc(8)
	for i := 0; i < 100; i++ {
		done := false
		ep0.AmoRemote(1, off, AmoAdd, 1, 0, nil, func(error) { done = true })
		spinBoth(t, d, func() bool { return done })
	}
	if ep0.PendingOps() != 0 {
		t.Errorf("pending = %d", ep0.PendingOps())
	}
	if got := len(ep0.ops.slots); got > 2 {
		t.Errorf("op table grew to %d slots despite recycling", got)
	}
}

func TestParkWakesOnMessage(t *testing.T) {
	d := newTestDomain(t, Config{Ranks: 2, Conduit: PSHM})
	d.RegisterHandler(HandlerUserBase, func(*Endpoint, *Msg) {})
	ep1 := d.Endpoint(1)
	var wg sync.WaitGroup
	wg.Add(1)
	woke := make(chan time.Duration, 1)
	go func() {
		defer wg.Done()
		start := time.Now()
		ep1.Park()
		woke <- time.Since(start)
	}()
	time.Sleep(2 * time.Millisecond) // let it park (beyond one timeout is fine)
	d.Endpoint(0).Send(1, Msg{Handler: HandlerUserBase})
	wg.Wait()
	<-woke // parked at most parkTimeout regardless; just ensure no deadlock
	if n := ep1.Poll(); n != 1 {
		t.Errorf("Poll after wake = %d", n)
	}
}

// TestIdleSpinThenPark pins the wait policy per conduit. An in-memory
// endpoint (SIM, PSHM) yields on its first idleSpin-1 idle steps and
// parks on the idleSpin-th; a Poll that dispatches resets the streak. A
// socket-fed endpoint (UDP) parks on its first idle step. A park is told
// from a yield without a clock: Park consumes a pre-loaded wake token, a
// yield leaves it.
func TestIdleSpinThenPark(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    Config
		parkAt int // the idle step that first parks
	}{
		{"SIM", Config{Ranks: 2, Conduit: SIM, SimLatency: time.Nanosecond}, idleSpin},
		{"PSHM", Config{Ranks: 2, Conduit: PSHM}, idleSpin},
		{"UDP", Config{Ranks: 2, Conduit: UDP}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newTestDomain(t, tc.cfg)
			defer d.Close()
			d.RegisterHandler(HandlerUserBase, func(*Endpoint, *Msg) {})
			ep := d.Endpoint(0)
			parks := func() bool {
				select {
				case ep.wake <- struct{}{}:
				default: // already loaded
				}
				ep.Idle()
				select {
				case <-ep.wake:
					return false
				default:
					return true
				}
			}
			// spin checks that idle steps 1..parkAt-1 yield and steps
			// parkAt and parkAt+1 park.
			spin := func(phase string) {
				t.Helper()
				for i := 1; i <= tc.parkAt+1; i++ {
					if got, want := parks(), i >= tc.parkAt; got != want {
						t.Fatalf("%s: idle step %d parked = %v, want %v", phase, i, got, want)
					}
				}
			}
			spin("fresh")

			// A productive Poll resets the streak. The message is pushed
			// straight into the inbox, with no wake token behind it.
			ep.inbox.push(Msg{Handler: HandlerUserBase})
			if n := ep.Poll(); n != 1 {
				t.Fatalf("Poll dispatched %d, want 1", n)
			}
			spin("after dispatch")
		})
	}
}

func TestMsgWireEncodeDecode(t *testing.T) {
	m := Msg{Handler: 3, From: 7, A0: 1, A1: 1 << 60, A2: 42, A3: ^uint64(0), Payload: []byte{0, 255, 7}}
	wire := encodeMsg(nil, &m)
	got, err := decodeMsg(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Handler != m.Handler || got.From != m.From || got.A0 != m.A0 ||
		got.A1 != m.A1 || got.A2 != m.A2 || got.A3 != m.A3 || string(got.Payload) != string(m.Payload) {
		t.Errorf("roundtrip mismatch: %+v vs %+v", got, m)
	}
	if _, err := decodeMsg(wire[:10]); err == nil {
		t.Error("truncated message decoded")
	}
}
