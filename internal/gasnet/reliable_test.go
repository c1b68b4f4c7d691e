package gasnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"
)

// lossyFault is the canonical heavy-fault profile the acceptance criteria
// prescribe: a quarter of all datagrams dropped, plus duplication and
// reordering.
func lossyFault(seed int64) *FaultConfig {
	return &FaultConfig{Seed: seed, Drop: 0.25, Dup: 0.05, Reorder: 0.10}
}

// TestReliableDeliveryUnderLoss: at 25% drop + dup + reorder, every
// message still arrives exactly once and in per-peer FIFO order (a
// guarantee raw UDP never made but the reliability layer does), with the
// retransmission machinery visibly doing the work.
func TestReliableDeliveryUnderLoss(t *testing.T) {
	d := newTestDomain(t, Config{Ranks: 2, Conduit: UDP, Fault: lossyFault(42)})
	defer d.Close()
	var got []uint64
	d.RegisterHandler(HandlerUserBase, func(ep *Endpoint, m *Msg) {
		got = append(got, m.A0)
		if string(m.Payload) != "lossy wire" {
			t.Errorf("payload %q", m.Payload)
		}
	})
	const msgs = 200
	ep0, ep1 := d.Endpoint(0), d.Endpoint(1)
	for i := 0; i < msgs; i++ {
		ep0.Send(1, Msg{Handler: HandlerUserBase, A0: uint64(i), Payload: []byte("lossy wire")})
		ep0.Flush()
	}
	deadline := time.Now().Add(30 * time.Second)
	for len(got) < msgs && time.Now().Before(deadline) {
		if ep1.Poll() == 0 {
			ep1.Park()
		}
	}
	if len(got) != msgs {
		t.Fatalf("delivered %d of %d", len(got), msgs)
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("FIFO broken at %d: got %d", i, v)
		}
	}
	s := d.Stats()
	if s.FaultsInjected == 0 {
		t.Error("fault shim injected nothing at 40% combined probability")
	}
	if s.Retransmits == 0 {
		t.Error("no retransmissions despite 25% drop")
	}
	t.Logf("stats: %+v", s)
}

// TestReliableBurstUnderLoss: a coalesced batch rides inside one sequenced
// frame, so loss of the datagram retransmits the burst as a unit and
// delivery order within the batch survives.
func TestReliableBurstUnderLoss(t *testing.T) {
	d := newTestDomain(t, Config{Ranks: 2, Conduit: UDP, Fault: lossyFault(7)})
	defer d.Close()
	var got []uint64
	d.RegisterHandler(HandlerUserBase, func(ep *Endpoint, m *Msg) { got = append(got, m.A0) })
	ep0, ep1 := d.Endpoint(0), d.Endpoint(1)
	const rounds, fan = 40, 8
	for r := 0; r < rounds; r++ {
		ep0.BeginBurst()
		for k := 0; k < fan; k++ {
			ep0.Send(1, Msg{Handler: HandlerUserBase, A0: uint64(r*fan + k)})
		}
		ep0.EndBurst()
	}
	deadline := time.Now().Add(30 * time.Second)
	for len(got) < rounds*fan && time.Now().Before(deadline) {
		if ep1.Poll() == 0 {
			ep1.Park()
		}
	}
	if len(got) != rounds*fan {
		t.Fatalf("delivered %d of %d", len(got), rounds*fan)
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("batch order broken at %d: got %d", i, v)
		}
	}
	if s := d.Stats(); s.CoalescedBatches < rounds {
		t.Errorf("CoalescedBatches = %d, want >= %d", s.CoalescedBatches, rounds)
	}
}

// TestReliablePutAckUnderLoss drives the internal protocol's put/ack
// round trip — request datagram out, acknowledgment datagram back —
// across the lossy wire until every operation completes.
func TestReliablePutAckUnderLoss(t *testing.T) {
	d := newTestDomain(t, Config{
		Ranks: 2, Conduit: UDP, SegmentBytes: 1 << 12, Fault: lossyFault(11),
	})
	defer d.Close()
	ep0, ep1 := d.Endpoint(0), d.Endpoint(1)
	const puts = 64
	done := 0
	want := make([]byte, 0, puts*16)
	for i := 0; i < puts; i++ {
		val := []byte(fmt.Sprintf("payload-%06d:x", i)) // 16 bytes
		want = append(want, val...)
		ep0.PutRemote(1, uint32(i*16), val, nil, func(error) { done++ })
	}
	deadline := time.Now().Add(30 * time.Second)
	for done < puts && time.Now().Before(deadline) {
		ep1.Poll() // service put requests, emit acks
		ep0.Poll() // complete outstanding ops
	}
	if done != puts {
		t.Fatalf("completed %d of %d puts", done, puts)
	}
	got := make([]byte, len(want))
	d.Segment(1).CopyOut(0, got)
	if !bytes.Equal(got, want) {
		t.Error("target segment bytes corrupted under loss")
	}
	if ep0.PendingOps() != 0 {
		t.Errorf("%d ops still pending", ep0.PendingOps())
	}
	if s := d.Stats(); s.Retransmits == 0 {
		t.Error("no retransmissions despite 25% drop")
	}
}

// TestReliableDupSuppression: heavy duplication, zero loss — every
// duplicate must be swallowed by the receiver, not double-dispatched.
func TestReliableDupSuppression(t *testing.T) {
	d := newTestDomain(t, Config{
		Ranks: 2, Conduit: UDP, Fault: &FaultConfig{Seed: 3, Dup: 0.5},
	})
	defer d.Close()
	counts := map[uint64]int{}
	d.RegisterHandler(HandlerUserBase, func(ep *Endpoint, m *Msg) { counts[m.A0]++ })
	ep0, ep1 := d.Endpoint(0), d.Endpoint(1)
	const msgs = 100
	for i := 0; i < msgs; i++ {
		ep0.Send(1, Msg{Handler: HandlerUserBase, A0: uint64(i)})
		ep0.Flush()
	}
	total := 0
	deadline := time.Now().Add(20 * time.Second)
	for total < msgs && time.Now().Before(deadline) {
		if ep1.Poll() == 0 {
			ep1.Park()
		}
		total = len(counts)
	}
	// Give straggler duplicates a moment to arrive, then check exactness.
	time.Sleep(20 * time.Millisecond)
	ep1.Poll()
	for k, c := range counts {
		if c != 1 {
			t.Errorf("message %d delivered %d times", k, c)
		}
	}
	if len(counts) != msgs {
		t.Fatalf("delivered %d of %d distinct messages", len(counts), msgs)
	}
	if s := d.Stats(); s.DupsDropped == 0 {
		t.Error("DupsDropped = 0 under 50% duplication")
	}
}

// TestReliableReorderDelivery: heavy reordering, zero loss — the reorder
// buffer must restore strict per-peer FIFO.
func TestReliableReorderDelivery(t *testing.T) {
	d := newTestDomain(t, Config{
		Ranks: 2, Conduit: UDP, Fault: &FaultConfig{Seed: 5, Reorder: 0.5},
	})
	defer d.Close()
	var got []uint64
	d.RegisterHandler(HandlerUserBase, func(ep *Endpoint, m *Msg) { got = append(got, m.A0) })
	ep0, ep1 := d.Endpoint(0), d.Endpoint(1)
	const msgs = 100
	for i := 0; i < msgs; i++ {
		ep0.Send(1, Msg{Handler: HandlerUserBase, A0: uint64(i)})
	}
	deadline := time.Now().Add(20 * time.Second)
	for len(got) < msgs && time.Now().Before(deadline) {
		if ep1.Poll() == 0 {
			ep1.Park()
		}
	}
	if len(got) != msgs {
		t.Fatalf("delivered %d of %d", len(got), msgs)
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("order broken at %d: got %d (reorder buffer failed)", i, v)
		}
	}
}

// TestReliableWindowBounds: with a peer that acks nothing (100% drop),
// the sender's in-flight queue stops at relWindow datagrams — bounding
// arena memory — and the next send blocks instead of queueing.
func TestReliableWindowBounds(t *testing.T) {
	d := newTestDomain(t, Config{
		Ranks: 2, Conduit: UDP, Fault: &FaultConfig{Seed: 1, Drop: 1.0},
	})
	ep0 := d.Endpoint(0)
	// Pin the RTO at its ceiling: at the initial 5 ms, a fill that takes
	// longer than that (the race detector on a loaded host) sees its first
	// expiry halve the window mid-fill, and this goroutine blocks instead
	// of the one below.
	p := d.peer(0, 1)
	p.mu.Lock()
	p.rto = relRTOMax
	p.mu.Unlock()
	for i := 0; i < relWindow; i++ {
		ep0.Send(1, Msg{Handler: HandlerUserBase, A0: uint64(i)})
		ep0.Flush()
	}
	blocked := make(chan struct{})
	go func() {
		ep0.Send(1, Msg{Handler: HandlerUserBase, A0: relWindow})
		ep0.Flush()
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Error("send past the in-flight window did not block")
	case <-time.After(50 * time.Millisecond):
		// Expected: the window is full and nothing will ever be acked.
	}
	d.Close() // unblocks the stuck sender (post-Close sends are dropped)
	select {
	case <-blocked:
	case <-time.After(2 * time.Second):
		t.Fatal("blocked sender did not drain out on Close")
	}
}

// TestReliableOutOfWindowDrop: a forged sequence far beyond the receive
// window is counted and discarded, never buffered.
func TestReliableOutOfWindowDrop(t *testing.T) {
	d := newTestDomain(t, Config{Ranks: 2, Conduit: UDP})
	defer d.Close()
	// Hand-craft a sequenced frame from rank 0 with an absurd sequence
	// number and inject it at the receiver, exactly as the reader
	// goroutine would.
	m := Msg{Handler: HandlerUserBase, A0: 99}
	wb := d.arena.get(bufClassLarge)
	wire := append(wb.b[:relHeaderLen], frameSingle)
	wire = appendMsg(wire, &m)
	wb.b = wire
	wb.b[0] = frameSeq
	wb.b[1], wb.b[2] = 0, 0  // from rank 0
	putU32(wb.b[3:7], d.inc) // current incarnation: past the stale filter
	putU32(wb.b[7:11], relWindow+12345)
	putU32(wb.b[11:15], 0)
	d.receiveDatagram(d.Endpoint(1), wb)
	if s := d.Stats(); s.OutOfWindowDrops != 1 {
		t.Errorf("OutOfWindowDrops = %d, want 1", s.OutOfWindowDrops)
	}
}

// TestForgedAckCounted: ack input is untrusted. A cumulative ack or a SACK
// bit naming a seq never sent, and a standalone ack whose trailer is not an
// 8-byte bitmap, are each one counted decode error that releases,
// retransmits and skips nothing; a well-formed bitmap is accepted.
func TestForgedAckCounted(t *testing.T) {
	d := newTestDomain(t, Config{Ranks: 2, Conduit: UDP, Fault: &FaultConfig{Seed: 1, Drop: 1.0}})
	defer d.Close()
	ep0 := d.Endpoint(0)
	p := d.peer(0, 1)
	p.mu.Lock()
	p.rto = relRTOMax // keep the timer out of the way
	p.mu.Unlock()
	for i := 0; i < 3; i++ {
		ep0.Send(1, Msg{Handler: HandlerUserBase})
		ep0.Flush()
	}
	sack := func(bits uint64) []byte { return binary.LittleEndian.AppendUint64(nil, bits) }
	ack := func(cum uint32, trailer []byte) {
		wb := d.arena.get(bufClassLarge)
		wb.b = append(append(wb.b[:0], seqHdr(1, d.inc, 0, cum)...), trailer...)
		d.receiveDatagram(ep0, wb)
	}
	for _, c := range []struct {
		name    string
		cum     uint32
		trailer []byte
	}{
		{"cum beyond the 3 sent", 4, nil},
		{"SACK bit naming seq 4", 0, sack(1 << 2)},
		{"truncated trailer", 0, []byte{1, 2, 3}},
		{"oversized trailer", 0, make([]byte, sackLen+1)},
	} {
		before := d.Stats()
		ack(c.cum, c.trailer)
		after := d.Stats()
		if after.DecodeErrors != before.DecodeErrors+1 || after.FastRetransmits != before.FastRetransmits {
			t.Errorf("%s: %d decode errors, %d retransmissions; want 1 and 0", c.name,
				after.DecodeErrors-before.DecodeErrors, after.FastRetransmits-before.FastRetransmits)
		}
		p.mu.Lock()
		if len(p.inflight) != 3 || p.sendAcked != 0 || p.nsacked != 0 {
			t.Errorf("%s: %d in flight, acked %d, %d SACKed; want 3, 0, 0", c.name, len(p.inflight), p.sendAcked, p.nsacked)
		}
		p.mu.Unlock()
	}
	before := d.Stats().DecodeErrors
	ack(0, sack(0b11)) // seqs 2 and 3 parked: two, not enough to call 1 lost
	errs := d.Stats().DecodeErrors - before
	p.mu.Lock()
	defer p.mu.Unlock()
	if errs != 0 || p.nsacked != 2 {
		t.Errorf("well-formed SACK: %d decode errors, %d SACKed; want 0 and 2", errs, p.nsacked)
	}
}

// TestLossRecoveryCost: at a 2 % drop, loss recovery is counted, not timed.
// A few thousand puts keep the window full; each drop costs about one
// retransmission, found by the acks rather than the timer, and every op
// completes exactly once. Go-back-N on timer expiry paid ~6 duplicate
// deliveries per drop here.
func TestLossRecoveryCost(t *testing.T) {
	d := newTestDomain(t, Config{
		Ranks: 2, Conduit: UDP, SegmentBytes: 1 << 16,
		Backpressure: BackpressureFailFast,
		Fault:        &FaultConfig{Seed: 7, Drop: 0.02},
	})
	defer d.Close()
	ep0, ep1 := d.Endpoint(0), d.Endpoint(1)
	const puts = 4000
	completions := make([]int, puts)
	issued, completed := 0, 0
	deadline := time.Now().Add(60 * time.Second)
	for completed < puts && time.Now().Before(deadline) {
		for issued < puts && ep0.AdmitSend(1, 0) == nil {
			i := issued
			ep0.PutRemote(1, uint32(i*8%(1<<16)), []byte("8 bytes!"), nil, func(err error) {
				if err != nil {
					t.Errorf("put %d: %v", i, err)
				}
				completions[i]++
				completed++
			})
			ep0.Flush()
			issued++
		}
		ep1.Poll()
		ep0.Poll()
	}
	for i, n := range completions {
		if n != 1 {
			t.Fatalf("put %d completed %d times", i, n)
		}
	}
	s := d.Stats()
	t.Logf("faults %d: retransmits %d (%d ack-driven), RTO expirations %d, dups %d, SACK acks %d",
		s.FaultsInjected, s.Retransmits, s.FastRetransmits, s.RTOExpirations, s.DupsDropped, s.SackAcks)
	if s.FaultsInjected == 0 {
		t.Fatal("no faults injected at 2 % drop")
	}
	if s.Retransmits > 2*s.FaultsInjected {
		t.Errorf("Retransmits = %d > 2 × FaultsInjected (%d)", s.Retransmits, s.FaultsInjected)
	}
	if s.RTOExpirations > s.FaultsInjected/4 {
		t.Errorf("RTOExpirations = %d > FaultsInjected/4 (%d)", s.RTOExpirations, s.FaultsInjected/4)
	}
}

// TestCorruptDatagramsCountedAndDropped feeds the receive path the malformed
// frames a hostile or broken sender could produce: each must be counted,
// none may panic, and the conduit must keep working afterwards.
func TestCorruptDatagramsCountedAndDropped(t *testing.T) {
	d := newTestDomain(t, Config{Ranks: 2, Conduit: UDP})
	defer d.Close()
	received := 0
	d.RegisterHandler(HandlerUserBase, func(*Endpoint, *Msg) { received++ })
	ep1 := d.Endpoint(1)
	bad := [][]byte{
		{},                             // empty datagram
		{0xEE},                         // unknown frame tag
		{frameSingle},                  // truncated wire message
		{frameSingle, 1, 2, 3},         // short of the fixed header
		{frameBatch},                   // truncated batch header
		{frameBatch, 0, 0},             // empty batch
		{frameBatch, 2, 0, 9, 0, 0, 0}, // entry length overruns frame
		{frameSeq, 0, 0, 1},            // truncated sequenced header
	}
	for _, b := range bad {
		wb := d.arena.get(bufClassLarge)
		wb.b = append(wb.b[:0], b...)
		d.receiveDatagram(ep1, wb)
	}
	if s := d.Stats(); s.DecodeErrors != int64(len(bad)) {
		t.Errorf("DecodeErrors = %d, want %d", s.DecodeErrors, len(bad))
	}
	// The conduit still works.
	d.Endpoint(0).Send(1, Msg{Handler: HandlerUserBase})
	deadline := time.Now().Add(2 * time.Second)
	for received == 0 && time.Now().Before(deadline) {
		ep1.Poll()
	}
	if received != 1 {
		t.Fatal("conduit dead after corrupt datagrams")
	}
}

// TestRbufErrAccessor: the SetReadBuffer breadcrumb is reachable
// programmatically (nil on healthy hosts and non-socket conduits).
func TestRbufErrAccessor(t *testing.T) {
	u := newTestDomain(t, Config{Ranks: 2, Conduit: UDP})
	defer u.Close()
	if err := u.RbufErr(); err != nil {
		t.Logf("RbufErr = %v (undersized kernel buffers on this host)", err)
	}
	s := newTestDomain(t, Config{Ranks: 2, Conduit: SMP})
	if err := s.RbufErr(); err != nil {
		t.Errorf("RbufErr = %v on a socketless conduit", err)
	}
}

// TestFaultSpecParsing pins the GUPCXX_UDP_FAULT grammar.
func TestFaultSpecParsing(t *testing.T) {
	f, err := parseFaultSpec("drop=0.25,dup=0.05,reorder=0.10,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if f.Drop != 0.25 || f.Dup != 0.05 || f.Reorder != 0.10 || f.Seed != 7 {
		t.Errorf("parsed %+v", f)
	}
	if _, err := parseFaultSpec("drop=2"); err == nil {
		t.Error("probability > 1 accepted")
	}
	if _, err := parseFaultSpec("drop=0.5,dup=0.4,reorder=0.3"); err == nil {
		t.Error("probabilities summing past 1 accepted")
	}
	if _, err := parseFaultSpec("bogus=1"); err == nil {
		t.Error("unknown key accepted")
	}
	if _, err := parseFaultSpec("drop"); err == nil {
		t.Error("keyless field accepted")
	}
}

// TestFaultConfigValidation: NewDomain rejects nonsense fault configs and
// ignores fault configs on conduits without sockets.
func TestFaultConfigValidation(t *testing.T) {
	if _, err := NewDomain(Config{Ranks: 2, Conduit: UDP,
		Fault: &FaultConfig{Drop: 1.5}}); err == nil {
		t.Error("Drop = 1.5 accepted")
	}
	d := newTestDomain(t, Config{Ranks: 2, Conduit: SMP,
		Fault: &FaultConfig{Drop: 0.5}})
	if d.Config().Fault != nil {
		t.Error("fault config survived on the SMP conduit")
	}
}

// putU32 is a tiny test helper (avoids importing encoding/binary here).
func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}
