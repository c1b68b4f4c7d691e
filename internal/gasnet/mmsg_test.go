package gasnet

import (
	"encoding/binary"
	"math/rand/v2"
	"net"
	"net/netip"
	"slices"
	"testing"
	"time"
)

// bigBurst sends a burst of three oversized payloads from ep0 to rank 1:
// each 40KiB payload forces its own datagram (TestUDPBurstSplitsOversizedBatch
// pins the split), so the burst stages exactly three frames for one
// vectorized write at EndBurst.
func bigBurst(ep0 *Endpoint) {
	big := make([]byte, 40<<10)
	ep0.BeginBurst()
	for i := 0; i < 3; i++ {
		ep0.Send(1, Msg{Handler: HandlerUserBase, Payload: big})
	}
	ep0.EndBurst()
}

// TestBatchSyscallAmortization pins the tentpole claim: a burst of N
// staged frames costs one sendmmsg on the way out, and the receive side
// drains multiple queued datagrams per recvmmsg — asserted through the
// Stats counters, which only the vectorized datapath bumps.
func TestBatchSyscallAmortization(t *testing.T) {
	if !mmsgAvailable {
		t.Skip("vectorized datapath not available on this platform")
	}
	// The explicit zero-probability FaultConfig shields the exact syscall
	// counts from GUPCXX_UDP_FAULT (make test-loss), which would otherwise
	// drop or duplicate staged frames and perturb the batch sizes.
	d := newTestDomain(t, Config{Ranks: 2, Conduit: UDP, Fault: &FaultConfig{}})
	defer d.Close()
	received := 0
	d.RegisterHandler(HandlerUserBase, func(*Endpoint, *Msg) { received++ })
	ep0, ep1 := d.Endpoint(0), d.Endpoint(1)

	before := d.Stats()
	bigBurst(ep0)
	after := d.Stats()
	// Send side, checked before any polling so no ack traffic interferes:
	// three datagrams, one syscall.
	if n := after.DatagramsSent - before.DatagramsSent; n != 3 {
		t.Fatalf("burst sent %d datagrams, want 3", n)
	}
	if n := after.SendmmsgCalls - before.SendmmsgCalls; n != 1 {
		t.Errorf("3-frame burst cost %d sendmmsg calls, want 1", n)
	}
	if after.SendBatchHighWater < 3 {
		t.Errorf("SendBatchHighWater = %d, want >= 3", after.SendBatchHighWater)
	}

	// Receive side: the reader goroutine drains the socket on its own
	// schedule, so a single burst may be split across wakeups. Flood with
	// back-to-back three-frame bursts until one recvmmsg observes at least
	// two queued datagrams.
	deadline := time.Now().Add(5 * time.Second)
	for d.Stats().RecvBatchHighWater < 2 {
		if time.Now().After(deadline) {
			t.Fatal("no recvmmsg ever drained more than one datagram")
		}
		bigBurst(ep0)
		ep1.Poll() // drain the inbox so pooled buffers recycle
	}
	s := d.Stats()
	if s.RecvmmsgCalls == 0 {
		t.Error("RecvmmsgCalls = 0 with the vectorized path live")
	}
	// At least one call drained >= 2 frames and every call drains >= 1,
	// so the syscall count must run strictly behind the datagram count:
	// the amortization itself.
	if s.RecvmmsgCalls >= s.RecvBatchFrames {
		t.Errorf("no receive amortization: %d recvmmsg calls for %d frames",
			s.RecvmmsgCalls, s.RecvBatchFrames)
	}
}

// TestBatchFallbackSequential runs the portable one-at-a-time adapter —
// the only datapath off Linux — behind the same interface, through the
// newDomain seam: traffic still flows, and the mmsg counters stay zero,
// proving which datapath served it.
func TestBatchFallbackSequential(t *testing.T) {
	d, err := newDomain(Config{Ranks: 2, Conduit: UDP},
		func(c *net.UDPConn, _ *Domain) batchConn { return seqConn{c} })
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	received := 0
	d.RegisterHandler(HandlerUserBase, func(*Endpoint, *Msg) { received++ })
	ep0, ep1 := d.Endpoint(0), d.Endpoint(1)
	bigBurst(ep0)
	deadline := time.Now().Add(2 * time.Second)
	for received < 3 && time.Now().Before(deadline) {
		ep1.Poll()
	}
	if received != 3 {
		t.Fatalf("delivered %d of 3", received)
	}
	s := d.Stats()
	if s.DatagramsSent != 3 {
		t.Errorf("DatagramsSent = %d, want 3", s.DatagramsSent)
	}
	if s.SendmmsgCalls != 0 || s.RecvmmsgCalls != 0 {
		t.Errorf("sequential fallback bumped mmsg counters: send %d, recv %d",
			s.SendmmsgCalls, s.RecvmmsgCalls)
	}
}

// recordingConn captures every write for inspection, standing in for the
// real socket adapter under the fault shim.
type recordingConn struct {
	batches [][][]byte // one inner slice of frame-byte copies per WriteBatch
	singles [][]byte
}

func (r *recordingConn) WriteToUDPAddrPort(b []byte, _ netip.AddrPort) (int, error) {
	r.singles = append(r.singles, append([]byte(nil), b...))
	return len(b), nil
}

func (r *recordingConn) WriteBatch(frames []batchFrame) error {
	var batch [][]byte
	for _, fr := range frames {
		batch = append(batch, append([]byte(nil), fr.b...))
	}
	r.batches = append(r.batches, batch)
	return nil
}

// frames builds a batch of single-byte frames with the given tags.
func testFrames(tags ...byte) []batchFrame {
	out := make([]batchFrame, len(tags))
	for i, tag := range tags {
		out[i] = batchFrame{b: []byte{tag}}
	}
	return out
}

// TestFaultConnWriteBatch pins the per-frame fault semantics of the
// vectorized write: each staged frame draws its own verdict exactly as if
// written alone — drops vanish from the batch, duplicates appear twice,
// reorder-held frames release behind a later batch's survivors.
func TestFaultConnWriteBatch(t *testing.T) {
	fd := &Domain{} // counters only; no transport behind it

	t.Run("drop", func(t *testing.T) {
		rec := &recordingConn{}
		fc := newFaultConn(rec, FaultConfig{Drop: 1}, 0, fd)
		if err := fc.WriteBatch(testFrames(1, 2, 3)); err != nil {
			t.Fatal(err)
		}
		if len(rec.batches) != 0 || len(rec.singles) != 0 {
			t.Errorf("dropped batch still reached the wire: %v", rec.batches)
		}
	})

	t.Run("dup", func(t *testing.T) {
		rec := &recordingConn{}
		fc := newFaultConn(rec, FaultConfig{Dup: 1}, 0, fd)
		if err := fc.WriteBatch(testFrames(1, 2)); err != nil {
			t.Fatal(err)
		}
		if len(rec.batches) != 1 {
			t.Fatalf("got %d batches, want 1", len(rec.batches))
		}
		want := []byte{1, 1, 2, 2}
		got := rec.batches[0]
		if len(got) != len(want) {
			t.Fatalf("duplicated batch has %d frames, want %d", len(got), len(want))
		}
		for i, fr := range got {
			if fr[0] != want[i] {
				t.Errorf("frame %d = %d, want %d (each frame twice, in order)", i, fr[0], want[i])
			}
		}
	})

	t.Run("reorder", func(t *testing.T) {
		rec := &recordingConn{}
		fc := newFaultConn(rec, FaultConfig{Reorder: 1}, 0, fd)
		// All three frames are held: nothing survives, nothing is written.
		if err := fc.WriteBatch(testFrames(1, 2, 3)); err != nil {
			t.Fatal(err)
		}
		if len(rec.batches) != 0 {
			t.Fatalf("held frames written immediately: %v", rec.batches)
		}
		// A later fault-free batch flushes the holdback behind its own
		// survivors: [4, 1, 2, 3].
		fc.setConfig(FaultConfig{})
		if err := fc.WriteBatch(testFrames(4)); err != nil {
			t.Fatal(err)
		}
		if len(rec.batches) != 1 {
			t.Fatalf("got %d batches, want 1", len(rec.batches))
		}
		want := []byte{4, 1, 2, 3}
		got := rec.batches[0]
		if len(got) != len(want) {
			t.Fatalf("release batch has %d frames, want %d", len(got), len(want))
		}
		for i, fr := range got {
			if fr[0] != want[i] {
				t.Errorf("frame %d = %d, want %d (held frames ride behind survivors)", i, fr[0], want[i])
			}
		}
	})

	t.Run("holdback-bound", func(t *testing.T) {
		rec := &recordingConn{}
		fc := newFaultConn(rec, FaultConfig{Reorder: 1}, 0, fd)
		// Ten frames against a holdback bound of faultMaxHeld (8): the
		// first eight are held, the overflow passes through — and passing
		// through releases the held eight behind it, all in one batch.
		if err := fc.WriteBatch(testFrames(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)); err != nil {
			t.Fatal(err)
		}
		if len(rec.batches) != 1 {
			t.Fatalf("got %d batches, want 1", len(rec.batches))
		}
		want := []byte{9, 10, 1, 2, 3, 4, 5, 6, 7, 8}
		got := rec.batches[0]
		if len(got) != len(want) {
			t.Fatalf("batch has %d frames, want %d", len(got), len(want))
		}
		for i, fr := range got {
			if fr[0] != want[i] {
				t.Errorf("frame %d = %d, want %d", i, fr[0], want[i])
			}
		}
	})
}

// nopConn is a socket adapter that discards every write without
// allocating.
type nopConn struct{}

func (nopConn) WriteToUDPAddrPort(b []byte, _ netip.AddrPort) (int, error) { return len(b), nil }
func (nopConn) WriteBatch([]batchFrame) error                              { return nil }

// TestFaultConnSurvivorsForwardAsIs: an armed shim whose frames draw
// "deliver once" forwards them as they are, in both write forms, and
// allocates nothing for a drop-only profile (make test-loss and the lossy
// benchmark run every datagram through it). The drop schedule stays one
// PCG draw per frame in write order: the frames reaching the socket over
// 1,000 writes are exactly a re-simulation's from the shim's seed.
func TestFaultConnSurvivorsForwardAsIs(t *testing.T) {
	fd := &Domain{} // counters only; no transport behind it
	cfg := FaultConfig{Drop: 0.3, Seed: 5}
	const rank = 1

	t.Run("allocs", func(t *testing.T) {
		if raceEnabled {
			t.Skip("allocation counts differ under the race detector")
		}
		fc := newFaultConn(nopConn{}, cfg, rank, fd)
		b := []byte{1}
		if n := testing.AllocsPerRun(1000, func() { fc.WriteToUDPAddrPort(b, netip.AddrPort{}) }); n != 0 {
			t.Errorf("WriteToUDPAddrPort: %v allocs per write, want 0", n)
		}
		frames := testFrames(1, 2, 3, 4)
		for i := 0; i < 100; i++ {
			fc.WriteBatch(frames) // the first batch with a drop sizes the scratch list
		}
		if n := testing.AllocsPerRun(1000, func() { fc.WriteBatch(frames) }); n != 0 {
			t.Errorf("WriteBatch: %v allocs per batch, want 0", n)
		}
	})

	t.Run("schedule", func(t *testing.T) {
		for _, batched := range []bool{false, true} {
			rec := &recordingConn{}
			fc := newFaultConn(rec, cfg, rank, fd)
			sim := rand.New(rand.NewPCG(uint64(cfg.Seed), uint64(rank)+0x9e3779b97f4a7c15))
			var want []uint16
			var batch []batchFrame
			for i := uint16(0); i < 1000; i++ {
				if sim.Float64() >= cfg.Drop {
					want = append(want, i)
				}
				b := binary.LittleEndian.AppendUint16(nil, i)
				if !batched {
					fc.WriteToUDPAddrPort(b, netip.AddrPort{})
					continue
				}
				if batch = append(batch, batchFrame{b: b}); len(batch) == 4 {
					fc.WriteBatch(batch)
					batch = batch[:0]
				}
			}
			got := make([]uint16, 0, len(want))
			for _, b := range slices.Concat(append(rec.batches, rec.singles)...) {
				got = append(got, binary.LittleEndian.Uint16(b))
			}
			if !slices.Equal(got, want) {
				t.Errorf("batched=%v: %d frames reached the socket, the re-simulation delivers %d (or a different set)",
					batched, len(got), len(want))
			}
		}
	})
}

// TestBatchDeliveryCorruptFrame drives a multi-frame vectorized write
// containing a corrupt datagram through real sockets: the valid
// (sequenced) frames must be delivered, the corrupt one counted and
// dropped — the kernel-facing half of the FuzzDecodeDatagram contract,
// now under recvmmsg delivery. The explicit zero Fault shields the
// hand-written frames from a suite-wide loss preset: they bypass the
// retransmission queue, so a drop would be final.
func TestBatchDeliveryCorruptFrame(t *testing.T) {
	d := newTestDomain(t, Config{Ranks: 2, Conduit: UDP, Fault: &FaultConfig{}})
	defer d.Close()
	var got []uint64
	d.RegisterHandler(HandlerUserBase, func(_ *Endpoint, m *Msg) { got = append(got, m.A0) })
	ep1 := d.Endpoint(1)

	// valid is rank 0's next sequenced frame, sealed by its send stream
	// (so rank 1's acks of it are well-formed) but written below.
	valid := func(a0 uint64) *wireBuf {
		m := Msg{Handler: HandlerUserBase, From: 0, A0: a0}
		wb := d.arena.get(bufClassLarge)
		wb.b = appendMsg(append(wb.b[:relHeaderLen], frameSingle), &m)
		if ok, _ := d.rel.trySeal(d.eps[0].host, 1, wb); !ok {
			t.Fatal("seal refused")
		}
		return wb
	}
	one, two := valid(1), valid(2)
	defer one.release()
	defer two.release()
	frames := []batchFrame{
		{b: one.b, addr: d.udp.addrOf(1)},
		{b: []byte{0xEE, 0xBA, 0xD0}, addr: d.udp.addrOf(1)}, // unknown tag
		{b: two.b, addr: d.udp.addrOf(1)},
	}
	if err := d.eps[0].host.send.WriteBatch(frames); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(got) < 2 && time.Now().Before(deadline) {
		ep1.Poll()
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("delivered %v, want [1 2]", got)
	}
	if n := d.Stats().DecodeErrors; n != 1 {
		t.Errorf("DecodeErrors = %d, want 1", n)
	}
}
