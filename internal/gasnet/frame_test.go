package gasnet

import (
	"encoding/binary"
	"net"
	"slices"
	"testing"
	"time"
)

// TestFrameDelivery pins the unit of UDP delivery: a received frame is one
// inbox entry, and its messages are decoded in place by the owner.
//
// crafted hands rank 1 sequenced frames that mix a put, a get and an
// atomic request, a get reply and a user message, on a domain whose
// sockets carry nothing else. PollInternal applies the three requests and
// holds the other two, in order, each on its own reference to the frame's
// buffer; the next Poll dispatches them, and the buffer goes back to its
// arena. A second frame is dispatched whole by one Poll, in wire order.
// Each frame is one ring push, a wire message with the reserved id hFrame
// is still one message, and a received frame of user messages costs no
// allocation.
//
// wire sends bursts of user messages from rank 0 to rank 1 over real
// sockets under whatever fault preset the environment arms (make
// test-fault): whatever the shim drops, duplicates or reorders, rank 1
// sees every message once, in send order, and its inbox takes one entry
// per datagram rank 0 sent.
func TestFrameDelivery(t *testing.T) {
	t.Run("crafted", func(t *testing.T) {
		d, err := newDomain(Config{
			Ranks: 2, Conduit: UDP, Fault: &FaultConfig{},
			SuspectAfter: time.Hour, DownAfter: time.Hour,
		}, func(c *net.UDPConn, _ *Domain) batchConn { return isolatedConn{seqConn{c}} })
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		ep1 := d.Endpoint(1)
		var order []uint8
		for _, id := range []uint8{hPutReq, hGetReq, hAmoReq, hGetRep} {
			inner := d.handlers[id]
			d.handlers[id] = func(ep *Endpoint, m *Msg) {
				order = append(order, m.Handler)
				inner(ep, m)
			}
		}
		var users []uint64
		d.RegisterHandler(HandlerUserBase, func(_ *Endpoint, m *Msg) {
			if cap(m.Payload) != len(m.Payload) {
				t.Errorf("user payload: cap %d, len %d", cap(m.Payload), len(m.Payload))
			}
			order = append(order, m.Handler)
			users = append(users, m.A0)
		})

		seg := ep1.Segment()
		got := make([]byte, 4)
		gets := 0
		seq := uint32(0)
		// mixed returns rank 0's next sequenced frame to rank 1: a put of
		// tag at offset 0, a get of it, a fetch-add of one on the word at
		// offset 8, the reply to a get rank 1 has outstanding, and a user
		// message carrying tag.
		mixed := func(tag byte) []byte {
			seq++
			cookie, _ := ep1.startOp(hGetRep, 0, got, func(err error) {
				if err != nil {
					t.Errorf("get reply: %v", err)
				}
				gets++
			})
			msgs := []Msg{
				{Handler: hPutReq, A0: 1, A1: 0, Payload: []byte{tag, tag, tag, tag}},
				{Handler: hGetReq, A0: 2, A1: 0, A2: 4},
				{Handler: hAmoReq, A0: 3, A1: 8 | uint64(AmoAdd)<<32, A2: 1},
				{Handler: hGetRep, A0: cookie, Payload: []byte{tag, 0, 0, tag}},
				{Handler: HandlerUserBase, A0: uint64(tag), Payload: []byte("user")},
			}
			b := append(seqHdr(0, 1, seq, 0), frameBatch, byte(len(msgs)), 0)
			for i := range msgs {
				enc := encodeMsg(nil, &msgs[i])
				b = binary.LittleEndian.AppendUint32(b, uint32(len(enc)))
				b = append(b, enc...)
			}
			return b
		}
		wantOrder := []uint8{hPutReq, hGetReq, hAmoReq, hGetRep, HandlerUserBase}

		// First frame: internal progress, then user-level progress. The
		// buffer comes from an arena of its own, so nothing else can take
		// it back out before its references are counted.
		var own bufArena
		wb := own.get(bufClassLarge)
		wb.b = append(wb.b[:0], mixed(0x11)...)
		before := d.Stats()
		d.receiveDatagram(ep1, wb)
		if n := ep1.PollInternal(); n != 3 {
			t.Errorf("PollInternal applied %d messages, want the 3 requests", n)
		}
		if !slices.Equal(order, wantOrder[:3]) {
			t.Errorf("PollInternal dispatched %v, want %v", order, wantOrder[:3])
		}
		if len(ep1.held) != 2 || ep1.held[0].Handler != hGetRep || ep1.held[1].Handler != HandlerUserBase {
			t.Fatalf("PollInternal held %d messages, want the reply and the user message in order", len(ep1.held))
		}
		if r := wb.refs.Load(); r != 2 {
			t.Errorf("frame buffer holds %d references after PollInternal, want one per held message (2)", r)
		}
		if w := *seg.WordAt(0); w != 0x11111111 {
			t.Errorf("put landed %#x", w)
		}
		if w := *seg.WordAt(8); w != 1 {
			t.Errorf("fetch-add left %d, want 1", w)
		}
		if n := ep1.Poll(); n != 2 {
			t.Errorf("Poll after PollInternal dispatched %d messages, want the 2 held", n)
		}
		if !slices.Equal(order, wantOrder) || gets != 1 || got[0] != 0x11 || !slices.Equal(users, []uint64{0x11}) {
			t.Errorf("dispatched %v (gets %d, reply %x, users %v), want %v", order, gets, got, users, wantOrder)
		}
		if r := wb.refs.Load(); r != 0 {
			t.Errorf("frame buffer holds %d references after its held messages ran, want 0", r)
		}

		// Second frame: one Poll dispatches the whole frame in wire order.
		order = order[:0]
		wb = d.arena.get(bufClassLarge)
		wb.b = append(wb.b[:0], mixed(0x22)...)
		d.receiveDatagram(ep1, wb)
		if n := ep1.Poll(); n != len(wantOrder) {
			t.Errorf("Poll dispatched %d messages, want %d", n, len(wantOrder))
		}
		if !slices.Equal(order, wantOrder) || gets != 2 || got[3] != 0x22 || *seg.WordAt(8) != 2 {
			t.Errorf("dispatched %v (gets %d, reply %x), want %v", order, gets, got, wantOrder)
		}
		after := d.Stats()
		if pushes := after.RingPushes + after.BacklogSpills - before.RingPushes - before.BacklogSpills; pushes != 2 {
			t.Errorf("%d inbox entries for 2 frames of %d messages, want 2", pushes, len(wantOrder))
		}
		if after.DecodeErrors != before.DecodeErrors {
			t.Errorf("%d decode errors", after.DecodeErrors-before.DecodeErrors)
		}

		// A wire message with the reserved id is one message of its frame,
		// not a frame: no handler is registered for it, so it is counted
		// and dropped.
		seq++
		reserved := Msg{Handler: hFrame, A0: 1}
		wb = d.arena.get(bufClassLarge)
		wb.b = append(append(wb.b[:0], seqHdr(0, 1, seq, 0)...), appendBatch(nil, &reserved, 1)...)
		d.receiveDatagram(ep1, wb)
		if n := ep1.Poll(); n != 1 || d.Stats().BadHandlerDrops != before.BadHandlerDrops+1 {
			t.Errorf("Poll of a reserved-id message: %d dispatched, %d dropped; want 1 and 1",
				n, d.Stats().BadHandlerDrops-before.BadHandlerDrops)
		}

		// A frame of user messages: receiving and dispatching it allocates
		// nothing. (The requests above reply, and a reply's frame waits in
		// the send window for an ack this isolated peer never sends.)
		user := Msg{Handler: HandlerUserBase, A0: 7, Payload: []byte("user")}
		frame := append(seqHdr(0, 1, 0, 0), appendBatch(nil, &user, 16)...)
		dispatched := 0
		allocs := testing.AllocsPerRun(200, func() {
			seq++
			wb := d.arena.get(bufClassLarge)
			wb.b = append(wb.b[:0], frame...)
			binary.LittleEndian.PutUint32(wb.b[7:11], seq)
			d.receiveDatagram(ep1, wb)
			dispatched += ep1.Poll()
		})
		if dispatched != 201*16 {
			t.Errorf("%d user messages dispatched, want %d", dispatched, 201*16)
		}
		if !raceEnabled && allocs != 0 {
			t.Errorf("%.1f allocations per received frame, want 0", allocs)
		}
	})

	t.Run("wire", func(t *testing.T) {
		d := newTestDomain(t, Config{Ranks: 2, Conduit: UDP})
		defer d.Close()
		var got []uint64
		d.RegisterHandler(HandlerUserBase, func(_ *Endpoint, m *Msg) { got = append(got, m.A0) })
		ep0, ep1 := d.Endpoint(0), d.Endpoint(1)
		const bursts, perBurst = 20, 50
		n := 0
		for b := 0; b < bursts; b++ {
			for i := 0; i < perBurst; i++ {
				ep0.Send(1, Msg{Handler: HandlerUserBase, A0: uint64(b*perBurst + i), Payload: []byte("frame")})
			}
			ep0.Flush()
		}
		for deadline := time.Now().Add(20 * time.Second); n < bursts*perBurst && time.Now().Before(deadline); {
			ep0.Poll()
			if k := ep1.Poll(); k > 0 {
				n += k
			} else {
				ep1.Idle()
			}
		}
		want := make([]uint64, bursts*perBurst)
		for i := range want {
			want[i] = uint64(i)
		}
		if n != len(want) || !slices.Equal(got, want) {
			t.Fatalf("Poll counted %d messages and dispatched %d, want all %d once, in send order",
				n, len(got), len(want))
		}
		s := d.Stats()
		t.Logf("%d datagrams, %d faults injected, %d retransmits, %d duplicates dropped",
			s.DatagramsSent, s.FaultsInjected, s.Retransmits, s.DupsDropped)
		if pushes := s.RingPushes + s.BacklogSpills; pushes != s.DatagramsSent {
			t.Errorf("%d inbox entries for %d datagrams (%d messages), want one per datagram",
				pushes, s.DatagramsSent, len(want))
		}
	})
}

// TestForgedFrameMessagesDropped: a sequenced frame from an authenticated
// peer can still carry anything in its messages. One with the reserved id
// hHeldFn has no closure off the wire, so it is counted in BadHandlerDrops
// and dropped, not run. A request whose body names a sender out of range
// is answered to the frame's sender: a reply addressed by the body's field
// would index past the coalescer's destinations. The rank keeps running.
func TestForgedFrameMessagesDropped(t *testing.T) {
	d, err := newDomain(Config{
		Ranks: 2, Conduit: UDP, Fault: &FaultConfig{},
		SuspectAfter: time.Hour, DownAfter: time.Hour,
	}, func(c *net.UDPConn, _ *Domain) batchConn { return isolatedConn{seqConn{c}} })
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ep1 := d.Endpoint(1)
	var from []int32
	inner := d.handlers[hGetReq]
	d.handlers[hGetReq] = func(ep *Endpoint, m *Msg) {
		from = append(from, m.From)
		inner(ep, m)
	}
	msgs := []Msg{
		{Handler: hHeldFn, From: 0},
		{Handler: hGetReq, From: 77, A0: 1, A2: 4},
	}
	b := append(seqHdr(0, 1, 1, 0), frameBatch, byte(len(msgs)), 0)
	for i := range msgs {
		enc := encodeMsg(nil, &msgs[i])
		b = binary.LittleEndian.AppendUint32(b, uint32(len(enc)))
		b = append(b, enc...)
	}
	wb := d.arena.get(bufClassLarge)
	wb.b = append(wb.b[:0], b...)
	before := d.Stats()
	d.receiveDatagram(ep1, wb)
	if n := ep1.Poll(); n != 2 {
		t.Errorf("Poll dispatched %d messages, want 2", n)
	}
	after := d.Stats()
	if n := after.BadHandlerDrops - before.BadHandlerDrops; n != 1 {
		t.Errorf("BadHandlerDrops rose by %d, want 1 (the hHeldFn message)", n)
	}
	if !slices.Equal(from, []int32{0}) {
		t.Errorf("the get request was dispatched from %v, want from the frame's sender [0]", from)
	}
	if n := after.DatagramsSent - before.DatagramsSent; n != 1 {
		t.Errorf("%d datagrams sent, want 1: the get reply to rank 0", n)
	}
}
