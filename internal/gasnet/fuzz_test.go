package gasnet

import (
	"encoding/binary"
	"net"
	"net/netip"
	"testing"
	"time"
)

// seqHdr builds a sequenced frame's fixed prefix, as trySeal stamps it;
// the inner frame is appended by the caller.
func seqHdr(from uint16, inc, seq, ack uint32) []byte {
	b := make([]byte, relHeaderLen)
	b[0] = frameSeq
	binary.LittleEndian.PutUint16(b[1:3], from)
	binary.LittleEndian.PutUint32(b[3:7], inc)
	binary.LittleEndian.PutUint32(b[7:11], seq)
	binary.LittleEndian.PutUint32(b[11:15], ack)
	return b
}

// isolatedConn is a socket adapter that carries nothing: writes are
// dropped and every datagram read is discarded, so the only frames a
// domain built on it receives are the ones a test hands to
// receiveDatagram.
type isolatedConn struct{ seqConn }

func (isolatedConn) WriteToUDPAddrPort(b []byte, _ netip.AddrPort) (int, error) { return len(b), nil }

func (isolatedConn) WriteBatch([]batchFrame) error { return nil }

func (c isolatedConn) ReadBatch(views [][]byte, sizes []int) (int, error) {
	for {
		if _, err := c.seqConn.ReadBatch(views, sizes); err != nil {
			return 0, err
		}
	}
}

// FuzzDecodeMsg: arbitrary datagrams must either decode or error, never
// panic — the UDP conduit's reader trusts decodeMsg with kernel-delivered
// bytes.
func FuzzDecodeMsg(f *testing.F) {
	f.Add([]byte{})
	m := Msg{Handler: 3, From: 1, A0: 9, Payload: []byte("x")}
	f.Add(append([]byte(nil), encodeMsg(nil, &m)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeMsg(data)
		if err != nil {
			return
		}
		// A successful decode must re-encode to the identical bytes
		// (encode∘decode is the identity on valid wire messages).
		back := encodeMsg(nil, &got)
		if string(back) != string(data) {
			t.Fatalf("re-encode mismatch: %x vs %x", back, data)
		}
	})
}

// FuzzDecodeDatagram: arbitrary whole datagrams — any framing tag,
// sequenced or not, truncated anywhere — must be validated or rejected,
// never panic, and the two halves of the frame path must agree with
// decodeMsg applied message by message (refFrame). The reader's validation
// walk (scanFrame) must count exactly the valid prefix refFrame decodes,
// flag a corrupt suffix, and ask for a lazy ack only for a clean frame of
// replies; the owner's in-place decode (openFrame, decodeWire) must
// reproduce each of those messages field for field, with a payload that
// ends where its message ends. The reader drops a bare
// frameSingle/frameBatch before walking it (FuzzDecodeFrameSeq asserts
// that), but the walk is fuzzed on bare frames too, since the inner bytes
// are the same untrusted input.
func FuzzDecodeDatagram(f *testing.F) {
	m := Msg{Handler: HandlerUserBase, From: 0, A0: 42, Payload: []byte("fuzz")}

	single := append([]byte{frameSingle}, encodeMsg(nil, &m)...)
	f.Add(append([]byte(nil), single...))

	batch := []byte{frameBatch, 2, 0}
	for i := 0; i < 2; i++ {
		enc := encodeMsg(nil, &m)
		batch = append(batch, byte(len(enc)), byte(len(enc)>>8), byte(len(enc)>>16), byte(len(enc)>>24))
		batch = append(batch, enc...)
	}
	f.Add(append([]byte(nil), batch...))

	f.Add(append(seqHdr(0, 1, 1, 0), single...))

	// Bare frames with nothing behind the tag, and an empty bare batch.
	f.Add([]byte{frameSingle})
	f.Add([]byte{frameBatch})
	f.Add([]byte{frameBatch, 0, 0})

	f.Add([]byte{})
	f.Add([]byte{0xEE, 1, 2, 3})              // unknown tag
	f.Add([]byte{frameBatch, 9, 0, 1})        // count overruns frame
	f.Add(append([]byte(nil), single[:5]...)) // truncated message

	// Batch frames carry every UDP payload a sender emits: a GUPS-sized
	// batch of 512, a count of 65535 over two entries, and a batch cut
	// inside the second entry's length prefix.
	gups := appendBatch(nil, &m, 512)
	f.Add(gups)
	claimed := appendBatch(nil, &m, 2)
	claimed[1], claimed[2] = 0xff, 0xff
	f.Add(claimed)
	cut := appendBatch(nil, &m, 2)
	f.Add(cut[:len(cut)-len(encodeMsg(nil, &m))-2])

	replies := uint64(1<<hPutAck | 1<<hGetRep | 1<<hAmoRep)
	f.Fuzz(func(t *testing.T, data []byte) {
		frame := data
		if len(frame) > 0 && frame[0] == frameSeq {
			if _, _, _, _, err := parseRelHeader(frame); err != nil {
				return
			}
			frame = frame[relHeaderLen:]
		}
		want, wantCorrupt := refFrame(frame)
		n, level, corrupt := scanFrame(frame, replies)
		if n != len(want) || corrupt != wantCorrupt {
			t.Fatalf("scanFrame: %d valid, corrupt %v; decodeMsg: %d valid, corrupt %v",
				n, corrupt, len(want), wantCorrupt)
		}
		wantLevel := uint32(ackLazy)
		for _, m := range want {
			if replies&(1<<m.Handler) == 0 {
				wantLevel = ackUrgent
			}
		}
		if corrupt {
			wantLevel = ackUrgent
		}
		if level != wantLevel {
			t.Fatalf("scanFrame ack level %d, want %d", level, wantLevel)
		}
		walk, _ := openFrame(frame)
		for i := range want {
			body, ok := walk.next()
			var got Msg
			if !ok || !decodeWire(&got, body) {
				t.Fatalf("message %d of %d: the owner's walk stopped", i, n)
			}
			if string(got.Payload) != string(want[i].Payload) || cap(got.Payload) != len(got.Payload) ||
				cap(want[i].Payload) != len(want[i].Payload) {
				t.Fatalf("message %d: payload %x (cap %d), decodeMsg %x (cap %d)",
					i, got.Payload, cap(got.Payload), want[i].Payload, cap(want[i].Payload))
			}
			if g, w := wireFields(&got), wireFields(&want[i]); g != w {
				t.Fatalf("message %d: %+v, decodeMsg %+v", i, got, want[i])
			}
		}
	})
}

// wireFields returns a message's fixed wire fields, comparable.
func wireFields(m *Msg) [6]uint64 {
	return [6]uint64{uint64(m.Handler), uint64(m.From), m.A0, m.A1, m.A2, m.A3}
}

// refFrame decodes a frameSingle/frameBatch frame message by message with
// decodeMsg, independently of frameWalk: the messages of its valid prefix,
// and whether anything past them (or the header) is corrupt.
func refFrame(frame []byte) (msgs []Msg, corrupt bool) {
	if len(frame) == 0 {
		return nil, true
	}
	switch frame[0] {
	case frameSingle:
		m, err := decodeMsg(frame[1:])
		if err != nil {
			return nil, true
		}
		return []Msg{m}, false
	case frameBatch:
		if len(frame) < batchHeaderLen {
			return nil, true
		}
		count := int(binary.LittleEndian.Uint16(frame[1:]))
		if count == 0 {
			return nil, true
		}
		rest := frame[batchHeaderLen:]
		for ; count > 0; count-- {
			if len(rest) < 4 || uint64(binary.LittleEndian.Uint32(rest)) > uint64(len(rest)-4) {
				return msgs, true
			}
			l := int(binary.LittleEndian.Uint32(rest))
			m, err := decodeMsg(rest[4 : 4+l])
			if err != nil {
				return msgs, true
			}
			msgs = append(msgs, m)
			rest = rest[4+l:]
		}
		return msgs, false
	}
	return nil, true
}

// appendBatch appends a frameBatch of n copies of m, framed exactly as the
// coalescer packs them.
func appendBatch(dst []byte, m *Msg, n int) []byte {
	dst = append(dst, frameBatch, byte(n), byte(n>>8))
	for i := 0; i < n; i++ {
		enc := encodeMsg(nil, m)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(enc)))
		dst = append(dst, enc...)
	}
	return dst
}

// FuzzDecodeFrameSeq drives arbitrary datagrams through the complete
// receive path of a live reliable domain — frameSeq header parse, the SACK
// trailer, ack processing, sequencing (deliver / park / shed / dup-drop),
// and the inner frame walk, including truncated and overlapping batch
// payloads.
// The contract under fuzz is counted-drop-never-panic: malformed input
// increments DecodeErrors (or one of the drop counters) and the domain
// keeps running — and a bare (unsequenced) frameSingle/frameBatch is one
// counted drop that dispatches nothing. Handlers are neutralized so
// forged internal-protocol messages (puts with hostile offsets) exercise
// the transport, not the segment bounds checks.
//
// The decode counters are domain-wide, so the domain's sockets carry
// nothing (isolatedConn): otherwise rank 0's reader would count rank 1's
// real acks for injected frames as forged, concurrently with the
// assertions. With no heartbeats, silence must not bury a peer either.
func FuzzDecodeFrameSeq(f *testing.F) {
	d, err := newDomain(Config{Ranks: 2, Conduit: UDP, SuspectAfter: time.Hour, DownAfter: time.Hour},
		func(c *net.UDPConn, _ *Domain) batchConn { return isolatedConn{seqConn{c}} })
	if err != nil {
		f.Fatal(err)
	}
	defer d.Close()
	dispatched := 0
	for i := range d.handlers {
		d.handlers[i] = func(*Endpoint, *Msg) { dispatched++ }
	}
	ep1 := d.Endpoint(1)

	m := Msg{Handler: HandlerUserBase, From: 0, A0: 7, Payload: []byte("seq")}
	inner := append([]byte{frameSingle}, encodeMsg(nil, &m)...)
	hdr := seqHdr
	// Well-formed in-order frame, a future (parked) frame, a duplicate, a
	// forged out-of-window sequence, and a standalone ack. The in-process
	// domain's incarnation is 1 (epoch 0 normalizes to 1).
	f.Add(append(hdr(0, 1, 1, 0), inner...))
	f.Add(append(hdr(0, 1, 5, 0), inner...))
	f.Add(append(hdr(0, 1, 1, 2), inner...))
	f.Add(append(hdr(0, 1, 1<<30, 0), inner...))
	f.Add(hdr(0, 1, 0, 99))
	// SACK trailers on standalone acks: a bitmap naming nothing, a
	// truncated and an oversized trailer, a bit naming a seq never sent
	// (rank 1 has sent nothing to rank 0), and a "SACK" behind a data
	// frame, which is just an inner frame that does not parse.
	f.Add(append(hdr(0, 1, 0, 0), make([]byte, sackLen)...))
	f.Add(append(hdr(0, 1, 0, 0), 1, 0, 0, 0))
	f.Add(append(hdr(0, 1, 0, 0), make([]byte, sackLen+1)...))
	f.Add(append(hdr(0, 1, 0, 0), 1, 0, 0, 0, 0, 0, 0, 0))
	f.Add(append(hdr(0, 1, 1, 0), 1, 0, 0, 0, 0, 0, 0, 0))
	// Stale and zero incarnations: dropped and counted, never delivered.
	f.Add(append(hdr(0, 2, 1, 0), inner...))
	f.Add(append(hdr(0, 0, 1, 0), inner...))
	// Bogus sender ranks and truncated headers.
	f.Add(append(hdr(9, 1, 1, 0), inner...))
	f.Add(hdr(0, 1, 3, 0)[:5])
	f.Add(hdr(0, 1, 3, 0)[:9])
	// Batch with overlapping/overrunning entry lengths inside a valid
	// sequenced header.
	enc := encodeMsg(nil, &m)
	batch := []byte{frameBatch, 2, 0}
	batch = append(batch, byte(len(enc)+50), byte((len(enc)+50)>>8), 0, 0)
	batch = append(batch, enc...)
	f.Add(append(hdr(0, 1, 2, 0), batch...))
	// Truncated batch payload: count promises more than the frame holds.
	f.Add(append(hdr(0, 1, 3, 0), frameBatch, 9, 0, 1, 2, 3))
	// Heartbeat and raw frames take the non-sequenced path: a well-formed
	// incarnation-bearing heartbeat, a stale one, and truncated stubs.
	f.Add([]byte{frameHB, 0, 0, 1, 0, 0, 0})
	f.Add([]byte{frameHB, 0, 0, 9, 9, 0, 0})
	f.Add([]byte{frameHB, 0, 0})
	f.Add([]byte{frameHB, 77})
	// Join frames (ignored outside multiproc worlds, but must parse
	// safely): well-formed, bad address, truncated, oversized length byte.
	join := []byte{frameJoin, 0, 0, 2, 0, 0, 0, 14}
	join = append(join, []byte("127.0.0.1:9999")...)
	f.Add(append([]byte(nil), join...))
	f.Add([]byte{frameJoin, 0, 0, 2, 0, 0, 0, 3, 'b', 'a', 'd'})
	f.Add([]byte{frameJoin, 0, 0, 2, 0, 0, 0, 200, 'x'})
	f.Add([]byte{frameJoin, 0, 0})
	// Partition probes: a well-formed probe and ack (current incarnation
	// is 1), a stale incarnation, a zero incarnation, a bogus sender rank,
	// an unknown kind byte, and truncated stubs.
	f.Add([]byte{frameProbe, 0, 0, 1, 0, 0, 0, probeKindProbe})
	f.Add([]byte{frameProbe, 0, 0, 1, 0, 0, 0, probeKindAck})
	f.Add([]byte{frameProbe, 0, 0, 9, 9, 0, 0, probeKindProbe})
	f.Add([]byte{frameProbe, 0, 0, 0, 0, 0, 0, probeKindProbe})
	f.Add([]byte{frameProbe, 9, 0, 1, 0, 0, 0, probeKindAck})
	f.Add([]byte{frameProbe, 0, 0, 1, 0, 0, 0, 0xEE})
	f.Add([]byte{frameProbe, 0, 0})
	f.Add([]byte{frameProbe})
	// Bare payload frames: nobody legitimately sends one.
	f.Add(inner)
	f.Add(append([]byte{frameBatch, 1, 0, byte(len(enc)), 0, 0, 0}, enc...))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > bufClassLarge {
			data = data[:bufClassLarge]
		}
		before := d.Stats()
		ran := dispatched
		wb := d.arena.get(bufClassLarge)
		wb.b = append(wb.b[:0], data...)
		d.receiveDatagram(ep1, wb)
		for i := 0; ep1.Poll() > 0 && i < 1<<10; i++ {
		}
		after := d.Stats()
		if after.DecodeErrors < before.DecodeErrors {
			t.Fatal("DecodeErrors went backwards")
		}
		if len(data) > 0 && (data[0] == frameSingle || data[0] == frameBatch) &&
			(dispatched != ran || after.DecodeErrors != before.DecodeErrors+1) {
			t.Fatalf("bare frame: %d dispatched, %d decode errors; want 0 and 1",
				dispatched-ran, after.DecodeErrors-before.DecodeErrors)
		}
		// A standalone ack carries no trailer or exactly a SACK bitmap.
		if _, _, seq, _, err := parseRelHeader(data); err == nil && seq == 0 {
			if n := len(data) - relHeaderLen; n != 0 && n != sackLen && after.DecodeErrors != before.DecodeErrors+1 {
				t.Fatalf("standalone ack with a %d-byte trailer: %d decode errors, want 1",
					n, after.DecodeErrors-before.DecodeErrors)
			}
		}
	})
}

// FuzzDispatchWire drives arbitrary internal-protocol messages — any
// handler id below HandlerUserBase, the reserved ones included — through
// the real handlers of a live endpoint that has value and value-less ops
// pending. (FuzzDecodeFrameSeq neutralizes the handlers, so forged replies
// never meet the op table or the completion queues there.) The input's
// first byte picks the progress call — Poll, or PollInternal then Poll —
// and each following fuzzMsgLen bytes decode into one message (see
// fuzzMsg); the messages ride one sequenced frame from rank 1 that rank 0
// receives. Whenever fewer than eight ops are pending, rank 0 starts one
// of each kind (put, atomic, get, fetching atomic) toward rank 1, which
// never answers: every reply rank 0 sees is forged. The contract is no
// panic, every done at most once, and PendingOps equal to the ops
// started minus the ops completed.
func FuzzDispatchWire(f *testing.F) {
	d, err := newDomain(Config{
		Ranks: 2, Conduit: UDP, Fault: &FaultConfig{}, SegmentBytes: 1 << 12,
		SuspectAfter: time.Hour, DownAfter: time.Hour,
	}, func(c *net.UDPConn, _ *Domain) batchConn { return isolatedConn{seqConn{c}} })
	if err != nil {
		f.Fatal(err)
	}
	defer d.Close()
	ep0 := d.Endpoint(0)
	started, completed, twice := 0, 0, 0
	op := func() func(error) {
		started++
		ran := false
		return func(error) {
			if ran {
				twice++
			}
			ran = true
			completed++
		}
	}
	var dst [2][8]byte
	seq := uint32(0)

	// Seeds: an hHeldFn message off the wire (it carries no closure), and
	// a cumulative reply beyond the queue's tail.
	f.Add([]byte{0, hHeldFn, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, hPutAck, 7, 0, 0, 0, 0, 0, 0})
	// A nack and a cumulative reply for live entries, a get reply and an
	// atomic reply for live cookies, and requests of every kind (a
	// value-less atomic, a put with a payload) — by Poll, and by
	// PollInternal then Poll.
	f.Add([]byte{0, hPutAck, 3, 0, 0, 0, 0, 1, 0, hPutAck, 3, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, hGetRep, 0, 0, 0, 0, 0, 0, 3, 1, 2, 3, hAmoRep, 1, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, hAmoReq, 1, 2, 1, 1, 5, 0, 0, hPutReq, 4, 1, 0, 0, 0, 0, 4, 9, 9, 9, 9, hGetReq, 2, 1, 0, 0, 8, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if ep0.PendingOps() < 8 {
			ep0.PutRemote(1, 0, []byte{1, 2, 3, 4, 5, 6, 7, 8}, nil, op())
			ep0.AmoRemote(1, 8, AmoAdd, 1, 0, nil, op())
			ep0.GetRemote(1, 16, 8, dst[0][:], op())
			ep0.AmoRemote(1, 24, AmoAdd, 1, 0, dst[1][:], op())
		}
		if len(data) == 0 {
			return
		}
		internal := data[0]&1 != 0
		var frame []byte
		count := 0
		for rest := data[1:]; len(rest) >= fuzzMsgLen && count < 64; count++ {
			var m Msg
			rest = fuzzMsg(&m, rest, ep0.cum.out[1].head)
			frame = binary.LittleEndian.AppendUint32(frame, uint32(wireHeaderLen+len(m.Payload)))
			frame = appendMsg(frame, &m)
		}
		if count > 0 {
			// The frame also acks everything rank 0 has sent rank 1, so
			// the replies it stages never fill the send window.
			p := d.peer(0, 1)
			p.mu.Lock()
			ack := p.nextSeq
			p.mu.Unlock()
			seq++
			wb := d.arena.get(bufClassLarge)
			wb.b = append(append(append(wb.b[:0], seqHdr(1, d.inc, seq, ack)...), frameBatch, byte(count), 0), frame...)
			d.receiveDatagram(ep0, wb)
			if internal {
				ep0.PollInternal()
			}
			ep0.Poll()
		}
		if twice != 0 {
			t.Fatalf("%d completion callbacks ran a second time", twice)
		}
		if n := ep0.PendingOps(); n != started-completed {
			t.Fatalf("PendingOps = %d, want %d started - %d completed", n, started, completed)
		}
	})
}

// fuzzMsgLen is how many input bytes fuzzMsg decodes into one message's
// fixed fields.
const fuzzMsgLen = 8

// fuzzMsg decodes the front of b into m and returns the rest. b[0] picks
// the handler id, modulo HandlerUserBase. b[1] picks A0: within two below
// and five above head, the cumulative queue's head toward rank 1, for the
// cumulative reply (hPutAck); below 8, where the op table's cookies live,
// for any other id. A1 is an 8-aligned offset (b[2]), an atomic op code
// (b[3]) and the value-less flag (b[4]); A2 is b[5]; A3 is b[6] modulo 4
// (a reply's status, a put's notify-argument length). The payload is the
// next b[7] modulo 16 bytes. From is forged too: the frame's sender
// replaces it.
func fuzzMsg(m *Msg, b []byte, head uint64) []byte {
	m.Handler = b[0] % HandlerUserBase
	m.From = int32(b[7])
	m.A0 = uint64(b[1] % 8)
	if m.Handler == hPutAck {
		m.A0 += head - 2
	}
	m.A1 = uint64(b[2])<<3 | uint64(b[3]%16)<<32 | uint64(b[4]&1)<<63
	m.A2 = uint64(b[5])
	m.A3 = uint64(b[6] % 4)
	n := min(int(b[7]%16), len(b)-fuzzMsgLen)
	m.Payload = b[fuzzMsgLen : fuzzMsgLen+n]
	return b[fuzzMsgLen+n:]
}
