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
