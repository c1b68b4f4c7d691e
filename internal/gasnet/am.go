package gasnet

import (
	"encoding/binary"
	"fmt"

	"gupcxx/internal/serial"
)

// Handler identifiers for the substrate's internal protocol. User-level
// layers (the gupcxx runtime) register additional handlers starting at
// HandlerUserBase.
const (
	hPutReq uint8 = iota // put request: apply payload at offset
	hPutAck              // cumulative reply or nack: complete value-less ops (rma.go)
	hGetReq              // get request: read range, reply with data
	hGetRep              // get reply: deliver data, complete outstanding op
	hAmoReq              // atomic request: apply op; a fetching one replies with the old value
	hAmoRep              // atomic or closure-put reply: deliver old value, complete op
	hHeldFn              // held remote-completion closure (PollInternal)
	hFrame               // one received UDP frame: an inbox entry, never a wire message (udp.go)

	// HandlerUserBase is the first handler ID available to higher layers.
	HandlerUserBase = 16

	// MaxHandlers bounds the handler table size.
	MaxHandlers = 64
)

// Msg is an active message. Internal-protocol messages are fully described
// by (Handler, A0..A3, Payload) and are round-trippable through the serial
// wire encoding; Fn is an in-memory extension used for closure-carrying
// user-level RPC on co-located ranks (a network conduit for separate address
// spaces would instead require registered handlers, which is exactly what
// the internal protocol demonstrates).
type Msg struct {
	Handler uint8
	From    int32 // sender rank
	A0      uint64
	A1      uint64
	A2      uint64
	A3      uint64
	Payload []byte
	Fn      func(*Endpoint) // closure payload; nil for wire messages

	readyAt int64 // SIM conduit release time (0 = immediately deliverable)

	// buf, when set, is the pooled wire buffer Payload aliases; the Msg
	// owns one reference on it, dropped by release after dispatch. See
	// pool.go for the ownership rules.
	buf *wireBuf
}

// release drops the message's reference on its pooled wire buffer, if any.
// After release, Payload must not be read.
func (m *Msg) release() {
	if wb := m.buf; wb != nil {
		m.buf = nil
		wb.release()
	}
}

// HandlerFunc processes one delivered active message on the receiving
// endpoint's progress goroutine.
type HandlerFunc func(ep *Endpoint, m *Msg)

// encodeMsg serializes a wire message (one with Fn == nil) into buf,
// returning the encoded bytes.
func encodeMsg(buf []byte, m *Msg) []byte {
	e := serial.NewEncoder(buf)
	e.PutU8(m.Handler)
	e.PutU32(uint32(m.From))
	e.PutU64(m.A0)
	e.PutU64(m.A1)
	e.PutU64(m.A2)
	e.PutU64(m.A3)
	e.PutRaw(m.Payload) // extends to end of message
	return e.Bytes()
}

// wireHeaderLen is the encoded size of a wire message's fixed fields
// (handler, from, A0..A3); the payload follows to the end of the frame.
const wireHeaderLen = 1 + 4 + 4*8

// appendMsg appends m's wire encoding to dst (which, unlike encodeMsg, is
// not reset first) — the building block of coalesced datagrams.
func appendMsg(dst []byte, m *Msg) []byte {
	dst = append(dst, m.Handler)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.From))
	dst = binary.LittleEndian.AppendUint64(dst, m.A0)
	dst = binary.LittleEndian.AppendUint64(dst, m.A1)
	dst = binary.LittleEndian.AppendUint64(dst, m.A2)
	dst = binary.LittleEndian.AppendUint64(dst, m.A3)
	return append(dst, m.Payload...)
}

// decodeMsg parses a wire message produced by encodeMsg. The returned
// message's Payload aliases b.
func decodeMsg(b []byte) (Msg, error) {
	var m Msg
	if !decodeWire(&m, b) {
		return Msg{}, fmt.Errorf("gasnet: bad wire message: %d bytes, header needs %d", len(b), wireHeaderLen)
	}
	return m, nil
}

// decodeWire reads the wire message body into m's wire fields (Handler,
// From, A0..A3, Payload), reporting false when body is too short for the
// fixed header. Payload aliases body and ends where body ends, capacity
// included: a handler that appends to it reallocates rather than writing
// over whatever follows body in its buffer — in a received frame, the next
// message.
func decodeWire(m *Msg, body []byte) bool {
	if len(body) < wireHeaderLen {
		return false
	}
	m.Handler = body[0]
	m.From = int32(binary.LittleEndian.Uint32(body[1:]))
	m.A0 = binary.LittleEndian.Uint64(body[5:])
	m.A1 = binary.LittleEndian.Uint64(body[13:])
	m.A2 = binary.LittleEndian.Uint64(body[21:])
	m.A3 = binary.LittleEndian.Uint64(body[29:])
	m.Payload = body[wireHeaderLen:len(body):len(body)]
	return true
}
