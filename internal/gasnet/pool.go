package gasnet

import (
	"sync"
	"sync/atomic"
)

// The wire-buffer arena removes per-message heap allocation from the
// substrate's injection and delivery paths: every encoded datagram, every
// received datagram, and every staged RMA payload lives in a recycled,
// size-classed buffer. Ownership is reference-counted because one received
// datagram may carry several coalesced messages, and internal-level
// progress may hold some of them across polls.
//
// Ownership rules (see also DESIGN.md §7):
//
//   - arena.get returns a buffer with one reference, owned by the caller.
//   - A Msg whose buf field is set owns one reference; whoever consumes the
//     message (the dispatch loop, after the handler returns) releases it.
//   - A received UDP frame is one inbox entry owning one reference. Its
//     messages borrow it for their dispatch, and the owner releases it
//     after the last handler returns; a message PollInternal holds for
//     the next Poll is a copy with a reference of its own.
//   - Handlers therefore may read Msg.Payload for the duration of the call
//     only; retaining the bytes requires a copy.
//   - The reliability layer's retransmission queue (reliable.go) holds one
//     reference on every sequenced datagram it may need to re-send,
//     released when the peer's cumulative ack covers it; the receive-side
//     reorder buffer likewise holds its parked datagrams' references until
//     delivery or duplicate/out-of-window drop.
//   - A buffer reaching zero references returns to its pool; its bytes may
//     be reused by any later get, on any goroutine.

// Buffer size classes. Small covers the entire internal protocol (a wire
// message is 37 header bytes plus payload; puts/gets/AMOs move at most a
// few words on the AM path) and typical RPC arguments; large covers a full
// UDP datagram, which is also the ceiling for any single wire message.
const (
	bufClassSmall = 512
	bufClassLarge = maxUDPPayload + 256
)

// wireBuf is one pooled buffer plus its reference count. The refs field
// only matters for buffers shared by several messages (a coalesced
// datagram); the common case is get → use → release with refs pinned at 1.
type wireBuf struct {
	b     []byte
	arena *bufArena
	class int8 // 0 small, 1 large, -1 unpooled (oversize)
	refs  atomic.Int32
}

// retain adds n references (a retransmission queue's hold on a frame, a
// held copy of one message of a received frame).
func (wb *wireBuf) retain(n int32) { wb.refs.Add(n) }

// release drops one reference, recycling the buffer when it was the last.
func (wb *wireBuf) release() {
	if wb.refs.Add(-1) == 0 && wb.arena != nil {
		wb.arena.put(wb)
	}
}

// bufArena is a per-Domain pool of wire buffers with hit/miss accounting.
type bufArena struct {
	small sync.Pool
	large sync.Pool

	hits   atomic.Int64
	misses atomic.Int64
}

// get returns a buffer of length n with one reference. Requests beyond the
// large class fall back to a plain allocation that release simply drops.
func (a *bufArena) get(n int) *wireBuf {
	var p *sync.Pool
	var class int8
	var size int
	switch {
	case n <= bufClassSmall:
		p, class, size = &a.small, 0, bufClassSmall
	case n <= bufClassLarge:
		p, class, size = &a.large, 1, bufClassLarge
	default:
		a.misses.Add(1)
		wb := &wireBuf{b: make([]byte, n), arena: a, class: -1}
		wb.refs.Store(1)
		return wb
	}
	if v := p.Get(); v != nil {
		wb := v.(*wireBuf)
		a.hits.Add(1)
		wb.b = wb.b[:n]
		wb.refs.Store(1)
		return wb
	}
	a.misses.Add(1)
	wb := &wireBuf{b: make([]byte, size)[:n], arena: a, class: class}
	wb.refs.Store(1)
	return wb
}

// put returns wb to its pool. Oversize buffers are dropped for the GC.
func (a *bufArena) put(wb *wireBuf) {
	switch wb.class {
	case 0:
		wb.b = wb.b[:cap(wb.b)]
		a.small.Put(wb)
	case 1:
		wb.b = wb.b[:cap(wb.b)]
		a.large.Put(wb)
	}
}
