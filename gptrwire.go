package gupcxx

import (
	"fmt"

	"gupcxx/internal/gasnet"
)

// Wire encoding for global pointers: the form a GlobalPtr takes whenever
// it crosses the conduit as data (ExchangePtr, RPCWire arguments,
// RputNotify arguments, application payloads). In one address space a
// pointer could travel as anything the ranks agreed on; between
// processes it must be segment-relative and self-describing, and the
// decode side must treat it as untrusted input.
//
// The encoding packs one uint64:
//
//	[ rank u16 ][ segment id u16 ][ offset u32 ]
//	  63..48      47..32            31..0
//
// The segment id stamps which incarnation of the TARGET rank allocated
// the pointer — it is derived from that rank's epoch-stamped incarnation
// as this rank currently knows it (forced to 1 for epoch 0, so no live
// pointer ever encodes a zero segment field). A pointer into a rank that
// has since restarted (its readmitted incarnation carries a bumped
// epoch) decodes as a reject, not as a silent reference into a
// reincarnated segment whose allocations moved; a pointer into a rank
// this process has not yet heard from decodes permissively (its
// incarnation is still unknown) and is caught on first use by the
// conduit's stale-incarnation frame filtering instead. The null pointer
// encodes as 0 and decodes back to null unconditionally.
//
// DecodePtr validates rank range, segment id, and that the full object
// [off, off+sizeof(T)) lies inside the target's segment bounds; failures
// are counted (Stats.GptrRejects) and returned as errors — counted
// drops, never panics, the same discipline the substrate applies to
// every other untrusted wire field.

// worldSegID derives the 16-bit segment-id stamp from a world epoch.
// Epochs wider than 16 bits wrap; zero (no epoch distributed — the
// in-process conduits) maps to 1 so a valid pointer never encodes a zero
// segment field.
func worldSegID(epoch uint32) uint16 {
	id := uint16(epoch)
	if id == 0 {
		id = 1
	}
	return id
}

// segIDOf derives the segment-id stamp for pointers into rank's segment:
// the target's incarnation as this rank currently knows it. For self and
// for in-process worlds this is the world epoch (so nothing changes for
// single-address-space deployments); for a remote rank it is the
// incarnation recorded by the liveness layer, which a readmission
// advances.
func (r *Rank) segIDOf(rank int) uint16 {
	return worldSegID(r.w.dom.IncarnationOf(r.Me(), rank))
}

// EncodePtr packs p into the wire form, stamped with the target rank's
// current incarnation. The null pointer encodes as 0.
func EncodePtr[T any](r *Rank, p GlobalPtr[T]) uint64 {
	if p.Null() {
		return 0
	}
	return uint64(uint16(p.rank))<<48 | uint64(r.segIDOf(int(p.rank)))<<32 | uint64(p.off)
}

// DecodePtr unpacks a wire-form global pointer, validating it against
// r's world: the rank must exist, the segment id must match that rank's
// current incarnation stamp (unknown incarnations — a peer never heard
// from — decode permissively), and the whole object must lie inside the
// target rank's segment. 0 decodes to the null pointer. Failures are
// counted (Stats.GptrRejects) and described in the returned error; the
// zero GlobalPtr is returned alongside.
func DecodePtr[T any](r *Rank, w uint64) (GlobalPtr[T], error) {
	if w == 0 {
		return GlobalPtr[T]{}, nil
	}
	rank := int(w >> 48)
	segid := uint16(w >> 32)
	off := uint32(w)
	if rank >= r.N() {
		r.w.dom.NoteGptrReject()
		return GlobalPtr[T]{}, fmt.Errorf("gupcxx: gptr names rank %d of %d", rank, r.N())
	}
	if rec := r.w.dom.IncarnationOf(r.Me(), rank); rec != 0 && segid != worldSegID(rec) {
		r.w.dom.NoteGptrReject()
		return GlobalPtr[T]{}, fmt.Errorf("gupcxx: gptr segment id %#x, want %#x (stale incarnation of rank %d?)",
			segid, worldSegID(rec), rank)
	}
	if rank == 0 && off == 0 {
		// The allocator never hands out rank 0's offset 0 (GlobalPtr.Null):
		// a non-zero word naming it would decode to a pointer that reads
		// as null and re-encodes as 0.
		r.w.dom.NoteGptrReject()
		return GlobalPtr[T]{}, fmt.Errorf("gupcxx: gptr %#x names rank 0 offset 0, the reserved null slot", w)
	}
	size := uint64(gasnet.SizeOf[T]())
	segBytes := uint64(r.w.dom.Config().SegmentBytes)
	if end := uint64(off) + size; end < uint64(off) || end > segBytes {
		r.w.dom.NoteGptrReject()
		return GlobalPtr[T]{}, fmt.Errorf("gupcxx: gptr offset %d+%d outside %d-byte segment of rank %d",
			off, size, segBytes, rank)
	}
	return GlobalPtr[T]{rank: int32(rank), off: off}, nil
}
