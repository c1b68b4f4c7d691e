package gupcxx

import (
	"fmt"

	"gupcxx/internal/core"
	"gupcxx/internal/gasnet"
)

// Vector/Indexed/Strided (VIS) RMA, the analogue of UPC++'s
// rput_strided/rput_irregular family: one logical operation moving a
// non-contiguous set of elements, with a single set of completion
// notifications. The fragments of a co-located transfer all move
// synchronously, so the whole operation is eager-eligible exactly like a
// contiguous one; remote fragments become individual substrate transfers,
// described to the pipeline via OpDesc.Frags — the last acknowledgment
// fires the operation completion.

// Strided2D describes a 2-D regular section: Rows runs of RunLen
// consecutive elements each, with runs starting Stride elements apart.
// (Higher dimensionalities compose from 2-D sections; the paper's
// workloads need at most 2-D.)
type Strided2D struct {
	// Rows is the number of contiguous runs.
	Rows int
	// RunLen is the number of elements per run.
	RunLen int
	// Stride is the element distance between the starts of consecutive
	// runs (≥ RunLen for non-overlapping sections).
	Stride int
}

// validate panics on degenerate sections.
func (s Strided2D) validate() {
	if s.Rows < 0 || s.RunLen < 0 || s.Stride < 0 {
		panic(fmt.Sprintf("gupcxx: negative strided section %+v", s))
	}
}

// Elems returns the number of elements the section covers.
func (s Strided2D) Elems() int { return s.Rows * s.RunLen }

// RputStrided writes src (laid out contiguously, row-major) into the
// strided section anchored at dst: run i lands at dst.Element(i*Stride).
// len(src) must equal sec.Elems(). Completions cover the whole section.
func RputStrided[T any](r *Rank, src []T, dst GlobalPtr[T], sec Strided2D, cxs ...Cx) Result {
	sec.validate()
	if len(src) != sec.Elems() {
		panic(fmt.Sprintf("gupcxx: RputStrided src length %d != section %d", len(src), sec.Elems()))
	}
	cxs = cxsOrDefault(cxs)
	if sec.Elems() == 0 || r.localTo(dst.rank) {
		return r.eng.Initiate(core.OpDesc{
			Kind:  core.OpVIS,
			Local: true,
			Move: func() {
				seg := r.w.dom.Segment(int(dst.rank))
				for row := 0; row < sec.Rows && sec.RunLen > 0; row++ {
					run := src[row*sec.RunLen : (row+1)*sec.RunLen]
					seg.CopyIn(dst.Element(row*sec.Stride).off, gasnet.SliceBytes(run))
				}
			},
			ShipRemote: func(rfn func(ctx any)) { r.shipRemote(dst.rank, rfn) },
		}, cxs)
	}
	if r.wireOnly(int(dst.rank)) && core.HasRemote(cxs) {
		return failNotWireEncodable(r, core.OpVIS, int(dst.rank), cxs)
	}
	return r.eng.Initiate(core.OpDesc{
		Kind:  core.OpVIS,
		Frags: sec.Rows,
		// One admission covers the whole fragment fan-out: admission is an
		// overload signal, not a per-frame reservation, and the sender's
		// flush bounds any residual burst against the peer's window.
		Peer:  int(dst.rank),
		Admit: true,
		Inject: func(rfn func(ctx any), done func(error)) {
			var remoteFn func(*gasnet.Endpoint)
			if rfn != nil {
				// Remote completion fires once, after the last fragment
				// lands. Every fragment targets the same rank, so the
				// counter is only touched by that rank's progress goroutine.
				remaining := sec.Rows
				remoteFn = func(ep *gasnet.Endpoint) {
					remaining--
					if remaining == 0 {
						rfn(ep.Ctx)
					}
				}
			}
			for row := 0; row < sec.Rows; row++ {
				run := src[row*sec.RunLen : (row+1)*sec.RunLen]
				r.ep.PutRemote(int(dst.rank), dst.Element(row*sec.Stride).off,
					gasnet.SliceBytes(run), remoteFn, done)
			}
		},
	}, cxs)
}

// RgetStrided reads the strided section anchored at src into dst
// (contiguous, row-major). len(dst) must equal sec.Elems().
func RgetStrided[T any](r *Rank, src GlobalPtr[T], sec Strided2D, dst []T, cxs ...Cx) Result {
	sec.validate()
	if len(dst) != sec.Elems() {
		panic(fmt.Sprintf("gupcxx: RgetStrided dst length %d != section %d", len(dst), sec.Elems()))
	}
	cxs = cxsOrDefault(cxs)
	rejectRemoteCx(cxs, "RgetStrided")
	if sec.Elems() == 0 || r.localTo(src.rank) {
		return r.eng.Initiate(core.OpDesc{
			Kind:  core.OpVIS,
			Local: true,
			Move: func() {
				seg := r.w.dom.Segment(int(src.rank))
				for row := 0; row < sec.Rows && sec.RunLen > 0; row++ {
					run := dst[row*sec.RunLen : (row+1)*sec.RunLen]
					seg.CopyOut(src.Element(row*sec.Stride).off, gasnet.SliceBytes(run))
				}
			},
		}, cxs)
	}
	return r.eng.Initiate(core.OpDesc{
		Kind:  core.OpVIS,
		Frags: sec.Rows,
		Peer:  int(src.rank),
		Admit: true,
		Inject: func(_ func(ctx any), done func(error)) {
			elemSize := gasnet.SizeOf[T]()
			for row := 0; row < sec.Rows; row++ {
				run := dst[row*sec.RunLen : (row+1)*sec.RunLen]
				r.ep.GetRemote(int(src.rank), src.Element(row*sec.Stride).off,
					sec.RunLen*elemSize, gasnet.SliceBytes(run), done)
			}
		},
	}, cxs)
}

// RputIndexed writes vals[i] to dsts[i] for each i, as one logical
// operation: a single completion set covers all transfers (the
// rput_irregular analogue). Locality is resolved per destination.
func RputIndexed[T any](r *Rank, vals []T, dsts []GlobalPtr[T], cxs ...Cx) Result {
	if len(vals) != len(dsts) {
		panic(fmt.Sprintf("gupcxx: RputIndexed %d values for %d destinations", len(vals), len(dsts)))
	}
	cxs = cxsOrDefault(cxs)
	if core.RemoteFn(cxs) != nil {
		// The destinations may span ranks, so "the target" of a remote
		// completion is ill-defined; UPC++'s rput_irregular has the same
		// restriction in spirit (its fragments share one affinity).
		panic("gupcxx: remote completion is not supported for indexed operations")
	}
	// Count asynchronous fragments first: if every destination is
	// co-located the whole operation is synchronous and eager-eligible.
	remote := 0
	for _, d := range dsts {
		if !r.localTo(d.rank) {
			remote++
		}
	}
	if remote == 0 {
		return r.eng.Initiate(core.OpDesc{
			Kind:  core.OpVIS,
			Local: true,
			Move: func() {
				for i, d := range dsts {
					r.w.dom.Segment(int(d.rank)).CopyIn(d.off, gasnet.ValueBytes(&vals[i]))
				}
			},
		}, cxs)
	}
	// Destinations may span ranks; admission is checked against the first
	// remote one — an advisory overload probe, with the sender's flush
	// bounding the rest against each peer's own window.
	admitPeer := -1
	for _, d := range dsts {
		if !r.localTo(d.rank) {
			admitPeer = int(d.rank)
			break
		}
	}
	return r.eng.Initiate(core.OpDesc{
		Kind:  core.OpVIS,
		Frags: remote,
		Peer:  admitPeer,
		Admit: true,
		Inject: func(_ func(ctx any), done func(error)) {
			for i, d := range dsts {
				if r.localTo(d.rank) {
					r.w.dom.Segment(int(d.rank)).CopyIn(d.off, gasnet.ValueBytes(&vals[i]))
					continue
				}
				r.ep.PutRemote(int(d.rank), d.off, gasnet.ValueBytes(&vals[i]), nil, done)
			}
		},
	}, cxs)
}

// RgetIndexed reads srcs[i] into out[i] for each i as one logical
// operation with a single completion set.
func RgetIndexed[T any](r *Rank, srcs []GlobalPtr[T], out []T, cxs ...Cx) Result {
	if len(out) != len(srcs) {
		panic(fmt.Sprintf("gupcxx: RgetIndexed %d outputs for %d sources", len(out), len(srcs)))
	}
	cxs = cxsOrDefault(cxs)
	rejectRemoteCx(cxs, "RgetIndexed")
	remote := 0
	for _, s := range srcs {
		if !r.localTo(s.rank) {
			remote++
		}
	}
	if remote == 0 {
		return r.eng.Initiate(core.OpDesc{
			Kind:  core.OpVIS,
			Local: true,
			Move: func() {
				for i, s := range srcs {
					r.w.dom.Segment(int(s.rank)).CopyOut(s.off, gasnet.ValueBytes(&out[i]))
				}
			},
		}, cxs)
	}
	admitPeer := -1
	for _, s := range srcs {
		if !r.localTo(s.rank) {
			admitPeer = int(s.rank)
			break
		}
	}
	return r.eng.Initiate(core.OpDesc{
		Kind:  core.OpVIS,
		Frags: remote,
		Peer:  admitPeer,
		Admit: true,
		Inject: func(_ func(ctx any), done func(error)) {
			elemSize := gasnet.SizeOf[T]()
			for i, s := range srcs {
				if r.localTo(s.rank) {
					r.w.dom.Segment(int(s.rank)).CopyOut(s.off, gasnet.ValueBytes(&out[i]))
					continue
				}
				r.ep.GetRemote(int(s.rank), s.off, elemSize, gasnet.ValueBytes(&out[i]), done)
			}
		},
	}, cxs)
}
