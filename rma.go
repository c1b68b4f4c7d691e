package gupcxx

import (
	"gupcxx/internal/core"
	"gupcxx/internal/gasnet"
)

// This file implements the one-sided RMA operations as thin typed shims
// over the unified operation-lifecycle pipeline (internal/core/op.go).
// Each operation performs the locality query (free under ConstexprLocal on
// SMP), then describes itself to core.Engine.Initiate — the pipeline owns
// the eager-vs-deferred decision, the completion-state bookkeeping, and
// the per-phase instrumentation; the shim contributes only the family's
// data movement: a synchronous segment copy (Move/MoveV) or a substrate
// injection (Inject).
//
// The off-node path is thus exactly one branch longer than in a runtime
// without eager notification — the property validated by the off-node
// microbenchmark (§IV-A and experiment E5).

// defaultCx is the completion used when an operation is called without
// any: an operation-completion future in the version's default mode.
var defaultCx = []Cx{core.OpFuture()}

func cxsOrDefault(cxs []Cx) []Cx {
	if len(cxs) == 0 {
		return defaultCx
	}
	return cxs
}

// modeOf returns a value operation's optional mode argument, or the
// version's default.
func modeOf(mode []Mode) Mode {
	if len(mode) > 0 {
		return mode[0]
	}
	return core.ModeDefault
}

// shipRemote delivers a remote-completion action for an operation whose
// target is co-located: the action still runs on the target rank's
// progress goroutine, never the initiator's, so it is shipped as an AM.
func (r *Rank) shipRemote(target int32, rfn func(ctx any)) {
	r.ep.Send(int(target), gasnet.Msg{
		Handler: hRPCExec,
		Fn:      func(ep *gasnet.Endpoint) { rfn(ep.Ctx) },
	})
}

// wrapRemote adapts the pipeline's composed remote-completion action to
// the substrate's endpoint-callback shape.
func wrapRemote(rfn func(ctx any)) func(*gasnet.Endpoint) {
	if rfn == nil {
		return nil
	}
	return func(ep *gasnet.Endpoint) { rfn(ep.Ctx) }
}

// Rput initiates a one-sided put of val to dst, returning the futures for
// the requested completions (default: an operation-completion future).
func Rput[T any](r *Rank, val T, dst GlobalPtr[T], cxs ...Cx) Result {
	cxs = cxsOrDefault(cxs)
	if r.localTo(dst.rank) {
		return r.eng.Initiate(core.OpDesc{
			Kind:  core.OpRMA,
			Local: true,
			Move: func() {
				r.w.dom.Segment(int(dst.rank)).CopyIn(dst.off, gasnet.ValueBytes(&val))
			},
			ShipRemote: func(rfn func(ctx any)) { r.shipRemote(dst.rank, rfn) },
		}, cxs)
	}
	if r.wireOnly(int(dst.rank)) && core.HasRemote(cxs) {
		// The remote-completion callback is a closure; it cannot follow the
		// data into another process. RputNotify is the wire-encodable form.
		return failNotWireEncodable(r, core.OpRMA, int(dst.rank), cxs)
	}
	return r.eng.Initiate(core.OpDesc{
		Kind:  core.OpRMA,
		Peer:  int(dst.rank),
		Admit: true,
		Inject: func(rfn func(ctx any), done func(error)) {
			r.ep.PutRemote(int(dst.rank), dst.off, gasnet.ValueBytes(&val), wrapRemote(rfn), done)
		},
	}, cxs)
}

// RputBulk initiates a one-sided put of the slice src to the array headed
// by dst. The source buffer may be reused as soon as source completion is
// delivered (with the default completions, immediately after return: the
// substrate copies at injection).
func RputBulk[T any](r *Rank, src []T, dst GlobalPtr[T], cxs ...Cx) Result {
	cxs = cxsOrDefault(cxs)
	if r.localTo(dst.rank) {
		return r.eng.Initiate(core.OpDesc{
			Kind:  core.OpRMA,
			Local: true,
			Move: func() {
				r.w.dom.Segment(int(dst.rank)).CopyIn(dst.off, gasnet.SliceBytes(src))
			},
			ShipRemote: func(rfn func(ctx any)) { r.shipRemote(dst.rank, rfn) },
		}, cxs)
	}
	if r.wireOnly(int(dst.rank)) && core.HasRemote(cxs) {
		return failNotWireEncodable(r, core.OpRMA, int(dst.rank), cxs)
	}
	return r.eng.Initiate(core.OpDesc{
		Kind:  core.OpRMA,
		Peer:  int(dst.rank),
		Admit: true,
		Inject: func(rfn func(ctx any), done func(error)) {
			r.ep.PutRemote(int(dst.rank), dst.off, gasnet.SliceBytes(src), wrapRemote(rfn), done)
		},
	}, cxs)
}

// Rget initiates a one-sided get of the value at src, returning a future
// that carries it. The optional mode selects eager/deferred notification
// for the future (default: the version's default mode).
//
// Under the ValueInline version knob the eager path is allocation-free:
// the pipeline returns the value inline in the FutureV struct instead of
// a heap cell (the §III-B cost the paper could not remove).
func Rget[T any](r *Rank, src GlobalPtr[T], mode ...Mode) FutureV[T] {
	m := modeOf(mode)
	if r.localTo(src.rank) {
		return core.InitiateV(r.eng, core.OpDescV[T]{
			Kind:  core.OpRMA,
			Local: true,
			Mode:  m,
			MoveV: func() T {
				var val T
				r.w.dom.Segment(int(src.rank)).CopyOut(src.off, gasnet.ValueBytes(&val))
				return val
			},
		})
	}
	return core.InitiateV(r.eng, core.OpDescV[T]{
		Kind:  core.OpRMA,
		Peer:  int(src.rank),
		Admit: true,
		Inject: func(slot *T, done func(error)) {
			r.ep.GetRemote(int(src.rank), src.off, gasnet.SizeOf[T](), gasnet.ValueBytes(slot), done)
		},
	})
}

// RgetPromise initiates a one-sided get of the value at src, delivering
// the value through the value-carrying promise p. The substrate writes the
// arriving value directly into the promise's value slot — no intermediate
// per-call buffer.
func RgetPromise[T any](r *Rank, src GlobalPtr[T], p *PromiseV[T], mode ...Mode) {
	core.InitiateV(r.eng, core.OpDescV[T]{
		Kind:  core.OpRMA,
		Local: r.localTo(src.rank),
		Mode:  modeOf(mode),
		Peer:  int(src.rank),
		Admit: true,
		MoveV: func() T {
			var val T
			r.w.dom.Segment(int(src.rank)).CopyOut(src.off, gasnet.ValueBytes(&val))
			return val
		},
		Inject: func(slot *T, done func(error)) {
			r.ep.GetRemote(int(src.rank), src.off, gasnet.SizeOf[T](), gasnet.ValueBytes(slot), done)
		},
		Promise: p,
	})
}

// RgetBulk initiates a one-sided get of len(dst) elements from the array
// headed by src into the local buffer dst. Completion is value-less (the
// data lands in memory), making it combinable on promises and cheap to
// conjoin — the form the GUPS RMA variants use.
func RgetBulk[T any](r *Rank, src GlobalPtr[T], dst []T, cxs ...Cx) Result {
	cxs = cxsOrDefault(cxs)
	rejectRemoteCx(cxs, "RgetBulk")
	if r.localTo(src.rank) {
		return r.eng.Initiate(core.OpDesc{
			Kind:  core.OpRMA,
			Local: true,
			Move: func() {
				r.w.dom.Segment(int(src.rank)).CopyOut(src.off, gasnet.SliceBytes(dst))
			},
		}, cxs)
	}
	return r.eng.Initiate(core.OpDesc{
		Kind:  core.OpRMA,
		Peer:  int(src.rank),
		Admit: true,
		Inject: func(_ func(ctx any), done func(error)) {
			r.ep.GetRemote(int(src.rank), src.off, len(dst)*gasnet.SizeOf[T](),
				gasnet.SliceBytes(dst), done)
		},
	}, cxs)
}

// rejectRemoteCx panics when a get-class operation is asked for remote
// completion, which (as in UPC++) is defined only for puts — there is no
// data arrival at the target to attach it to.
func rejectRemoteCx(cxs []Cx, op string) {
	if core.HasRemote(cxs) {
		panic("gupcxx: " + op + " does not support remote completion (puts only)")
	}
}
