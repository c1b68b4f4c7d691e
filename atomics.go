package gupcxx

import (
	"gupcxx/internal/core"
	"gupcxx/internal/gasnet"
)

// Word is the constraint for atomic-domain element types: 64-bit integers
// (signed or unsigned). Arithmetic is two's-complement, so all operations
// are bit-identical across the signed and unsigned instantiations.
type Word interface {
	~int64 | ~uint64
}

// AtomicDomain provides remote atomic memory operations over objects of
// type T, the analogue of upcxx::atomic_domain<T>. Unlike RMA, atomics
// admit no manual-localization bypass: every operation must go through the
// runtime (and, off-node, the substrate's atomic engine) to remain
// coherent with concurrent accesses from other nodes — which is exactly
// why the paper's eager notifications matter for atomics (§II-B).
//
// The fetching operations come in three forms, following §III-B:
//
//   - FetchAdd etc.: the classic form, producing the old value through a
//     value-carrying future (one unavoidable cell allocation even when
//     eager);
//   - FetchAddInto etc.: the paper's new fetch-to-memory form, writing the
//     old value to a local address so the notification stays value-less
//     (allocation-free when eager);
//   - Add etc.: non-fetching, side-effect only.
//
// The value-less forms accept completion requests (cxs), so OpContinue
// composes here like everywhere else in the pipeline: a non-fetching or
// fetch-to-memory atomic with a continuation completes without
// allocating even off-node.
type AtomicDomain[T Word] struct {
	r *Rank
}

// NewAtomicDomain constructs rank r's handle on the atomic domain for T.
// Like upcxx::atomic_domain, it is a collective concept; each rank
// constructs its own handle.
func NewAtomicDomain[T Word](r *Rank) *AtomicDomain[T] {
	return &AtomicDomain[T]{r: r}
}

// update runs a value-less atomic op through the unified pipeline. A
// non-nil dst receives the old value — the fetch-to-memory form (§III-B):
// dst is written by the time operation completion is delivered. Off-node,
// the substrate stores the old word straight into dst.
func (ad *AtomicDomain[T]) update(p GlobalPtr[T], op gasnet.AmoOp, o1, o2 T, dst *T, cxs []Cx) Result {
	r := ad.r
	cxs = cxsOrDefault(cxs)
	if r.localTo(p.rank) {
		return r.eng.Initiate(core.OpDesc{
			Kind:  core.OpAtomic,
			Local: true,
			Move: func() {
				old := T(gasnet.ApplyAmo(r.w.dom.Segment(int(p.rank)), p.off, op, uint64(o1), uint64(o2)))
				if dst != nil {
					*dst = old
				}
			},
		}, cxs)
	}
	var old []byte
	if dst != nil {
		old = gasnet.ValueBytes(dst)
	}
	return r.eng.Initiate(core.OpDesc{
		Kind:  core.OpAtomic,
		Peer:  int(p.rank),
		Admit: true,
		Inject: func(_ func(ctx any), done func(error)) {
			r.ep.AmoRemote(int(p.rank), p.off, op, uint64(o1), uint64(o2), old, done)
		},
	}, cxs)
}

// fetch runs a fetching atomic op, producing the old value through the
// returned future or, when pv is non-nil, through pv (the future is then
// invalid). Off-node, the substrate stores the old word straight into the
// value slot.
func (ad *AtomicDomain[T]) fetch(p GlobalPtr[T], op gasnet.AmoOp, o1, o2 T, pv *PromiseV[T], mode []Mode) FutureV[T] {
	r := ad.r
	return core.InitiateV(r.eng, core.OpDescV[T]{
		Kind:  core.OpAtomic,
		Local: r.localTo(p.rank),
		Mode:  modeOf(mode),
		Peer:  int(p.rank),
		Admit: true,
		MoveV: func() T {
			return T(gasnet.ApplyAmo(r.w.dom.Segment(int(p.rank)), p.off, op, uint64(o1), uint64(o2)))
		},
		Inject: func(slot *T, done func(error)) {
			r.ep.AmoRemote(int(p.rank), p.off, op, uint64(o1), uint64(o2), gasnet.ValueBytes(slot), done)
		},
		Promise: pv,
	})
}

// Load atomically reads the value at p.
func (ad *AtomicDomain[T]) Load(p GlobalPtr[T], mode ...Mode) FutureV[T] {
	return ad.fetch(p, gasnet.AmoLoad, 0, 0, nil, mode)
}

// Store atomically writes v to p (value-less completion).
func (ad *AtomicDomain[T]) Store(p GlobalPtr[T], v T, cxs ...Cx) Result {
	return ad.update(p, gasnet.AmoStore, v, 0, nil, cxs)
}

// Add atomically adds v to the value at p — non-fetching (§III-B).
func (ad *AtomicDomain[T]) Add(p GlobalPtr[T], v T, cxs ...Cx) Result {
	return ad.update(p, gasnet.AmoAdd, v, 0, nil, cxs)
}

// Xor atomically xors v into the value at p — non-fetching.
func (ad *AtomicDomain[T]) Xor(p GlobalPtr[T], v T, cxs ...Cx) Result {
	return ad.update(p, gasnet.AmoXor, v, 0, nil, cxs)
}

// And atomically ands v into the value at p — non-fetching.
func (ad *AtomicDomain[T]) And(p GlobalPtr[T], v T, cxs ...Cx) Result {
	return ad.update(p, gasnet.AmoAnd, v, 0, nil, cxs)
}

// Or atomically ors v into the value at p — non-fetching.
func (ad *AtomicDomain[T]) Or(p GlobalPtr[T], v T, cxs ...Cx) Result {
	return ad.update(p, gasnet.AmoOr, v, 0, nil, cxs)
}

// FetchAdd atomically adds v to the value at p, producing the old value.
func (ad *AtomicDomain[T]) FetchAdd(p GlobalPtr[T], v T, mode ...Mode) FutureV[T] {
	return ad.fetch(p, gasnet.AmoAdd, v, 0, nil, mode)
}

// FetchXor atomically xors v into the value at p, producing the old value.
func (ad *AtomicDomain[T]) FetchXor(p GlobalPtr[T], v T, mode ...Mode) FutureV[T] {
	return ad.fetch(p, gasnet.AmoXor, v, 0, nil, mode)
}

// Exchange atomically replaces the value at p with v, producing the old
// value.
func (ad *AtomicDomain[T]) Exchange(p GlobalPtr[T], v T, mode ...Mode) FutureV[T] {
	return ad.fetch(p, gasnet.AmoSwap, v, 0, nil, mode)
}

// CompareExchange atomically replaces the value at p with desired if it
// equals expected, producing the previous value.
func (ad *AtomicDomain[T]) CompareExchange(p GlobalPtr[T], expected, desired T, mode ...Mode) FutureV[T] {
	return ad.fetch(p, gasnet.AmoCAS, expected, desired, nil, mode)
}

// FetchAddInto atomically adds v to the value at p and writes the old
// value to the local address dst — the paper's fetch-to-memory form.
func (ad *AtomicDomain[T]) FetchAddInto(p GlobalPtr[T], v T, dst *T, cxs ...Cx) Result {
	return ad.update(p, gasnet.AmoAdd, v, 0, dst, cxs)
}

// FetchXorInto atomically xors v into the value at p and writes the old
// value to dst.
func (ad *AtomicDomain[T]) FetchXorInto(p GlobalPtr[T], v T, dst *T, cxs ...Cx) Result {
	return ad.update(p, gasnet.AmoXor, v, 0, dst, cxs)
}

// ExchangeInto atomically replaces the value at p with v and writes the
// old value to dst.
func (ad *AtomicDomain[T]) ExchangeInto(p GlobalPtr[T], v T, dst *T, cxs ...Cx) Result {
	return ad.update(p, gasnet.AmoSwap, v, 0, dst, cxs)
}

// CompareExchangeInto performs CompareExchange and writes the previous
// value to dst.
func (ad *AtomicDomain[T]) CompareExchangeInto(p GlobalPtr[T], expected, desired T, dst *T, cxs ...Cx) Result {
	return ad.update(p, gasnet.AmoCAS, expected, desired, dst, cxs)
}

// FetchAddPromise performs FetchAdd, delivering the old value through pv.
func (ad *AtomicDomain[T]) FetchAddPromise(p GlobalPtr[T], v T, pv *PromiseV[T], mode ...Mode) {
	ad.fetch(p, gasnet.AmoAdd, v, 0, pv, mode)
}

// FetchXorPromise performs FetchXor, delivering the old value through pv.
func (ad *AtomicDomain[T]) FetchXorPromise(p GlobalPtr[T], v T, pv *PromiseV[T], mode ...Mode) {
	ad.fetch(p, gasnet.AmoXor, v, 0, pv, mode)
}
