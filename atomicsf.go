package gupcxx

import (
	"math"

	"gupcxx/internal/core"
	"gupcxx/internal/gasnet"
)

// AtomicDomainF64 provides remote atomic operations over float64 objects,
// the analogue of upcxx::atomic_domain<double>. The substrate executes
// floating-point AMOs as compare-and-swap loops on the word's bit pattern
// at the owning node (one traversal per operation, like a GASNet-EX
// software AMO target), so the same completion rules apply as for the
// integer domains: co-located targets complete synchronously and are
// eager-eligible; cross-node targets go through the AM protocol.
type AtomicDomainF64 struct {
	r *Rank
}

// NewAtomicDomainF64 constructs rank r's handle on the float64 atomic
// domain.
func NewAtomicDomainF64(r *Rank) *AtomicDomainF64 {
	return &AtomicDomainF64{r: r}
}

// applyF runs a value-less float atomic op through the unified pipeline.
func (ad *AtomicDomainF64) applyF(p GlobalPtr[float64], op gasnet.AmoOp, v float64, cxs []Cx) Result {
	r := ad.r
	cxs = cxsOrDefault(cxs)
	bits := math.Float64bits(v)
	if r.localTo(p.rank) {
		return r.eng.Initiate(core.OpDesc{
			Kind:  core.OpAtomic,
			Local: true,
			Move: func() {
				gasnet.ApplyAmo(r.w.dom.Segment(int(p.rank)), p.off, op, bits, 0)
			},
		}, cxs)
	}
	return r.eng.Initiate(core.OpDesc{
		Kind:  core.OpAtomic,
		Peer:  int(p.rank),
		Admit: true,
		Inject: func(_ func(ctx any), done func(error)) {
			r.ep.AmoRemote(int(p.rank), p.off, op, bits, 0, nil, done)
		},
	}, cxs)
}

// fetchF runs a fetching float atomic op, producing the old value.
func (ad *AtomicDomainF64) fetchF(p GlobalPtr[float64], op gasnet.AmoOp, v float64, mode []Mode) FutureV[float64] {
	r := ad.r
	bits := math.Float64bits(v)
	return core.InitiateV(r.eng, core.OpDescV[float64]{
		Kind:  core.OpAtomic,
		Local: r.localTo(p.rank),
		Mode:  modeOf(mode),
		Peer:  int(p.rank),
		Admit: true,
		MoveV: func() float64 {
			return math.Float64frombits(gasnet.ApplyAmo(r.w.dom.Segment(int(p.rank)), p.off, op, bits, 0))
		},
		Inject: func(slot *float64, done func(error)) {
			// The slot receives the raw word, which is its float64 as is.
			r.ep.AmoRemote(int(p.rank), p.off, op, bits, 0, gasnet.ValueBytes(slot), done)
		},
	})
}

// Load atomically reads the value at p.
func (ad *AtomicDomainF64) Load(p GlobalPtr[float64], mode ...Mode) FutureV[float64] {
	return ad.fetchF(p, gasnet.AmoLoad, 0, mode)
}

// Store atomically writes v to p (value-less completion).
func (ad *AtomicDomainF64) Store(p GlobalPtr[float64], v float64, cxs ...Cx) Result {
	return ad.applyF(p, gasnet.AmoStore, v, cxs)
}

// Add atomically adds v to the value at p — non-fetching.
func (ad *AtomicDomainF64) Add(p GlobalPtr[float64], v float64, cxs ...Cx) Result {
	return ad.applyF(p, gasnet.AmoFAdd, v, cxs)
}

// Min atomically stores min(current, v) at p — non-fetching.
func (ad *AtomicDomainF64) Min(p GlobalPtr[float64], v float64, cxs ...Cx) Result {
	return ad.applyF(p, gasnet.AmoFMin, v, cxs)
}

// Max atomically stores max(current, v) at p — non-fetching.
func (ad *AtomicDomainF64) Max(p GlobalPtr[float64], v float64, cxs ...Cx) Result {
	return ad.applyF(p, gasnet.AmoFMax, v, cxs)
}

// FetchAdd atomically adds v, producing the old value.
func (ad *AtomicDomainF64) FetchAdd(p GlobalPtr[float64], v float64, mode ...Mode) FutureV[float64] {
	return ad.fetchF(p, gasnet.AmoFAdd, v, mode)
}

// FetchMin atomically stores min(current, v), producing the old value.
func (ad *AtomicDomainF64) FetchMin(p GlobalPtr[float64], v float64, mode ...Mode) FutureV[float64] {
	return ad.fetchF(p, gasnet.AmoFMin, v, mode)
}

// FetchMax atomically stores max(current, v), producing the old value.
func (ad *AtomicDomainF64) FetchMax(p GlobalPtr[float64], v float64, mode ...Mode) FutureV[float64] {
	return ad.fetchF(p, gasnet.AmoFMax, v, mode)
}
