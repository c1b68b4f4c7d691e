package core

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestSinkResolutionTable pins the completion core's resolution table
// (DESIGN.md §9.1): every notification sink × every way an operation can
// end. Each row drives one operation through the pipeline and asserts the
// sink's state right after initiation and after progress, the phase row
// the operation booked, and the engine counters it moved.

// sinkPath is one way an operation can end.
type sinkPath struct {
	ver   Version
	local bool          // synchronous (co-located) data movement
	peer  int           // 7 is refused by the admitter
	dl    time.Duration // per-op deadline
	ack   bool          // the substrate acknowledges, with err
	err   error         // the acknowledgment's outcome
	panic bool          // a composed continuation panics
}

var sinkPaths = map[string]sinkPath{
	"sync-eager":  {ver: Eager2021_3_6, local: true},
	"sync-defer":  {ver: Defer2021_3_6, local: true},
	"async-ok":    {ver: Eager2021_3_6, peer: 3, ack: true},
	"async-err":   {ver: Eager2021_3_6, peer: 3, ack: true, err: errBoom},
	"refused":     {ver: Eager2021_3_6, peer: 7},
	"deadline":    {ver: Eager2021_3_6, peer: 3, dl: time.Nanosecond},
	"cont-panic":  {ver: Eager2021_3_6, peer: 3, ack: true, panic: true},
	"eager-panic": {ver: Eager2021_3_6, local: true, panic: true},
}

// phaseRow is one operation's outcome-phase bookings (initiation is
// always one).
type phaseRow struct{ eager, deferred, acked, failed int64 }

// statDelta is the change in the engine counters the table pins.
type statDelta struct{ failed, cells, defers, eager, ready, conts int64 }

type sinkRow struct {
	sink, path  string
	init, final string
	phases      phaseRow
	d           statDelta
}

// label names an outcome as the table writes it.
func label(err error) string {
	var ce *ContinuationError
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, errBoom):
		return "boom"
	case errors.Is(err, errRefused):
		return "refused"
	case errors.Is(err, ErrDeadlineExceeded):
		return "deadline"
	case errors.As(err, &ce):
		return "panic"
	}
	return err.Error()
}

// opDriver initiates one operation carrying a sink and reports the
// substrate's done callback (nil until injected).
type opDriver struct {
	e    *Engine
	p    sinkPath
	done func(error)
}

func (o *opDriver) desc() OpDesc {
	return OpDesc{
		Kind: OpRMA, Local: o.p.local, Peer: o.p.peer, Admit: true, Deadline: o.p.dl,
		Move:   func() {},
		Inject: func(_ func(ctx any), done func(error)) { o.done = done },
	}
}

func (o *opDriver) descV() OpDescV[int] {
	return OpDescV[int]{
		Kind: OpRMA, Local: o.p.local, Peer: o.p.peer, Admit: true, Deadline: o.p.dl,
		MoveV:  func() int { return 42 },
		Inject: func(slot *int, done func(error)) { *slot = 42; o.done = done },
	}
}

// cxs initiates a cx-based operation; a panicking path composes a
// panicking continuation unless the set already holds one.
func (o *opDriver) cxs(cxs ...Cx) Result {
	if o.p.panic && cxs[len(cxs)-1].Kind != KContinue {
		cxs = append(cxs, OpContinue(func(error) { panic("cont") }))
	}
	return o.e.Initiate(o.desc(), cxs)
}

// sinkSpecs builds each sink on the driver's engine and returns the
// initiation and an observer of the sink's state ("-" while pending).
var sinkSpecs = map[string]func(o *opDriver) (issue func(), observe func() string){
	"future": func(o *opDriver) (func(), func() string) {
		var res Result
		return func() { res = o.cxs(OpFuture()) }, func() string { return futureState(res.Op) }
	},
	"promise": func(o *opDriver) (func(), func() string) {
		p := NewPromise(o.e)
		return func() { o.cxs(OpPromise(p)) }, func() string { return promiseState(p) }
	},
	"lpc": func(o *opDriver) (func(), func() string) {
		ran := false
		return func() { o.cxs(OpLPC(func() { ran = true })) }, func() string { return lpcState(ran) }
	},
	"cont": func(o *opDriver) (func(), func() string) {
		var got *error
		return func() { o.cxs(contCx(o.p.panic, &got)) }, func() string { return contState(got) }
	},
	"value-future": func(o *opDriver) (func(), func() string) {
		var f FutureV[int]
		return func() { f = InitiateV(o.e, o.descV()) }, func() string {
			if !f.Ready() {
				return "-"
			}
			return valueState(f.Value(), f.Err())
		}
	},
	"value-promise": func(o *opDriver) (func(), func() string) {
		p := NewPromiseV[int](o.e)
		return func() {
				d := o.descV()
				d.Promise = p
				InitiateV(o.e, d)
			}, func() string {
				if p.c.deps > 1 {
					return "-"
				}
				return valueState(p.c.v, p.Err())
			}
	},
	"composed": func(o *opDriver) (func(), func() string) {
		var res Result
		p := NewPromise(o.e)
		ran := false
		var got *error
		return func() {
				res = o.cxs(OpFuture(), OpPromise(p), OpLPC(func() { ran = true }), contCx(o.p.panic, &got))
			}, func() string {
				return strings.Join([]string{
					"F:" + futureState(res.Op), "P:" + promiseState(p),
					"L:" + lpcState(ran), "C:" + contState(got),
				}, " ")
			}
	},
}

func futureState(f Future) string {
	if !f.Ready() {
		return "-"
	}
	return label(f.Err())
}

// promiseState reads a promise as settled once only its finalization
// dependency is left.
func promiseState(p *Promise) string {
	if p.Pending() > 1 {
		return "-"
	}
	return label(p.Err())
}

func lpcState(ran bool) string {
	if ran {
		return "ran"
	}
	return "-"
}

// contCx is a continuation recording the outcome it was handed, then
// panicking when asked to.
func contCx(panics bool, got **error) Cx {
	return OpContinue(func(err error) {
		*got = &err
		if panics {
			panic("cont")
		}
	})
}

func contState(got *error) string {
	if got == nil {
		return "-"
	}
	return label(*got)
}

func valueState(v int, err error) string {
	if err == nil && v != 42 {
		return "wrong value"
	}
	return label(err)
}

var sinkTable = []sinkRow{
	// future: eager is the shared ready cell; a failure short-circuits it.
	{"future", "sync-eager", "ok", "ok", phaseRow{eager: 1}, statDelta{eager: 1, ready: 1}},
	{"future", "sync-defer", "-", "ok", phaseRow{deferred: 1}, statDelta{cells: 1, defers: 1}},
	{"future", "async-ok", "-", "ok", phaseRow{acked: 1}, statDelta{cells: 1}},
	{"future", "async-err", "-", "boom", phaseRow{failed: 1}, statDelta{failed: 1, cells: 1}},
	{"future", "refused", "refused", "refused", phaseRow{failed: 1}, statDelta{failed: 1, cells: 1}},
	{"future", "deadline", "-", "deadline", phaseRow{failed: 1}, statDelta{failed: 1, cells: 1}},
	{"future", "cont-panic", "-", "panic", phaseRow{failed: 1}, statDelta{failed: 1, cells: 1, conts: 1}},

	// promise: eager elides it; a failure is recorded and the count drains.
	{"promise", "sync-eager", "ok", "ok", phaseRow{eager: 1}, statDelta{eager: 1}},
	{"promise", "sync-defer", "-", "ok", phaseRow{deferred: 1}, statDelta{defers: 1}},
	{"promise", "async-ok", "-", "ok", phaseRow{acked: 1}, statDelta{}},
	{"promise", "async-err", "-", "boom", phaseRow{failed: 1}, statDelta{failed: 1}},
	{"promise", "refused", "refused", "refused", phaseRow{failed: 1}, statDelta{failed: 1}},
	{"promise", "deadline", "-", "deadline", phaseRow{failed: 1}, statDelta{failed: 1}},
	{"promise", "cont-panic", "-", "panic", phaseRow{failed: 1}, statDelta{failed: 1, conts: 1}},

	// LPC: always queued for the next progress call, whatever the outcome.
	{"lpc", "sync-eager", "-", "ran", phaseRow{deferred: 1}, statDelta{}},
	{"lpc", "sync-defer", "-", "ran", phaseRow{deferred: 1}, statDelta{}},
	{"lpc", "async-ok", "-", "ran", phaseRow{acked: 1}, statDelta{}},
	{"lpc", "async-err", "-", "ran", phaseRow{failed: 1}, statDelta{failed: 1}},
	{"lpc", "refused", "-", "ran", phaseRow{failed: 1}, statDelta{failed: 1}},
	{"lpc", "deadline", "-", "ran", phaseRow{failed: 1}, statDelta{failed: 1}},
	{"lpc", "cont-panic", "-", "ran", phaseRow{failed: 1}, statDelta{failed: 1, conts: 1}},

	// continuation: fires at the moment of completion, in every mode; its
	// panic fails an acknowledged operation but not a synchronous one.
	{"cont", "sync-eager", "ok", "ok", phaseRow{eager: 1}, statDelta{eager: 1, conts: 1}},
	{"cont", "sync-defer", "ok", "ok", phaseRow{eager: 1}, statDelta{eager: 1, conts: 1}},
	{"cont", "async-ok", "-", "ok", phaseRow{acked: 1}, statDelta{conts: 1}},
	{"cont", "async-err", "-", "boom", phaseRow{failed: 1}, statDelta{failed: 1, conts: 1}},
	{"cont", "refused", "refused", "refused", phaseRow{failed: 1}, statDelta{failed: 1, conts: 1}},
	{"cont", "deadline", "-", "deadline", phaseRow{failed: 1}, statDelta{failed: 1, conts: 1}},
	{"cont", "cont-panic", "-", "ok", phaseRow{failed: 1}, statDelta{failed: 1, conts: 1}},
	{"cont", "eager-panic", "ok", "ok", phaseRow{eager: 1}, statDelta{eager: 1, conts: 1}},

	// value future: eager carries the value inline (no cell, and — unlike
	// the cx sinks — no EagerDeliveries or ReadyHits).
	{"value-future", "sync-eager", "ok", "ok", phaseRow{eager: 1}, statDelta{}},
	{"value-future", "sync-defer", "-", "ok", phaseRow{deferred: 1}, statDelta{cells: 1, defers: 1}},
	{"value-future", "async-ok", "-", "ok", phaseRow{acked: 1}, statDelta{cells: 1}},
	{"value-future", "async-err", "-", "boom", phaseRow{failed: 1}, statDelta{failed: 1, cells: 1}},
	{"value-future", "refused", "refused", "refused", phaseRow{failed: 1}, statDelta{failed: 1, cells: 1}},
	{"value-future", "deadline", "-", "deadline", phaseRow{failed: 1}, statDelta{failed: 1, cells: 1}},

	// value promise: the value lands in the promise's own cell.
	{"value-promise", "sync-eager", "ok", "ok", phaseRow{eager: 1}, statDelta{}},
	{"value-promise", "sync-defer", "-", "ok", phaseRow{deferred: 1}, statDelta{defers: 1}},
	{"value-promise", "async-ok", "-", "ok", phaseRow{acked: 1}, statDelta{}},
	{"value-promise", "async-err", "-", "boom", phaseRow{failed: 1}, statDelta{failed: 1}},
	{"value-promise", "refused", "refused", "refused", phaseRow{failed: 1}, statDelta{failed: 1}},
	{"value-promise", "deadline", "-", "deadline", phaseRow{failed: 1}, statDelta{failed: 1}},

	// composed future + promise + LPC + continuation: a synchronous op books
	// each sink's own phase; an acknowledged or failed one books once.
	{"composed", "sync-eager", "F:ok P:ok L:- C:ok", "F:ok P:ok L:ran C:ok",
		phaseRow{eager: 3, deferred: 1}, statDelta{eager: 3, ready: 1, conts: 1}},
	{"composed", "sync-defer", "F:- P:- L:- C:ok", "F:ok P:ok L:ran C:ok",
		phaseRow{eager: 1, deferred: 3}, statDelta{cells: 1, defers: 2, eager: 1, conts: 1}},
	{"composed", "async-ok", "F:- P:- L:- C:-", "F:ok P:ok L:ran C:ok",
		phaseRow{acked: 1}, statDelta{cells: 1, conts: 1}},
	{"composed", "async-err", "F:- P:- L:- C:-", "F:boom P:boom L:ran C:boom",
		phaseRow{failed: 1}, statDelta{failed: 1, cells: 1, conts: 1}},
	{"composed", "refused", "F:refused P:refused L:- C:refused", "F:refused P:refused L:ran C:refused",
		phaseRow{failed: 1}, statDelta{failed: 1, cells: 1, conts: 1}},
	{"composed", "deadline", "F:- P:- L:- C:-", "F:deadline P:deadline L:ran C:deadline",
		phaseRow{failed: 1}, statDelta{failed: 1, cells: 1, conts: 1}},
	{"composed", "cont-panic", "F:- P:- L:- C:-", "F:panic P:panic L:ran C:ok",
		phaseRow{failed: 1}, statDelta{failed: 1, cells: 1, conts: 1}},
}

func TestSinkResolutionTable(t *testing.T) {
	for _, row := range sinkTable {
		t.Run(row.sink+"/"+row.path, func(t *testing.T) {
			p, ok := sinkPaths[row.path]
			if !ok {
				t.Fatalf("unknown path %q", row.path)
			}
			e := NewEngine(0, p.ver)
			refuser(e)
			o := &opDriver{e: e, p: p}
			issue, observe := sinkSpecs[row.sink](o)
			before := e.Stats
			issue()
			if got := observe(); got != row.init {
				t.Errorf("at initiation: %q, want %q", got, row.init)
			}
			switch {
			case p.ack:
				o.done(p.err)
			case p.dl > 0:
				for stop := time.Now().Add(time.Second); e.Stats.DeadlinesExpired == 0 && time.Now().Before(stop); {
					e.Progress()
				}
				o.done(nil) // a straggling ack after expiry is absorbed
			}
			e.Progress()
			if got := observe(); got != row.final {
				t.Errorf("after progress: %q, want %q", got, row.final)
			}
			ops := e.OpStats()
			got := phaseRow{
				eager:    ops.Of(OpRMA, PhaseEagerCompleted),
				deferred: ops.Of(OpRMA, PhaseDeferredQueued),
				acked:    ops.Of(OpRMA, PhaseWireAcked),
				failed:   ops.Of(OpRMA, PhaseFailed),
			}
			if ops.Of(OpRMA, PhaseInitiated) != 1 || got != row.phases {
				t.Errorf("phases: initiated %d, %+v; want 1, %+v", ops.Of(OpRMA, PhaseInitiated), got, row.phases)
			}
			s := e.Stats
			d := statDelta{
				failed: s.OpsFailed - before.OpsFailed,
				cells:  s.CellAllocs - before.CellAllocs,
				defers: s.DeferQPushes - before.DeferQPushes,
				eager:  s.EagerDeliveries - before.EagerDeliveries,
				ready:  s.ReadyHits - before.ReadyHits,
				conts:  s.ContinuationsRun - before.ContinuationsRun,
			}
			if d != row.d {
				t.Errorf("counters: %+v, want %+v", d, row.d)
			}
		})
	}
}
