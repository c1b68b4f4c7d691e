package core

import (
	"testing"
)

// syncOp initiates a synchronously-completed (co-located) operation with
// the completion set cxs.
func syncOp(e *Engine, cxs ...Cx) Result {
	return e.Initiate(OpDesc{Kind: OpRMA, Local: true}, cxs)
}

// asyncOp initiates an injected operation with the completion set cxs and
// returns the substrate's acknowledgment callback with its futures.
func asyncOp(e *Engine, cxs ...Cx) (Result, func(error)) {
	var ack func(error)
	res := e.Initiate(OpDesc{Kind: OpRMA, Inject: func(_ func(ctx any), done func(error)) { ack = done }}, cxs)
	return res, ack
}

// TestDeliverSyncEagerFuture: the headline fast path — zero allocations,
// zero queue traffic, ready future.
func TestDeliverSyncEagerFuture(t *testing.T) {
	e := testEngine(Eager2021_3_6)
	res := syncOp(e, OpFuture())
	if !res.Op.Ready() {
		t.Fatal("eager op future not ready")
	}
	if e.Stats.CellAllocs != 0 || e.Stats.DeferQPushes != 0 {
		t.Errorf("eager path cost: %d allocs, %d defers", e.Stats.CellAllocs, e.Stats.DeferQPushes)
	}
	if e.Stats.EagerDeliveries != 1 {
		t.Errorf("EagerDeliveries = %d", e.Stats.EagerDeliveries)
	}
}

// TestDeliverSyncDeferFuture: the legacy path — one cell, one queue push,
// not ready until progress.
func TestDeliverSyncDeferFuture(t *testing.T) {
	e := testEngine(Defer2021_3_6)
	res := syncOp(e, OpFuture())
	if res.Op.Ready() {
		t.Fatal("deferred future ready at initiation")
	}
	if e.Stats.CellAllocs != 1 || e.Stats.DeferQPushes != 1 {
		t.Errorf("deferred path cost: %d allocs, %d defers", e.Stats.CellAllocs, e.Stats.DeferQPushes)
	}
	e.Progress()
	if !res.Op.Ready() {
		t.Fatal("deferred future not ready after progress")
	}
}

// TestModeOverridesVersionDefault: as_eager/as_defer factories beat the
// version default in both directions.
func TestModeOverridesVersionDefault(t *testing.T) {
	eagerLib := testEngine(Eager2021_3_6)
	res := syncOp(eagerLib, OpDeferFuture())
	if res.Op.Ready() {
		t.Error("as_defer under eager library must defer")
	}

	deferLib := testEngine(Defer2021_3_6)
	res = syncOp(deferLib, OpEagerFuture())
	if !res.Op.Ready() {
		t.Error("as_eager under defer library must be eager")
	}
}

// TestUPCXXDeferCompletionMacro: Eager2021_3_6 with EagerDefault off is
// the UPCXX_DEFER_COMPLETION build — default factories defer again.
func TestUPCXXDeferCompletionMacro(t *testing.T) {
	v := Eager2021_3_6
	v.EagerDefault = false
	e := testEngine(v)
	if syncOp(e, OpFuture()).Op.Ready() {
		t.Error("default factory should defer when the macro is set")
	}
	if !syncOp(e, OpEagerFuture()).Op.Ready() {
		t.Error("explicit as_eager must still be eager")
	}
}

func TestDeliverSyncSourceAndOp(t *testing.T) {
	e := testEngine(Eager2021_3_6)
	res := syncOp(e, SourceFuture(), OpFuture())
	if !res.Source.Valid() || !res.Op.Valid() {
		t.Fatal("both futures should be produced")
	}
	if !res.Source.Ready() || !res.Op.Ready() {
		t.Fatal("both events completed synchronously; futures must be ready")
	}
}

func TestDeliverSyncUnrequestedFutureInvalid(t *testing.T) {
	e := testEngine(Eager2021_3_6)
	p := NewPromise(e)
	res := syncOp(e, OpPromise(p))
	if res.Op.Valid() {
		t.Error("no future requested but Result.Op valid")
	}
}

func TestDeliverSyncDuplicateFuturePanics(t *testing.T) {
	e := testEngine(Eager2021_3_6)
	defer func() {
		if recover() == nil {
			t.Error("duplicate op-future request should panic")
		}
	}()
	syncOp(e, OpFuture(), OpFuture())
}

func TestDeliverSyncLPCAlwaysDeferred(t *testing.T) {
	e := testEngine(Eager2021_3_6)
	ran := false
	syncOp(e, OpLPC(func() { ran = true }))
	if ran {
		t.Fatal("LPC must not run at initiation")
	}
	e.Progress()
	if !ran {
		t.Fatal("LPC not run at progress")
	}
}

func TestPrepareAsyncFire(t *testing.T) {
	e := testEngine(Eager2021_3_6)
	p := NewPromise(e)
	lpcRan := false
	res, ack := asyncOp(e, OpFuture(), OpPromise(p), OpLPC(func() { lpcRan = true }))
	if res.Op.Ready() {
		t.Fatal("async op future ready before fire")
	}
	if p.Pending() != 2 {
		t.Fatalf("promise not required: %d", p.Pending())
	}
	ack(nil)
	if !res.Op.Ready() {
		t.Error("op future not readied by Fire")
	}
	if !p.Finalize().Ready() {
		t.Error("promise not fulfilled by Fire")
	}
	if lpcRan {
		t.Error("async LPC should wait for progress")
	}
	e.Progress()
	if !lpcRan {
		t.Error("async LPC never ran")
	}
}

// TestPrepareAsyncSourceIsSyncDelivered: source completion of an injected
// operation is delivered by the synchronous rules (buffer copied at
// injection).
func TestPrepareAsyncSourceIsSyncDelivered(t *testing.T) {
	e := testEngine(Eager2021_3_6)
	res, _ := asyncOp(e, SourceFuture(), OpFuture())
	if !res.Source.Ready() {
		t.Error("eager source future should be ready at initiation")
	}
	if res.Op.Ready() {
		t.Error("op future must wait for the ack")
	}
}

func TestRemoteFnComposition(t *testing.T) {
	if RemoteFn([]Cx{OpFuture()}) != nil {
		t.Error("no remote cx should yield nil")
	}
	var order []int
	fn := RemoteFn([]Cx{
		RemoteRPC(func() { order = append(order, 1) }),
		OpFuture(),
		RemoteRPCCtx(func(ctx any) { order = append(order, ctx.(int)) }),
	})
	fn(2)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("composition order %v", order)
	}
}

func TestLegacyAllocKnob(t *testing.T) {
	legacy := testEngine(Legacy2021_3_0)
	legacy.LegacyAlloc()
	if legacy.Stats.LegacyAllocs != 1 {
		t.Error("legacy version should perform the extra allocation")
	}
	modern := testEngine(Defer2021_3_6)
	modern.LegacyAlloc()
	if modern.Stats.LegacyAllocs != 0 {
		t.Error("2021.3.6 must not perform the extra allocation")
	}
}

func TestVersionLookup(t *testing.T) {
	for _, v := range Versions() {
		got, ok := VersionByName(v.Name)
		if !ok || got.Name != v.Name {
			t.Errorf("VersionByName(%q) failed", v.Name)
		}
	}
	if _, ok := VersionByName("nope"); ok {
		t.Error("unknown name resolved")
	}
}

func TestEventAndModeStrings(t *testing.T) {
	if EvOp.String() != "operation" || EvSource.String() != "source" || EvRemote.String() != "remote" {
		t.Error("event names wrong")
	}
}
