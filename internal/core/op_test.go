package core

import (
	"strings"
	"testing"
)

// Metric labels and event payloads are built from these String methods;
// a new enum value that falls through to the "?" default would ship
// unlabeled rows. The completeness sweep walks the full enum range so
// adding a constant without a case fails here, not in a dashboard.

func TestOpKindStringsComplete(t *testing.T) {
	seen := make(map[string]OpKind)
	for k := OpKind(0); k < NumOpKinds; k++ {
		s := k.String()
		if s == "" || strings.Contains(s, "?") {
			t.Errorf("OpKind(%d) has no label: %q", k, s)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("OpKind(%d) and OpKind(%d) share label %q", k, prev, s)
		}
		seen[s] = k
	}
	if s := NumOpKinds.String(); !strings.Contains(s, "?") {
		t.Errorf("out-of-range OpKind should print the unknown label, got %q", s)
	}
}

func TestPhaseStringsComplete(t *testing.T) {
	seen := make(map[string]Phase)
	for p := Phase(0); p < NumPhases; p++ {
		s := p.String()
		if s == "" || strings.Contains(s, "?") {
			t.Errorf("Phase(%d) has no label: %q", p, s)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("Phase(%d) and Phase(%d) share label %q", p, prev, s)
		}
		seen[s] = p
	}
	if s := NumPhases.String(); !strings.Contains(s, "?") {
		t.Errorf("out-of-range Phase should print the unknown label, got %q", s)
	}
}

func TestEngineStatNamesComplete(t *testing.T) {
	seen := make(map[string]int)
	for i := 0; i < NumEngineStats; i++ {
		s := EngineStatNames[i]
		if s == "" {
			t.Errorf("engine stat slot %d has no label", i)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("engine stat slots %d and %d share label %q", i, prev, s)
		}
		seen[s] = i
	}
}

// The mirror must reproduce the engine's counters exactly at a flush
// boundary, and FlushMirror must be the no-op it documents without one.
func TestOpsMirrorFlushSnapshot(t *testing.T) {
	e := NewEngine(0, Eager2021_3_6)
	e.FlushMirror() // no mirror installed: must not panic

	var m OpsMirror
	e.SetMirror(&m)
	e.phase(OpRMA, PhaseInitiated, 0)
	e.phase(OpRMA, PhaseEagerCompleted, 0)
	e.phase(OpRPC, PhaseInitiated, 0)
	e.Stats.ProgressCalls = 7
	e.Stats.OpsFailed = 3
	e.FlushMirror()

	ops := m.Ops()
	if got := ops.Of(OpRMA, PhaseInitiated); got != 1 {
		t.Errorf("mirror rma/initiated = %d, want 1", got)
	}
	if got := ops.Of(OpRMA, PhaseEagerCompleted); got != 1 {
		t.Errorf("mirror rma/eager-completed = %d, want 1", got)
	}
	if got := ops.Of(OpRPC, PhaseInitiated); got != 1 {
		t.Errorf("mirror rpc/initiated = %d, want 1", got)
	}
	if got := m.EngineStat(statProgressCalls); got != 7 {
		t.Errorf("mirror progress_calls = %d, want 7", got)
	}
	if got := m.EngineStat(statOpsFailed); got != 3 {
		t.Errorf("mirror ops_failed = %d, want 3", got)
	}
	if got := m.EngineStat(-1); got != 0 {
		t.Errorf("out-of-range stat slot read %d, want 0", got)
	}
}

// The phase hook's latency attribution: completion phases observed
// through a hook carry the time since initiation, and the hook sees every
// transition the counter matrix books — including a value-producing op's
// deadline expiry, which is timed from its initiation like any failure.
func TestPhaseHookElapsed(t *testing.T) {
	type obs struct {
		k  OpKind
		p  Phase
		el int64
	}
	for _, tc := range []struct {
		name  string
		issue func(e *Engine)
		want  Phase
		minEl int64 // smallest elapsed the completion phase may report
	}{
		{"eager", func(e *Engine) {
			done := false
			e.Initiate(OpDesc{Kind: OpAtomic, Local: true, Move: func() { done = true }}, nil)
			if !done {
				t.Fatal("Move did not run")
			}
		}, PhaseEagerCompleted, 0},
		{"value-deadline", func(e *Engine) {
			fut := InitiateV(e, OpDescV[uint64]{
				Kind:     OpAtomic,
				Deadline: 1, // 1ns: expires on the first sweep
				Inject:   func(slot *uint64, done func(error)) {},
			})
			for !fut.Ready() {
				e.Progress()
			}
		}, PhaseFailed, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(0, Eager2021_3_6)
			var got []obs
			e.SetPhaseHook(func(k OpKind, p Phase, el int64) {
				got = append(got, obs{k, p, el})
			})
			tc.issue(e)
			if len(got) != 2 {
				t.Fatalf("hook observed %d transitions, want 2 (initiated, %v): %v", len(got), tc.want, got)
			}
			if got[0].p != PhaseInitiated || got[1].p != tc.want {
				t.Fatalf("unexpected phase order: %v", got)
			}
			if got[1].el < tc.minEl {
				t.Errorf("%v elapsed = %d, want >= %d", tc.want, got[1].el, tc.minEl)
			}
		})
	}
}

// SetExpiryHook fires once per expired deadline, on the sweeping
// goroutine, with the operation's family.
func TestExpiryHook(t *testing.T) {
	e := NewEngine(0, Eager2021_3_6)
	var expired []OpKind
	e.SetExpiryHook(func(k OpKind) { expired = append(expired, k) })

	fut := InitiateV(e, OpDescV[uint64]{
		Kind:     OpAtomic,
		Deadline: 1, // 1ns: expires on the first sweep
		Inject:   func(slot *uint64, done func(error)) {},
	})
	for !fut.Ready() {
		e.Progress()
	}
	if err := fut.Err(); err == nil {
		t.Fatal("future resolved without the deadline error")
	}
	if len(expired) != 1 || expired[0] != OpAtomic {
		t.Fatalf("expiry hook observed %v, want [atomic]", expired)
	}
}
