package gasnet

import (
	"fmt"
	"slices"
	"testing"

	"gupcxx/internal/obs"
)

// The peer lifecycle checked by construction: lifecycle.step is a pure
// function, so the table in DESIGN.md §10.2 is asserted row by row, and
// every event sequence up to a fixed depth is walked with the lifecycle's
// invariants asserted after every step — no sockets, goroutines or sleeps.

const (
	tSuspect = 3 // rounds of silence before Suspect in these tests
	tDown    = 6 // rounds of silence before Down
	tRec     = 5 // the incarnation a known peer starts under
)

func lcStart(state, cause int32, inc uint32) lifecycle {
	return lifecycle{state: state, cause: cause, inc: inc,
		suspectAfter: tSuspect, downAfter: tDown, probeNext: 1, probeGap: 1}
}

func kinds(e effects) []obs.EventKind {
	var ks []obs.EventKind
	for _, n := range e.notes[:e.n] {
		ks = append(ks, n.kind)
	}
	return ks
}

// TestLifecycleModel is the table of DESIGN.md §10.2, then the exhaustive
// walk.
func TestLifecycleModel(t *testing.T) {
	type st struct {
		state, cause int32
		inc          uint32
	}
	alive, suspect := st{peerAlive, causeNone, tRec}, st{peerSuspect, causeNone, tRec}
	downNet, downBye := st{peerDown, causeNet, tRec}, st{peerDown, causeBye, tRec}
	unknown := st{peerAlive, causeNone, 0}
	down := []obs.EventKind{obs.EvPeerDown}
	cut := []obs.EventKind{obs.EvPeerDown, obs.EvPartitionSuspected}
	superseded := []obs.EventKind{obs.EvPeerDown, obs.EvPeerReadmitted}
	stale := []obs.EventKind{obs.EvStaleIncarnation}
	one := func(k obs.EventKind) []obs.EventKind { return []obs.EventKind{k} }

	rows := []struct {
		name  string
		from  st
		ev    event
		to    st
		do    fx
		notes []obs.EventKind
	}{
		// The incarnation gate: sequenced frames, heartbeats, goodbyes.
		{"zero incarnation is malformed", alive, event{kind: evHeard}, alive, fxMalformed, nil},
		{"first contact adopts", unknown, event{kind: evHeard, inc: 9}, st{peerAlive, causeNone, 9}, fxAccept, nil},
		{"older incarnation is stale", alive, event{kind: evHeartbeat, inc: tRec - 1}, alive, fxStale, stale},
		{"newer incarnation waits for its join", alive, event{kind: evHeard, inc: tRec + 1}, alive, fxStale, stale},
		{"a dead incarnation's stragglers are stale", downNet, event{kind: evHeard, inc: tRec}, downNet, fxStale, stale},
		{"a stale goodbye buries nobody", alive, event{kind: evBye, inc: tRec - 1}, alive, fxStale, stale},
		{"traffic from an alive peer", alive, event{kind: evHeard, inc: tRec}, alive, fxAccept, nil},
		{"traffic recovers a suspect", suspect, event{kind: evHeartbeat, inc: tRec}, alive, fxAccept, one(obs.EvPeerRecovered)},
		{"goodbye is a terminal death", alive, event{kind: evBye, inc: tRec}, downBye, fxAccept | fxDeath | fxRelease, down},
		{"goodbye from a suspect", suspect, event{kind: evBye, inc: tRec}, downBye, fxAccept | fxDeath | fxRelease, down},

		// Probes carry their own gate.
		{"probe without incarnation", downNet, event{kind: evProbe}, downNet, 0, nil},
		{"probe from a never-met peer", unknown, event{kind: evProbe, inc: 9}, unknown, 0, nil},
		{"probe from a newer incarnation", downNet, event{kind: evProbe, inc: tRec + 1}, downNet, 0, nil},
		{"probe from an older incarnation", downNet, event{kind: evProbeAck, inc: tRec - 1}, downNet, fxStale, stale},
		{"probe against an alive peer is answered", alive, event{kind: evProbe, inc: tRec}, alive, fxProbeAck, nil},
		{"probe recovers a suspect", suspect, event{kind: evProbe, inc: tRec}, alive, fxProbeAck, one(obs.EvPeerRecovered)},
		{"probe heals a partition", downNet, event{kind: evProbe, inc: tRec}, alive, fxRearm | fxProbeAck, one(obs.EvPeerHealed)},
		{"probe ack heals, unanswered", downNet, event{kind: evProbeAck, inc: tRec}, alive, fxRearm, one(obs.EvPeerHealed)},
		{"goodbye stays dead", downBye, event{kind: evProbe, inc: tRec}, downBye, 0, nil},

		// Joins.
		{"join without incarnation", alive, event{kind: evJoin}, alive, 0, nil},
		{"repeated join is proof of life", suspect, event{kind: evJoin, inc: tRec}, alive, 0, one(obs.EvPeerRecovered)},
		{"join from an older incarnation", alive, event{kind: evJoin, inc: tRec - 1}, alive, fxStale, stale},
		{"fast restart buries the old incarnation", alive, event{kind: evJoin, inc: tRec + 1},
			st{peerAlive, causeNone, tRec + 1}, fxDeath | fxRelease | fxReset | fxSetAddr, superseded},
		{"restart seen from a suspect", suspect, event{kind: evJoin, inc: tRec + 1},
			st{peerAlive, causeNone, tRec + 1}, fxDeath | fxRelease | fxReset | fxSetAddr, superseded},
		{"rejoin after a partition verdict", downNet, event{kind: evJoin, inc: tRec + 1},
			st{peerAlive, causeNone, tRec + 1}, fxReset | fxSetAddr, one(obs.EvPeerReadmitted)},
		{"rejoin after a goodbye", downBye, event{kind: evJoin, inc: tRec + 1},
			st{peerAlive, causeNone, tRec + 1}, fxReset | fxSetAddr, one(obs.EvPeerReadmitted)},
		{"join as first contact", unknown, event{kind: evJoin, inc: 9}, st{peerAlive, causeNone, 9}, fxSetAddr, nil},

		// Detector rounds (heardRound is 0 in every start state).
		{"a quiet round", alive, event{kind: evRound, n: tSuspect - 1}, alive, 0, nil},
		{"silence past SuspectAfter", alive, event{kind: evRound, n: tSuspect}, suspect, 0, one(obs.EvPeerSuspect)},
		{"a suspect stays suspect", suspect, event{kind: evRound, n: tSuspect}, suspect, 0, nil},
		{"silence past DownAfter", alive, event{kind: evRound, n: tDown}, downNet, fxDeath, cut},
		{"a suspect falls silent past DownAfter", suspect, event{kind: evRound, n: tDown}, downNet, fxDeath, cut},
		{"no silence against a never-met peer", unknown, event{kind: evRound, n: tDown}, unknown, 0, nil},
		{"a partitioned peer is probed", downNet, event{kind: evRound, n: 1}, downNet, fxProbe, nil},
		{"a departed peer is not", downBye, event{kind: evRound, n: tDown}, downBye, 0, nil},

		// The reliability layer's verdicts.
		{"retransmission exhaustion", alive, event{kind: evExhausted}, downNet, fxDeath, cut},
		{"exhaustion against a dead peer", downBye, event{kind: evExhausted}, downBye, 0, nil},
		{"shed burst", alive, event{kind: evShedBurst}, suspect, 0, one(obs.EvPeerSuspect)},
		{"shed burst from a suspect", suspect, event{kind: evShedBurst}, suspect, 0, nil},
		{"shed burst from a dead peer", downNet, event{kind: evShedBurst}, downNet, 0, nil},
	}
	for _, r := range rows {
		prev := lcStart(r.from.state, r.from.cause, r.from.inc)
		next, e := prev.step(r.ev)
		if got := (st{next.state, next.cause, next.inc}); got != r.to || e.do != r.do || !slices.Equal(kinds(e), r.notes) {
			t.Errorf("%s: %+v --%+v--> %+v do=%#x notes=%v, want %+v do=%#x notes=%v",
				r.name, r.from, r.ev, got, e.do, kinds(e), r.to, r.do, r.notes)
		}
		if err := checkStep(prev, r.ev, next, e); err != nil {
			t.Errorf("%s: %v", r.name, err)
		}
	}

	// Probe pacing backs off 1, 2, 4, 8, 16, 16 rounds.
	lc, _ := lcStart(peerAlive, causeNone, tRec).step(event{kind: evExhausted})
	var probed []int64
	for n := int64(1); n <= 48; n++ {
		var e effects
		if lc, e = lc.step(event{kind: evRound, n: n}); e.do&fxProbe != 0 {
			probed = append(probed, n)
		}
	}
	if want := []int64{1, 2, 4, 8, 16, 32, 48}; !slices.Equal(probed, want) {
		t.Errorf("probes shipped at rounds %v, want %v", probed, want)
	}

	// Every event sequence up to the depth, from a known peer and from a
	// rejoiner's never-met one.
	depth := 5
	if raceEnabled {
		depth = 4
	}
	steps := 0
	path := make([]event, depth)
	var walk func(lc lifecycle, at int)
	walk = func(lc lifecycle, at int) {
		if at == depth || t.Failed() {
			return
		}
		for code := byte(0); code < numEventCodes; code++ {
			ev := eventFor(lc, code)
			next, e := lc.step(ev)
			steps++
			if err := checkStep(lc, ev, next, e); err != nil {
				t.Errorf("after %+v: %+v --%+v--> %+v: %v", path[:at], lc, ev, next, err)
				return
			}
			path[at] = ev
			walk(next, at+1)
		}
	}
	walk(lcStart(peerAlive, causeNone, tRec), 0)
	walk(lcStart(peerAlive, causeNone, 0), 0)
	t.Logf("%d steps checked to depth %d", steps, depth)
}

// numEventCodes is the size of the walk's alphabet: the six frame kinds
// under three incarnations each, a round at three silences, and the two
// reliability verdicts.
const numEventCodes = 6*3 + 3 + 2

// eventFor decodes one alphabet letter against the current record, so
// "older / recorded / newer" and "below suspect / suspect / down" keep
// their meaning as the record moves.
func eventFor(lc lifecycle, code byte) event {
	code %= numEventCodes
	switch {
	case code < 18:
		base := lc.inc
		if base == 0 {
			base = tRec // a never-met peer: all three are first contact
		}
		return event{kind: eventKind(code / 3), inc: base - 1 + uint32(code%3)}
	case code < 21:
		gap := [...]int64{1, tSuspect, tDown}[code-18]
		return event{kind: evRound, n: max(lc.round+1, lc.heardRound+gap)}
	case code == 21:
		return event{kind: evExhausted}
	default:
		return event{kind: evShedBurst}
	}
}

// checkStep asserts the lifecycle's invariants on one step.
func checkStep(prev lifecycle, ev event, next lifecycle, e effects) error {
	count := func(k obs.EventKind) int {
		n := 0
		for _, x := range e.notes[:e.n] {
			if x.kind == k {
				n++
			}
		}
		return n
	}
	has := func(f fx) bool { return e.do&f != 0 }
	wasDown, isDown := prev.state == peerDown, next.state == peerDown
	framed := ev.kind <= evJoin

	// Incarnations only move forward, probes never move them, and a frame
	// from an older incarnation changes nothing but the stale-episode flag.
	if next.inc < prev.inc {
		return fmt.Errorf("recorded incarnation moved backward: %d -> %d", prev.inc, next.inc)
	}
	if (ev.kind == evProbe || ev.kind == evProbeAck) && next.inc != prev.inc {
		return fmt.Errorf("a probe changed the recorded incarnation: %d -> %d", prev.inc, next.inc)
	}
	if framed && ev.inc != 0 && ev.inc < prev.inc {
		want := prev
		want.stale = true
		if next != want || !has(fxStale) || has(fxAccept) {
			return fmt.Errorf("a frame from an older incarnation was not a pure stale drop (do=%#x)", e.do)
		}
	}
	if !isDown && next.inc != prev.inc && next.inc != ev.inc {
		return fmt.Errorf("alive under incarnation %d nobody announced", next.inc)
	}
	if has(fxAccept) && (ev.kind > evBye || ev.inc != next.inc || (wasDown && prev.inc != 0)) {
		return fmt.Errorf("accepted a frame it should have gated (do=%#x)", e.do)
	}

	// deaths never decreases, and rises on every entry to Down and only
	// then — the burial of a superseded incarnation included, which passes
	// through Down(bye) inside one step.
	superseding := ev.kind == evJoin && prev.inc != 0 && ev.inc > prev.inc && !wasDown
	died := 0
	if (isDown && !wasDown) || superseding {
		died = 1
	}
	if next.deaths != prev.deaths+uint32(died) || count(obs.EvPeerDown) != died || has(fxDeath) != (died == 1) {
		return fmt.Errorf("deaths %d -> %d with %d EvPeerDown, fxDeath=%v; want %d death(s)",
			prev.deaths, next.deaths, count(obs.EvPeerDown), has(fxDeath), died)
	}

	// What happens to the reliability half: a silence death parks the
	// queue (nothing released, nothing reset), a terminal death releases
	// it, a heal re-arms it, and only a changed incarnation resets it.
	diedBye := died == 1 && (superseding || next.cause == causeBye)
	if has(fxRelease) != diedBye {
		return fmt.Errorf("fxRelease=%v, terminal death=%v", has(fxRelease), diedBye)
	}
	healed := wasDown && prev.cause == causeNet && !isDown && next.inc == prev.inc
	if has(fxRearm) != healed {
		return fmt.Errorf("fxRearm=%v, healed=%v", has(fxRearm), healed)
	}
	readmitted := ev.kind == evJoin && next.inc != prev.inc && (prev.inc != 0 || wasDown)
	if has(fxReset) != readmitted {
		return fmt.Errorf("fxReset=%v, readmitted=%v", has(fxReset), readmitted)
	}
	if has(fxSetAddr) != (ev.kind == evJoin && next.inc != prev.inc) {
		return fmt.Errorf("fxSetAddr=%v on %v, incarnation %d -> %d", has(fxSetAddr), ev.kind, prev.inc, next.inc)
	}
	if isDown && next.cause == causeNone || !isDown && next.cause != causeNone {
		return fmt.Errorf("state %d with cause %d", next.state, next.cause)
	}

	// Wire effects.
	if has(fxProbe) && !(ev.kind == evRound && isDown && next.cause == causeNet) {
		return fmt.Errorf("probe shipped on %v in state %d/%d", ev.kind, next.state, next.cause)
	}
	if has(fxProbeAck) && !(ev.kind == evProbe && ev.inc == prev.inc && !isDown) {
		return fmt.Errorf("probe ack on %v (inc %d, recorded %d, state %d)", ev.kind, ev.inc, prev.inc, next.state)
	}

	// Every edge emits its events exactly once, in order; a step that
	// leaves the state where it was emits nothing — the edge-limited
	// EvStaleIncarnation excepted.
	var buf [2]obs.EventKind
	want := buf[:0]
	switch {
	case has(fxStale):
		if !prev.stale {
			want = append(want, obs.EvStaleIncarnation)
		}
	case superseding:
		want = append(want, obs.EvPeerDown, obs.EvPeerReadmitted)
	case readmitted:
		want = append(want, obs.EvPeerReadmitted)
	case healed:
		want = append(want, obs.EvPeerHealed)
	case died == 1 && next.cause == causeNet:
		want = append(want, obs.EvPeerDown, obs.EvPartitionSuspected)
	case died == 1:
		want = append(want, obs.EvPeerDown)
	case prev.state == peerAlive && next.state == peerSuspect:
		want = append(want, obs.EvPeerSuspect)
	case prev.state == peerSuspect && next.state == peerAlive:
		want = append(want, obs.EvPeerRecovered)
	case prev.state != next.state:
		return fmt.Errorf("unexpected edge %d -> %d", prev.state, next.state)
	}
	if !slices.EqualFunc(e.notes[:e.n], want, func(n notice, k obs.EventKind) bool { return n.kind == k }) {
		return fmt.Errorf("emitted %v, want %v", kinds(e), want)
	}
	return nil
}

// FuzzLifecycle: any byte string is an event sequence (first byte picks
// the start, each further byte one letter of the walk's alphabet); the
// same invariants must hold after every step.
func FuzzLifecycle(f *testing.F) {
	const (
		probeRec  = byte(evProbe)*3 + 1
		byeRec    = byte(evBye)*3 + 1
		joinNewer = byte(evJoin)*3 + 2
		roundDown = 18 + 2
	)
	f.Add([]byte{0, roundDown, probeRec})            // partition, then heal
	f.Add([]byte{0, joinNewer})                      // restart faster than DownAfter
	f.Add([]byte{0, byeRec, joinNewer})              // goodbye, then rejoin
	f.Add([]byte{1, joinNewer, roundDown, probeRec}) // a rejoiner meets, loses and regains a peer
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		lc := lcStart(peerAlive, causeNone, tRec)
		if data[0]&1 == 1 {
			lc.inc = 0
		}
		for i, code := range data[1:] {
			ev := eventFor(lc, code)
			next, e := lc.step(ev)
			if err := checkStep(lc, ev, next, e); err != nil {
				t.Fatalf("step %d: %+v --%+v--> %+v: %v", i, lc, ev, next, err)
			}
			lc = next
		}
	})
}
