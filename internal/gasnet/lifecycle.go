package gasnet

import (
	"net/netip"

	"gupcxx/internal/obs"
)

// The peer lifecycle as one pure state machine: a lifecycle value is what
// a hosted rank believes about one peer, an event is something that
// happened to that belief (a frame arrived, a detector round passed, the
// retransmission budget ran out), and step maps (state, event) to
// (state, effects) with no domain, no clock, no I/O and no shared memory.
// The single applier (host.transition, liveness.go) is the only code that
// acts on the effects; TestLifecycleModel and FuzzLifecycle walk the same
// function exhaustively. DESIGN.md §10.2 has the table.

// Per-peer liveness states. Alive is the zero value; Suspect is a peer
// that has fallen silent past Config.SuspectAfter, or is flooding us past
// the reorder budget (recoverable — hearing from it restores Alive); Down
// is reached through silence past Config.DownAfter, an exhausted
// retransmission budget, or a goodbye. Down is sticky within one
// incarnation of the peer — ordinary late datagrams from a declared-dead
// process never resurrect it — but there are two ways out: a join frame
// from a newer incarnation readmits it (fully reset reliability state),
// and a probe from the SAME incarnation heals a silence-declared death
// (parked reliability state re-armed). While a peer is Down every
// operation targeting it fails with ErrPeerUnreachable instead of hanging.
const (
	peerAlive int32 = iota
	peerSuspect
	peerDown
)

// Down causes. A Down reached through SILENCE (causeNet) is
// indistinguishable from a network partition, so it is recoverable: the
// retransmission queue is parked, not released, and paced probes look for
// the peer. A Down reached through a goodbye frame — or installed to bury
// a superseded incarnation — is the process actually leaving (causeBye)
// and stays terminal until a newer incarnation joins.
const (
	causeNone int32 = iota
	causeNet
	causeBye
)

// probeGapMax caps the probe backoff at 16 heartbeat rounds per dead
// peer, so a long partition costs a trickle of tiny frames, not a storm.
const probeGapMax = 16

// eventKind names what happened to a peer record.
type eventKind uint8

const (
	evHeard     eventKind = iota // a sequenced frame arrived (inc)
	evHeartbeat                  // a heartbeat arrived (inc)
	evBye                        // the peer announced its departure (inc)
	evProbe                      // "are you there?" (inc) — answered with an ack
	evProbeAck                   // "I am" (inc) — never answered
	evJoin                       // a restarted peer announced itself (inc, addr)
	evRound                      // the detector completed heartbeat round n
	evExhausted                  // a datagram ran out of retransmission attempts
	evShedBurst                  // sustained receive-side shedding from the peer
	numEventKinds
)

// event is one input to the machine. inc is the incarnation stamped on
// the frame, for the kinds that come off the wire; n is the round number
// of an evRound; addr is the joiner's socket, carried for the applier
// (step never reads it).
type event struct {
	kind eventKind
	inc  uint32
	n    int64
	addr netip.AddrPort
}

// fx is the set of actions a step asks the applier to perform.
type fx uint16

const (
	fxAccept    fx = 1 << iota // the frame passed the incarnation gate: process it
	fxMalformed                // zero incarnation on a gated frame: a decode error
	fxStale                    // incarnation mismatch: one counted stale drop
	fxDeath                    // declared dead: publish deaths before state, bump the host epoch
	fxRelease                  // terminal death: release the retransmission queue
	fxRearm                    // heal: re-arm the parked retransmission queue
	fxReset                    // new incarnation: both streams back to just-constructed
	fxSetAddr                  // learn the joiner's socket address
	fxProbe                    // ship a probe
	fxProbeAck                 // answer a probe
)

// notice is one lifecycle event for the operations plane; a and b are its
// payload (obs.Event.A / .B).
type notice struct {
	kind obs.EventKind
	a, b int64
}

// effects is everything a step produced besides the next state: actions,
// and the notices of the edges taken, in order (at most two: a death by
// silence is EvPeerDown then EvPartitionSuspected, a superseding join is
// EvPeerDown then EvPeerReadmitted).
type effects struct {
	do    fx
	n     int
	notes [2]notice
}

func (e *effects) note(k obs.EventKind, a, b int64) {
	e.notes[e.n] = notice{k, a, b}
	e.n++
}

// lifecycle is one hosted rank's belief about one peer.
type lifecycle struct {
	state int32 // peerAlive / peerSuspect / peerDown
	cause int32 // why Down: causeNet heals, causeBye is terminal

	// inc is the incarnation currently accepted from the peer: the epoch
	// its process registered under. 0 means "never heard" — the first
	// gated frame adopts its stamp (rejoiners boot with every peer
	// unknown, since any subset of the world may have restarted while they
	// were gone). It only moves forward through a join: a one-sided adopt
	// from ordinary traffic would desync the sequenced streams.
	inc uint32

	// deaths counts how often the peer has been declared down — the
	// generation stamp for op-table entries (DownGen).
	deaths uint32

	// Silence is measured in heartbeat ROUNDS the detector itself
	// executed, not wall-clock time: round is the last one seen,
	// heardRound the one during which the peer was last heard. If the
	// ticker is starved no heartbeats go out, but no silence accrues
	// either. suspectAfter/downAfter are the thresholds, in rounds.
	round        int64
	heardRound   int64
	suspectAfter int64
	downAfter    int64

	// Probe pacing while Down(net): the next probe ships at round
	// probeNext; the gap doubles to probeGapMax.
	probeNext int64
	probeGap  int64

	// stale edge-limits EvStaleIncarnation to the first drop of an
	// episode; cleared on heal and readmission.
	stale bool
}

// hear records proof of life: the silence clock restarts and a Suspect
// peer recovers. Down is untouched — only a probe or a join leaves it.
func (lc *lifecycle) hear(e *effects) {
	lc.heardRound = lc.round
	if lc.state == peerSuspect {
		lc.state = peerAlive
		e.note(obs.EvPeerRecovered, 0, 0)
	}
}

// suspect is Alive→Suspect; any other state is left alone.
func (lc *lifecycle) suspect(e *effects) {
	if lc.state == peerAlive {
		lc.state = peerSuspect
		e.note(obs.EvPeerSuspect, 0, 0)
	}
}

// die declares the peer down (idempotent while Down). A terminal death
// releases the retransmission queue; a healable one keeps it parked —
// in-flight frames keep the sequence numbers the receiver's cumulative
// stream still expects — and arms the probe pacing.
func (lc *lifecycle) die(e *effects, cause int32) {
	if lc.state == peerDown {
		return
	}
	lc.state, lc.cause = peerDown, cause
	lc.deaths++
	e.do |= fxDeath
	e.note(obs.EvPeerDown, 0, 0)
	if cause == causeNet {
		lc.probeGap, lc.probeNext = 1, lc.round+1
		e.note(obs.EvPartitionSuspected, 0, 0)
	} else {
		e.do |= fxRelease
	}
}

// dropStale counts one frame from the wrong incarnation; the first of an
// episode is also reported, with the frame's stamp and the recorded one.
func (lc *lifecycle) dropStale(e *effects, inc uint32) {
	e.do |= fxStale
	if !lc.stale {
		lc.stale = true
		e.note(obs.EvStaleIncarnation, int64(inc), int64(lc.inc))
	}
}

// step is the transition function. It takes and returns values only.
func (lc lifecycle) step(ev event) (lifecycle, effects) {
	var e effects
	switch ev.kind {
	case evHeard, evHeartbeat, evBye:
		// The incarnation gate every sequenced, heartbeat and bye frame
		// passes before ANY processing. A stamp that is not the recorded
		// one is the dead process's last datagrams draining out, or a
		// restarted peer not yet readmitted; the recorded stamp on a Down
		// peer is the buried incarnation's stragglers. Neither may
		// refresh the silence clock, complete acks or deliver.
		switch {
		case ev.inc == 0:
			e.do |= fxMalformed
			return lc, e
		case lc.inc == 0:
			lc.inc = ev.inc // first contact: adopt; resets and resurrects nothing
		case lc.inc != ev.inc || lc.state == peerDown:
			lc.dropStale(&e, ev.inc)
			return lc, e
		}
		e.do |= fxAccept
		if ev.kind == evBye {
			lc.die(&e, causeBye)
		} else {
			lc.hear(&e)
		}

	case evProbe, evProbeAck:
		// Probes bypass the gate above — a Down peer's frames are exactly
		// what they authenticate — and carry their own: only the recorded
		// incarnation counts. An unknown peer is not adopted here, and a
		// newer stamp waits for its join.
		if ev.inc == 0 || lc.inc == 0 || ev.inc > lc.inc {
			return lc, e
		}
		if ev.inc < lc.inc {
			lc.dropStale(&e, ev.inc)
			return lc, e
		}
		switch {
		case lc.state != peerDown:
			lc.hear(&e) // the asymmetric case: they downed us, we still see them
		case lc.cause == causeNet:
			// Heal: same incarnation, no address rewrite, no reset. The
			// death already happened and was swept, so deaths stays.
			lc.state, lc.cause, lc.stale = peerAlive, causeNone, false
			lc.heardRound = lc.round
			e.do |= fxRearm
			e.note(obs.EvPeerHealed, int64(lc.inc), 0)
		default:
			return lc, e // said goodbye or was superseded: stays dead, unanswered
		}
		if ev.kind == evProbe {
			e.do |= fxProbeAck
		}

	case evJoin:
		switch {
		case ev.inc == 0:
		case ev.inc == lc.inc:
			lc.hear(&e) // announcement is retried until acked: proof of life
		case ev.inc < lc.inc:
			lc.dropStale(&e, ev.inc)
		default:
			// Readmit. An old incarnation never declared dead (a restart
			// quicker than DownAfter) is buried NOW, terminally: every op
			// in flight against it must fail, never silently retarget the
			// new process.
			old := lc.inc
			if old != 0 {
				lc.die(&e, causeBye)
			}
			lc.inc = ev.inc
			e.do |= fxSetAddr
			if lc.state == peerDown {
				lc.state, lc.cause, lc.stale = peerAlive, causeNone, false
				e.do |= fxReset
				e.note(obs.EvPeerReadmitted, int64(ev.inc), int64(old))
			}
			lc.hear(&e) // a never-met peer may have been Suspect (shed burst)
		}

	case evRound:
		lc.round = ev.n
		silent := ev.n - lc.heardRound
		switch {
		case lc.state == peerDown:
			if lc.cause == causeNet && ev.n >= lc.probeNext {
				lc.probeNext = ev.n + lc.probeGap
				lc.probeGap = min(lc.probeGap*2, probeGapMax)
				e.do |= fxProbe
			}
		case lc.inc == 0:
			// Silence accrues only against a known incarnation, so a
			// rejoining rank cannot bury survivors it has not met yet; a
			// truly dead one is caught by retransmission exhaustion.
		case silent >= lc.downAfter:
			lc.die(&e, causeNet)
		case silent >= lc.suspectAfter:
			lc.suspect(&e)
		}

	case evExhausted:
		lc.die(&e, causeNet)

	case evShedBurst:
		lc.suspect(&e)
	}
	return lc, e
}
