package gasnet

import (
	"encoding/binary"
	"errors"

	"gupcxx/internal/obs"
)

// ErrPeerUnreachable is the failure delivered to every operation whose
// target rank has been declared down by the liveness machinery: the
// retransmission budget was exhausted, or the peer fell silent past
// Config.DownAfter. Test with errors.Is.
var ErrPeerUnreachable = errors.New("gasnet: peer unreachable")

// The peer-failure detector, present only on the UDP conduit. Detection
// is pairwise and one-directional: a hosted rank tracks what it has heard
// from each peer, so an asymmetric fault (one rank's sends all dropped) is
// observed by everyone else while the faulty rank still sees its peers as
// alive. What a rank believes about a peer, and how that belief moves, is
// the pure state machine in lifecycle.go; this file is its one applier
// and the control frames it puts on the wire. The events come from the
// socket readers (every received frame — any traffic counts as hearing
// from the peer, heartbeats only carry the idle case) and from the
// reliability ticker (reliable.go: heartbeat rounds, retransmission
// exhaustion, shed bursts).

// Unsequenced control frames share the prefix [tag u8] [sender rank u16
// LE] [sender incarnation u32 LE]. A heartbeat is exactly that; a probe
// adds [kind u8]; a join announcement adds [addr len u8] and the sender's
// UDP address as text — a restarted rank binds a fresh socket, and
// survivors' address tables point at the dead port until readmission
// rewrites them.
const (
	hbFrameLen     = 7
	probeFrameLen  = 8
	joinFrameMin   = 8
	probeKindProbe = 0 // "are you there?" — answered with an ack
	probeKindAck   = 1 // "I am" — heals but is never answered
)

// roundsFor converts a silence duration into heartbeat rounds, rounding
// up; a peer must miss at least two consecutive rounds before any state
// transition so one delayed loopback delivery cannot trip the detector.
func roundsFor(silence, hbEvery int64) int64 {
	return max((silence+hbEvery-1)/hbEvery, 2)
}

// transition steps h's record of rank `to` through ev and performs every
// effect that must be atomic with the step; it is the only code that acts
// on a lifecycle step. Caller holds p.mu, and ships the wire effects
// (sendProbes) after unlocking. In order: the streams of the same record
// are reset or re-armed (host.stepStreams) and a joiner's address learned,
// all BEFORE the new state is visible, so a sender observing Alive never
// races a half-buried stream; deaths is published before a Down state and
// before the host epoch that triggers the Poll-time sweep, so a caller
// that reads PeerDown, and a sweep triggered by the epoch change, always
// observe the new generation; then the counters, one event per edge taken,
// and a wake-up so a parked rank re-polls promptly — to sweep after a
// death, to resume after a heal or a readmission.
func (h *host) transition(p *peer, to int, ev event) effects {
	d := h.ep.dom
	prev := p.lc
	next, fx := prev.step(ev)
	p.lc = next
	if fx.do&^fxAccept != 0 {
		if fx.do&fxMalformed != 0 {
			d.decodeErrors.Add(1) // 0 is never a valid incarnation
		}
		if fx.do&fxStale != 0 {
			d.staleIncarnationDrops.Add(1)
		}
		if fx.do&fxSetAddr != 0 && ev.addr.IsValid() {
			d.udp.setAddr(to, ev.addr)
		}
		// A terminal death releases the queue by resetting both streams:
		// the peer can only come back as a new incarnation, which resets
		// them anyway.
		if fx.do&(fxRelease|fxReset) != 0 {
			h.stepStreams(p, to, streamEvent{kind: sevReset}, 0)
		}
		if fx.do&fxRearm != 0 {
			h.stepStreams(p, to, streamEvent{kind: sevRearm}, clockNow())
		}
	}
	if next.deaths != prev.deaths {
		p.deaths.Store(next.deaths)
	}
	if next.inc != prev.inc {
		p.inc.Store(next.inc)
	}
	if next.state != prev.state {
		p.state.Store(next.state)
	}
	if fx.do&fxDeath != 0 {
		h.epoch.Add(1)
	}
	for _, n := range fx.notes[:fx.n] {
		switch n.kind {
		case obs.EvPeerSuspect:
			d.peersSuspected.Add(1)
		case obs.EvPeerDown:
			d.peersDown.Add(1)
		case obs.EvPeerHealed:
			d.peersHealed.Add(1)
		case obs.EvPeerReadmitted:
			d.peersReadmitted.Add(1)
		}
		d.emit(n.kind, h.rank, to, n.a, n.b)
	}
	if fx.do&(fxDeath|fxRearm|fxReset) != 0 {
		h.ep.notify()
	}
	return fx
}

// deliver is transition for callers that do not already hold the peer's
// lock: the socket reader's control frames.
func (h *host) deliver(to int, ev event) {
	p := &h.peers[to]
	p.mu.Lock()
	fx := h.transition(p, to, ev)
	p.mu.Unlock()
	h.sendProbes(to, fx)
}

// sendProbes ships the probe or probe-ack a transition asked for. Probes
// traverse the sender's real send path — fault shim included — so during
// a partition they are cut like everything else and the heal fires only
// once the network actually heals.
func (h *host) sendProbes(to int, fx effects) {
	if fx.do&fxProbe != 0 {
		h.sendProbe(to, probeKindProbe)
	}
	if fx.do&fxProbeAck != 0 {
		h.sendProbe(to, probeKindAck)
	}
}

func (h *host) sendProbe(to int, kind byte) {
	var frame [probeFrameLen]byte
	copy(frame[:], h.hbFrame[:])
	frame[0] = frameProbe
	frame[7] = kind
	h.ep.dom.probesSent.Add(1)
	h.writeFrame(to, frame[:])
}

// hbFrameFor builds rank's heartbeat frame under incarnation inc — also
// the prefix of its probes and goodbyes.
func hbFrameFor(rank int, inc uint32) (f [hbFrameLen]byte) {
	f[0] = frameHB
	binary.LittleEndian.PutUint16(f[1:3], uint16(rank))
	binary.LittleEndian.PutUint32(f[3:7], inc)
	return f
}
