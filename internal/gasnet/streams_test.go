package gasnet

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
)

// The sequenced streams checked by construction: streams.step is a pure
// function, so the table in DESIGN.md §8.2 is asserted row by row, and two
// records joined by a model wire are walked through every schedule of
// sends, deliveries in any order, drops, duplicates, timer ticks, flushes
// and a heal up to a fixed depth, with the protocol's invariants asserted
// after every step — no sockets, goroutines or sleeps.

const (
	mWindow    = 4 // small enough to walk, deep enough for a hole and three SACKed frames
	mWindowMin = 2
	mPayloads  = 4
	mAttempts  = 1
)

var mCfg = &Config{RelWindow: mWindow, RelWindowMin: mWindowMin, RelMaxAttempts: mAttempts, RelReorderBytes: 1 << 20}

// mBufs are the model's payloads: frame i carries mBufs[i], whose single
// byte is i. Nothing in the model is ever released.
var mBufs = func() (b [mPayloads + 1]*wireBuf) {
	for i := range b {
		b[i] = &wireBuf{b: []byte{byte(i)}}
	}
	return b
}()

func newStreams(cfg *Config) streams {
	s := streams{cfg: cfg}
	s.step(streamEvent{kind: sevReset}, 0)
	return s
}

// TestStreamsModel is the table of DESIGN.md §8.2, then the exhaustive walk.
func TestStreamsModel(t *testing.T) {
	t.Run("table", testStreamsTable)
	t.Run("walk", func(t *testing.T) {
		depth := 11
		if raceEnabled {
			depth = 9
		}
		w := &streamWalk{seen: map[uint64]int{}}
		w.walk(t, newStreamModel(mCfg), depth)
		t.Logf("%d steps, %d states, %d leaves drained, depth %d; retransmissions %+v",
			w.steps, len(w.seen), w.leaves, depth, w.stats)
		if w.stats.fast == 0 || w.stats.rto == 0 || w.stats.partial == 0 || w.exhausted == 0 || w.rearmed == 0 {
			t.Errorf("the walk missed a recovery path: %+v, %d exhausted, %d re-armed", w.stats, w.exhausted, w.rearmed)
		}
	})
	// The receiver holds two frames parked at most, so a frame it reported
	// holding may be shed (reneged) when an earlier one arrives; the sender
	// must resend it, and without waiting for the timer.
	t.Run("walk/shedding", func(t *testing.T) {
		depth := 10
		if raceEnabled {
			depth = 8
		}
		w := &streamWalk{seen: map[uint64]int{}}
		w.walk(t, newStreamModel(mTightCfg), depth)
		t.Logf("%d steps, %d states, %d leaves drained, depth %d; retransmissions %+v",
			w.steps, len(w.seen), w.leaves, depth, w.stats)
		if w.stats.reneged == 0 {
			t.Errorf("the walk never saw a reneged frame resent by an ack: %+v", w.stats)
		}
	})
}

var mTightCfg = &Config{RelWindow: mWindow, RelWindowMin: mWindowMin, RelMaxAttempts: mAttempts, RelReorderBytes: 2}

// sending is a record with frames 1..n sealed (payloads 0..n-1) at time 0.
func sending(n int) streams {
	s := newStreams(mCfg)
	for i := 0; i < n; i++ {
		s.step(streamEvent{kind: sevSend, wb: mBufs[i]}, 0)
	}
	return s
}

// receiving is a record that has delivered frames 1..cum and holds the
// given seqs parked.
func receiving(cum uint32, parked ...uint32) streams {
	s := newStreams(mCfg)
	for seq := uint32(1); seq <= cum; seq++ {
		s.step(streamEvent{kind: sevData, seq: seq, wb: mBufs[0], size: 1}, 0)
	}
	for _, seq := range parked {
		s.step(streamEvent{kind: sevData, seq: seq, wb: mBufs[seq-1], size: 1}, 0)
	}
	s.ready, s.spent = nil, nil
	s.ackPending = false
	return s
}

func testStreamsTable(t *testing.T) {
	const ms = int64(1e6)
	type row struct {
		name  string
		s     streams
		ev    streamEvent
		now   int64
		do    sfx      // exactly these bits
		rtx   []uint32 // retransmitted seqs, in order
		check func(s *streams, fx streamFx) error
	}
	full := sending(mWindow)
	heldTwice := sending(3)
	heldTwice.inflight[0].retx = true
	inRecovery := sending(mWindow)
	inRecovery.step(streamEvent{kind: sevAck, cum: 0, sack: 0b111}, 0) // hole at 1: an episode
	inRecovery.step(streamEvent{kind: sevTick}, 0)                     // (due at RTO, not yet)
	narrow := sending(2)
	narrow.cwnd = mWindowMin
	// Seq 1 lost and recovered by fast retransmit; seq 5, the tail, lost
	// with nothing after it.
	tailLost := newStreams(&Config{RelWindow: 8, RelWindowMin: 2, RelMaxAttempts: mAttempts, RelReorderBytes: 1 << 20})
	for i := 0; i < 5; i++ {
		tailLost.step(streamEvent{kind: sevSend, wb: mBufs[i]}, 0)
	}
	tailLost.step(streamEvent{kind: sevAck, sack: 0b111}, 0)
	reneged := sending(mWindow)
	reneged.step(streamEvent{kind: sevAck, sack: 0b111}, 0) // 2, 3, 4 parked: 1 resent
	// Twelve frames parked across a partition, the peer holding seq 3;
	// healed, and healed with the first rtxMax resent by the timer.
	healed := newStreams(&Config{RelWindow: 16, RelWindowMin: 2, RelMaxAttempts: 4, RelReorderBytes: 1 << 20})
	for i := 0; i < 12; i++ {
		healed.step(streamEvent{kind: sevSend, wb: &wireBuf{b: []byte{byte(i)}}}, 0)
	}
	healed.step(streamEvent{kind: sevAck, sack: 0b10}, 0)
	healed.step(streamEvent{kind: sevRearm}, relRTO)
	healing := healed.clone()
	healing.step(streamEvent{kind: sevTick}, relRTO)
	exhausting := sending(1)
	exhausting.inflight[0].attempts = mAttempts
	pending := receiving(1)
	pending.ackPending, pending.ackSince = true, 0
	pending.ackDelay = relAckDelayMin
	sacked3 := sending(3)
	sacked3.step(streamEvent{kind: sevAck, sack: 0b11}, 0)
	tight := receiving(0, 3)
	tightCfg := *mCfg
	tightCfg.RelReorderBytes = 2
	tight.cfg = &tightCfg
	reset := receiving(1, 3)
	reset.inflight = sending(2).inflight
	reset.nextSeq = 2

	seqs := func(s *streams) []uint32 {
		var out []uint32
		for _, e := range s.inflight {
			out = append(out, e.seq)
		}
		return out
	}
	rows := []row{
		// Send.
		{"send seals the next seq, piggybacking cum", receiving(2), streamEvent{kind: sevSend, wb: mBufs[0]}, 0,
			0, nil, func(s *streams, fx streamFx) error {
				if fx.seq != 1 || fx.ack != 2 || len(s.inflight) != 1 {
					return fmt.Errorf("seq %d ack %d, %d in flight", fx.seq, fx.ack, len(s.inflight))
				}
				return nil
			}},
		{"a pending ack rides on the frame", pending, streamEvent{kind: sevSend, wb: mBufs[0]}, 0,
			sfxPiggyback, nil, nil},
		{"a full window seals nothing", full, streamEvent{kind: sevSend, wb: mBufs[4]}, 0, sfxFull, nil, nil},

		// Acks.
		{"cum beyond nextSeq is forged", sending(2), streamEvent{kind: sevAck, cum: 3}, 0, sfxForged, nil,
			func(s *streams, _ streamFx) error {
				if len(s.inflight) != 2 || s.sendAcked != 0 {
					return fmt.Errorf("a forged ack released %d", 2-len(s.inflight))
				}
				return nil
			}},
		{"a SACK bit beyond nextSeq is forged", sending(2), streamEvent{kind: sevAck, cum: 0, sack: 0b10}, 0, sfxForged, nil, nil},
		{"a forged piggyback drops the frame whole", receiving(0), streamEvent{kind: sevData, seq: 1, cum: 9, wb: mBufs[0], size: 1}, 0,
			sfxForged, nil, func(s *streams, _ streamFx) error {
				if s.cumSeq != 0 || len(s.spent) != 1 {
					return fmt.Errorf("cum %d, %d spent", s.cumSeq, len(s.spent))
				}
				return nil
			}},
		{"a clean ack releases and samples", sending(3), streamEvent{kind: sevAck, cum: 2}, ms,
			sfxReleased, nil, func(s *streams, _ streamFx) error {
				if len(s.spent) != 2 || s.srtt != ms || s.rtoAt != ms+(ms+4*ms/2) {
					return fmt.Errorf("%d spent, srtt %d, timer re-armed at %d", len(s.spent), s.srtt, s.rtoAt)
				}
				return nil
			}},
		{"below the ceiling it grows the window by the frames released", narrow, streamEvent{kind: sevAck, cum: 2}, ms,
			sfxReleased, nil, func(s *streams, fx streamFx) error {
				if fx.grown != mWindowMin+2 || s.cwnd != mWindowMin+2 {
					return fmt.Errorf("grown %d, cwnd %d", fx.grown, s.cwnd)
				}
				return nil
			}},
		{"an ack releasing a retransmitted frame is no sample", heldTwice, streamEvent{kind: sevAck, cum: 2}, ms,
			sfxReleased, nil, func(s *streams, _ streamFx) error {
				if s.srtt != 0 {
					return fmt.Errorf("sampled %d", s.srtt)
				}
				return nil
			}},
		{"an overtaken ack is ignored", func() streams { s := sending(3); s.step(streamEvent{kind: sevAck, cum: 2}, 0); return s }(),
			streamEvent{kind: sevAck, cum: 1, sack: 0}, 0, 0, nil, nil},
		{"three SACKed above a hole: fast retransmit, one halving", full, streamEvent{kind: sevAck, sack: 0b111}, 0,
			0, []uint32{1}, func(s *streams, fx streamFx) error {
				if fx.was != mWindow || s.cwnd != mWindowMin || s.recoverSeq != mWindow {
					return fmt.Errorf("was %d cwnd %d recover %d", fx.was, s.cwnd, s.recoverSeq)
				}
				return nil
			}},
		{"an overtaken SACK at the same cum only adds", sacked3, streamEvent{kind: sevAck, sack: 0b1}, 0, 0, nil,
			func(s *streams, _ streamFx) error {
				if s.nsacked != 2 || !s.inflight[2].sacked {
					return fmt.Errorf("%d marked, seq 3 marked %v: an older bitmap cleared a newer one", s.nsacked, s.inflight[2].sacked)
				}
				return nil
			}},
		{"two SACKed are not enough", sending(3), streamEvent{kind: sevAck, sack: 0b11}, 0, 0, nil, nil},
		{"the same hole again in the same episode: nothing", inRecovery, streamEvent{kind: sevAck, sack: 0b111}, 0, 0, nil, nil},
		{"a partial ack in recovery resends the new head", tailLost, streamEvent{kind: sevAck, cum: 4}, 0,
			sfxReleased, []uint32{5}, func(s *streams, fx streamFx) error {
				if fx.was != 0 {
					return fmt.Errorf("a second halving (from %d) in one episode", fx.was)
				}
				return nil
			}},
		{"a head the peer shed after SACKing it is unmarked and resent", reneged, streamEvent{kind: sevAck, cum: 2}, 0,
			sfxReleased, []uint32{3}, func(s *streams, _ streamFx) error {
				if s.nsacked != 0 {
					return fmt.Errorf("%d still marked after the peer reported none parked", s.nsacked)
				}
				return nil
			}},

		// The timer.
		{"not yet due", sending(2), streamEvent{kind: sevTick}, relRTO - 1, 0, nil, nil},
		{"expiry resends the head only, backs off, halves", sending(3), streamEvent{kind: sevTick}, relRTO, sfxRTO, []uint32{1},
			func(s *streams, fx streamFx) error {
				if s.backoff != 1 || s.rtoAt != relRTO+2*relRTO || fx.was != mWindow {
					return fmt.Errorf("backoff %d rtoAt %d was %d", s.backoff, s.rtoAt, fx.was)
				}
				return nil
			}},
		{"expiry of a frame out of attempts is exhaustion", exhausting, streamEvent{kind: sevTick}, relRTO,
			sfxRTO | sfxExhausted, nil, nil},
		{"after a heal the timer resends the parked frames the peer does not hold, rtxMax of them", healed,
			streamEvent{kind: sevTick}, relRTO, sfxRTO, []uint32{1, 2, 4, 5, 6, 7, 8, 9}, nil},
		{"in a heal's episode an advancing ack resends the next parked frames", healing,
			streamEvent{kind: sevAck, cum: 9}, relRTO, sfxReleased, []uint32{10, 11, 12}, nil},
		{"an overdue paced ack ships", pending, streamEvent{kind: sevTick}, relAckDelayMin, sfxAck, nil, nil},
		{"a flush ships a pending ack", pending, streamEvent{kind: sevFlush}, 0, sfxAck, nil, nil},
		{"a flush with nothing pending", receiving(1), streamEvent{kind: sevFlush}, 0, 0, nil, nil},

		// Data.
		{"in order: deliver, arm the paced ack", receiving(0), streamEvent{kind: sevData, seq: 1, wb: mBufs[0], size: 1}, 0,
			sfxDeliver | sfxArmed, nil, nil},
		{"filling a gap delivers the parked run and acks at once", receiving(0, 2, 3), streamEvent{kind: sevData, seq: 1, wb: mBufs[0], size: 1}, 0,
			sfxDeliver | sfxAck, nil, func(s *streams, fx streamFx) error {
				if len(s.ready) != 2 || s.cumSeq != 3 || fx.ack != 3 || fx.sack != 0 {
					return fmt.Errorf("%d ready, cum %d, ack %d sack %b", len(s.ready), s.cumSeq, fx.ack, fx.sack)
				}
				return nil
			}},
		{"a duplicate is re-acked at once", receiving(2), streamEvent{kind: sevData, seq: 1, wb: mBufs[0], size: 1}, 0,
			sfxDup | sfxAck, nil, nil},
		{"out of order: park, SACK at once", receiving(0, 3), streamEvent{kind: sevData, seq: 4, wb: mBufs[3], size: 1}, 0,
			sfxAck, nil, func(_ *streams, fx streamFx) error {
				if fx.ack != 0 || fx.sack != 0b110 {
					return fmt.Errorf("ack %d sack %b, want 0 and 110", fx.ack, fx.sack)
				}
				return nil
			}},
		{"a duplicate of a parked frame: SACK at once", receiving(0, 3), streamEvent{kind: sevData, seq: 3, wb: mBufs[2], size: 1}, 0,
			sfxDup | sfxAck, nil, nil},
		{"beyond the window", receiving(0), streamEvent{kind: sevData, seq: mWindow + 1, wb: mBufs[0], size: 1}, 0,
			sfxOutOfWindow, nil, nil},
		{"over the byte budget sheds the furthest frame", tight, streamEvent{kind: sevData, seq: 2, wb: mBufs[1], size: 2}, 0,
			sfxAck, nil, func(s *streams, fx streamFx) error {
				if fx.shed != 1 || s.nparked != 1 || s.parked[2%mWindow].wb != mBufs[1] || s.shedRecent != 1 {
					return fmt.Errorf("shed %d, %d parked", fx.shed, s.nparked)
				}
				return nil
			}},

		// Heal and readmission.
		{"rearm keeps the seqs, restarts the attempts, floors the window", heldTwice, streamEvent{kind: sevRearm}, 7,
			0, nil, func(s *streams, _ streamFx) error {
				if !slices.Equal(seqs(s), []uint32{1, 2, 3}) || s.nextSeq != 3 || s.rtoAt != 7 || s.cwnd != mWindowMin ||
					s.inflight[0].attempts != 0 || !s.inflight[2].retx {
					return fmt.Errorf("after rearm: seqs %v next %d rtoAt %d cwnd %d", seqs(s), s.nextSeq, s.rtoAt, s.cwnd)
				}
				return nil
			}},
		{"reset releases both streams", reset, streamEvent{kind: sevReset}, 0, 0, nil,
			func(s *streams, _ streamFx) error {
				if len(s.spent) != 3 || s.nextSeq != 0 || s.cumSeq != 0 || s.nparked != 0 || s.cwnd != mWindow {
					return fmt.Errorf("%d spent, next %d cum %d parked %d", len(s.spent), s.nextSeq, s.cumSeq, s.nparked)
				}
				return nil
			}},
	}
	for _, r := range rows {
		s := r.s.clone()
		fx := s.step(r.ev, r.now)
		var rtx []uint32
		for _, wb := range fx.rtx[:fx.nrtx] {
			rtx = append(rtx, uint32(wb.b[0])+1)
		}
		if fx.do != r.do || !slices.Equal(rtx, r.rtx) {
			t.Errorf("%s: do=%#x rtx=%v, want do=%#x rtx=%v", r.name, fx.do, rtx, r.do, r.rtx)
			continue
		}
		if r.check != nil {
			if err := r.check(&s, fx); err != nil {
				t.Errorf("%s: %v", r.name, err)
			}
		}
	}
}

// clone deep-copies a record (step reuses its slices); the hand-over
// queues are empty between steps.
func (s *streams) clone() streams {
	c := *s
	c.inflight = slices.Clone(s.inflight)
	c.parked = slices.Clone(s.parked)
	c.ready, c.spent = nil, nil
	return c
}

// mMsg is one datagram on the model wire: a data frame a→b, or a
// standalone ack b→a.
type mMsg struct {
	data bool
	seq  uint32
	cum  uint32
	sack uint64
}

// streamModel is record a sending mPayloads frames to record b over a wire
// that holds every frame and ack in flight, plus what the invariants need
// to remember about the path that led here.
type streamModel struct {
	cfg       *Config
	a, b      streams
	now       int64
	wire      []mMsg
	sent      int    // payloads sealed
	got       int    // payloads delivered at b, in order
	told      uint64 // bit s-1: an ack a processed reported seq s acked or SACKed
	shed      uint64 // bit s-1: b shed seq s parked or on arrival, so it must go again
	epEnd     uint32 // the model's own recovery point: no second decrease before a acks past it
	drops     int
	dups      int
	rearms    int
	ticks     int
	exhausted bool // a declared b dead: the walk stops here
	stats     recoveryStats

	aIn   [mWindow]relEntry
	bPark [mWindow]parkedFrame
}

// recoveryStats counts which recovery fired along a path, so the walk can
// show it reached every kind.
type recoveryStats struct{ fast, partial, rto, reneged int }

func newStreamModel(cfg *Config) *streamModel {
	return &streamModel{cfg: cfg, a: newStreams(cfg), b: newStreams(cfg)}
}

// clone copies the model for one branch of the walk. The records' queues
// live in the model's own arrays, so a branch costs two allocations.
func (m *streamModel) clone() *streamModel {
	c := new(streamModel)
	*c = *m
	c.a.inflight = c.aIn[:copy(c.aIn[:], m.a.inflight):mWindow]
	if m.b.parked != nil {
		copy(c.bPark[:], m.b.parked)
		c.b.parked = c.bPark[:]
	}
	c.wire = slices.Clone(m.wire)
	return c
}

// The walk's actions, each applicable or not in a given state. The paced
// ack's timer is left to the table: a flush ships the same ack.
const (
	actSend = iota
	actTickA
	actFlushB
	actRearmA
	actDeliver // + 3*i: deliver, drop or duplicate wire message i
	actDrop
	actDup
)

const (
	mMaxDrops  = 2
	mMaxDups   = 1
	mMaxRearms = 1
	mMaxTicks  = 2 // timer expiries per path; with mAttempts 1 the second can exhaust
)

// can reports whether an action applies in this state.
func (m *streamModel) can(act int) bool {
	switch act {
	case actSend:
		return m.sent < mPayloads && !m.exhausted && len(m.a.inflight) < m.a.cwnd
	case actTickA:
		return len(m.a.inflight) > 0 && !m.exhausted && m.ticks < mMaxTicks
	case actFlushB:
		return m.b.ackPending
	case actRearmA:
		return m.rearms < mMaxRearms && len(m.a.inflight) > 0 && !m.exhausted
	}
	i, kind := (act-actDeliver)/3, actDeliver+(act-actDeliver)%3
	if i >= len(m.wire) || slices.Contains(m.wire[:i], m.wire[i]) {
		return false // out of range, or the same as an earlier message
	}
	return kind == actDeliver || kind == actDrop && m.drops < mMaxDrops || kind == actDup && m.dups < mMaxDups
}

// apply performs one applicable action and checks every invariant.
func (m *streamModel) apply(act int) error {
	switch act {
	case actSend:
		return m.stepA(streamEvent{kind: sevSend, wb: mBufs[m.sent]})
	case actTickA:
		m.ticks++
		return m.tickA()
	case actFlushB:
		return m.stepB(streamEvent{kind: sevFlush})
	case actRearmA:
		m.rearms++
		return m.stepA(streamEvent{kind: sevRearm})
	}
	i, kind := (act-actDeliver)/3, actDeliver+(act-actDeliver)%3
	msg := m.wire[i]
	switch kind {
	case actDrop:
		m.drops++
		m.wire = slices.Delete(m.wire, i, i+1)
		return nil
	case actDup:
		m.dups++
	default:
		m.wire = slices.Delete(m.wire, i, i+1)
	}
	switch {
	case msg.data:
		return m.stepB(streamEvent{kind: sevData, seq: msg.seq, cum: msg.cum, wb: mBufs[msg.seq-1], size: 1})
	case m.exhausted:
		return nil // the sender has declared the peer dead
	default:
		return m.stepA(streamEvent{kind: sevAck, cum: msg.cum, sack: msg.sack})
	}
}

// tickA runs the sender's timer at its deadline.
func (m *streamModel) tickA() error {
	m.now = max(m.now, m.a.rtoAt)
	return m.stepA(streamEvent{kind: sevTick})
}

// stepA steps the sender and checks it.
func (m *streamModel) stepA(ev streamEvent) error {
	prev := m.a // its queues alias a's: compare entries through prevIn
	var prevIn [mWindow]relEntry
	before := prevIn[:copy(prevIn[:], m.a.inflight)]
	fx := m.a.step(ev, m.now)
	a := &m.a
	a.ready, a.spent = a.ready[:0], a.spent[:0]
	if ev.kind == sevSend && fx.do&sfxFull == 0 {
		m.sent++
		m.wire = append(m.wire, mMsg{data: true, seq: fx.seq, cum: fx.ack})
	}
	if fx.do&sfxExhausted != 0 {
		m.exhausted = true
	}

	// The window stays inside its bounds.
	if a.cwnd < mWindowMin || a.cwnd > mWindow {
		return fmt.Errorf("cwnd %d outside [%d, %d]", a.cwnd, mWindowMin, mWindow)
	}
	// No frame the peer reported holding is ever sent again, unless the
	// peer shed it: the sender must resend what the peer reneged on.
	for _, wb := range fx.rtx[:fx.nrtx] {
		seq := uint32(wb.b[0]) + 1
		told := m.told&(1<<(seq-1)) != 0
		if told && m.shed&(1<<(seq-1)) == 0 || seq <= prev.sendAcked {
			return fmt.Errorf("retransmitted seq %d, which the peer reported holding", seq)
		}
		m.wire = append(m.wire, mMsg{data: true, seq: seq, cum: a.cumSeq})
		switch {
		case fx.do&sfxRTO != 0:
			m.stats.rto++
		case told:
			m.stats.reneged++
		case seq == a.sendAcked+1 && a.sendAcked > prev.sendAcked:
			m.stats.partial++
		default:
			m.stats.fast++
		}
	}
	// At most one decrease per recovery episode: an episode begins with the
	// decrease and lasts until the peer acks everything sent before it.
	if fx.was != 0 || ev.kind == sevRearm {
		if ev.kind != sevRearm && prev.sendAcked < m.epEnd {
			return fmt.Errorf("a second decrease (%d -> %d) before the episode ended (acked %d < %d)",
				fx.was, a.cwnd, prev.sendAcked, m.epEnd)
		}
		m.epEnd = a.nextSeq
	} else if a.cwnd < prev.cwnd {
		return fmt.Errorf("window shrank %d -> %d outside an episode's start", prev.cwnd, a.cwnd)
	}
	// Karn: an ack that releases a retransmitted frame is no sample.
	if a.sendAcked > prev.sendAcked {
		for _, e := range before {
			if e.seq <= a.sendAcked && e.retx && (a.srtt != prev.srtt || a.rttvar != prev.rttvar || fx.grown != 0) {
				return fmt.Errorf("an ack releasing retransmitted seq %d was sampled", e.seq)
			}
		}
	}
	// A heal keeps every sequence number.
	if ev.kind == sevRearm {
		if a.nextSeq != prev.nextSeq || a.sendAcked != prev.sendAcked || len(a.inflight) != len(before) {
			return fmt.Errorf("rearm moved the stream: next %d->%d acked %d->%d", prev.nextSeq, a.nextSeq, prev.sendAcked, a.sendAcked)
		}
		for i := range a.inflight {
			if a.inflight[i].seq != before[i].seq || a.inflight[i].wb != before[i].wb {
				return fmt.Errorf("rearm renumbered seq %d", before[i].seq)
			}
		}
	}
	if ev.kind == sevAck && fx.do&sfxForged == 0 {
		m.told |= 1<<ev.cum - 1 | ev.sack<<(ev.cum+1)
	}
	// inflight is exactly sendAcked+1 .. nextSeq.
	for i, e := range a.inflight {
		if e.seq != a.sendAcked+1+uint32(i) {
			return fmt.Errorf("in flight %v after acked %d", a.inflight, a.sendAcked)
		}
	}
	return nil
}

// stepB steps the receiver and checks it.
func (m *streamModel) stepB(ev streamEvent) error {
	var held uint64
	for seq := uint32(1); seq <= mPayloads; seq++ {
		if m.bHolds(seq) || ev.kind == sevData && seq == ev.seq {
			held |= 1 << (seq - 1)
		}
	}
	fx := m.b.step(ev, m.now)
	b := &m.b
	for seq := uint32(1); seq <= mPayloads; seq++ {
		if held&(1<<(seq-1)) != 0 && !m.bHolds(seq) {
			m.shed |= 1 << (seq - 1)
		}
	}
	// Every frame is delivered exactly once, in order.
	var out []*wireBuf
	if fx.do&sfxDeliver != 0 {
		out = append(out, ev.wb)
	}
	for _, wb := range append(out, b.ready...) {
		if id := int(wb.b[0]); id != m.got {
			return fmt.Errorf("delivered payload %d, want %d", id, m.got)
		}
		m.got++
	}
	b.ready, b.spent = b.ready[:0], b.spent[:0]
	if b.cumSeq != uint32(m.got) {
		return fmt.Errorf("cum %d after %d deliveries", b.cumSeq, m.got)
	}
	if fx.do&sfxAck != 0 {
		m.wire = append(m.wire, mMsg{cum: fx.ack, sack: fx.sack})
	}
	if fx.do&(sfxForged|sfxOutOfWindow) != 0 || fx.shed != 0 && m.cfg.RelReorderBytes >= mWindow {
		return fmt.Errorf("the receiver refused a well-formed frame (do=%#x)", fx.do)
	}
	return nil
}

// bHolds reports whether the receiver has delivered or holds parked seq.
func (m *streamModel) bHolds(seq uint32) bool {
	return seq <= m.b.cumSeq || m.b.parked != nil && m.b.parked[seq%mWindow].wb != nil
}

// drain runs the wire clean from here: every message delivered in order,
// the sender's timer and the receiver's acks driven, until every payload
// is delivered and acknowledged — unless the sender has given up, the
// peer-death the lifecycle then handles.
func (m *streamModel) drain() error {
	for i := 0; i < 200; i++ {
		var err error
		switch {
		case len(m.wire) > 0:
			err = m.apply(actDeliver)
		case m.can(actSend):
			err = m.apply(actSend)
		case m.b.ackPending:
			err = m.apply(actFlushB)
		case len(m.a.inflight) > 0 && !m.exhausted:
			err = m.tickA()
		default:
			if !m.exhausted && m.got != mPayloads {
				return fmt.Errorf("quiescent after %d of %d deliveries", m.got, mPayloads)
			}
			return nil
		}
		if err != nil {
			return err
		}
	}
	return fmt.Errorf("no quiescence: %d of %d delivered, %d in flight", m.got, mPayloads, len(m.a.inflight))
}

// streamWalk is the exhaustive walk: every applicable action from every
// state reached, to a depth, each state expanded once per remaining depth.
type streamWalk struct {
	seen               map[uint64]int
	path               []int
	steps, leaves      int
	exhausted, rearmed int
	stats              recoveryStats // summed over the leaves' paths and drains
}

func (w *streamWalk) walk(t *testing.T, m *streamModel, depth int) {
	if t.Failed() {
		return
	}
	key := w.key(m)
	if d, ok := w.seen[key]; ok && d >= depth {
		return
	}
	w.seen[key] = depth
	if depth == 0 || m.exhausted {
		w.leaves++
		if m.exhausted {
			w.exhausted++
		}
		if m.rearms > 0 {
			w.rearmed++
		}
		c := m.clone()
		if err := c.drain(); err != nil {
			t.Errorf("after %v: drain: %v", w.path, err)
		}
		w.stats.fast += c.stats.fast
		w.stats.partial += c.stats.partial
		w.stats.rto += c.stats.rto
		w.stats.reneged += c.stats.reneged
		return
	}
	for act := 0; act < actDeliver+3*len(m.wire); act++ {
		if !m.can(act) {
			continue
		}
		c := m.clone()
		err := c.apply(act)
		w.steps++
		w.path = append(w.path, act)
		if err != nil {
			t.Errorf("after %v: %v", w.path, err)
			return
		}
		w.walk(t, c, depth-1)
		w.path = w.path[:len(w.path)-1]
	}
}

// key hashes everything that decides the model's future.
func (w *streamWalk) key(m *streamModel) uint64 {
	var h uint64
	put := func(vs ...int64) {
		for _, v := range vs {
			h = (h ^ uint64(v)) * 0x9E3779B97F4A7C15
			h ^= h >> 31
		}
	}
	for _, s := range []*streams{&m.a, &m.b} {
		put(int64(s.nextSeq), int64(s.sendAcked), int64(s.nsacked), s.srtt, s.rttvar, s.rto, s.rtoAt,
			int64(s.backoff), int64(s.cwnd), int64(s.recoverSeq), int64(s.episode), int64(s.cumSeq),
			int64(s.lastAck), int64(s.nparked), s.ackSince, s.ackDelay)
		if s.ackPending {
			put(1)
		}
		for _, e := range s.inflight {
			put(int64(e.seq), int64(e.attempts), int64(e.episode), e.sentAt)
			if e.retx {
				put(2)
			}
			if e.sacked {
				put(3)
			}
		}
		for i, f := range s.parked {
			if f.wb != nil {
				put(int64(i))
			}
		}
		put(-1)
	}
	// The wire is a multiset: any message may be delivered next.
	var wire uint64
	for _, msg := range m.wire {
		x := uint64(cmpMsg(msg)) * 0x9E3779B97F4A7C15
		wire += x ^ x>>29
	}
	put(int64(wire), m.now, int64(m.sent), int64(m.got), int64(m.told), int64(m.shed), int64(m.epEnd),
		int64(m.drops), int64(m.dups), int64(m.rearms), int64(m.ticks))
	return h
}

// cmpMsg packs a model message into one ordered integer (seqs and the
// bitmap are tiny in the model).
func cmpMsg(m mMsg) int {
	v := int(m.seq)<<24 | int(m.cum)<<16 | int(m.sack)<<1
	if m.data {
		v |= 1
	}
	return v
}

// FuzzStreams: any byte string is a schedule — each byte picks one of the
// walk's actions (modulo those the state offers), then the wire runs clean
// to quiescence; the same invariants must hold after every step. An
// even-length schedule runs against the two-frame reorder budget of the
// walk's shedding half.
func FuzzStreams(f *testing.F) {
	f.Add([]byte{actSend, actSend, actSend, actSend, actDrop, actDeliver, actDeliver, actDeliver, actDeliver, actDeliver, actDeliver})
	f.Add([]byte{actSend, actSend, actTickA, actRearmA, actTickA, actDup, actDeliver})
	f.Add([]byte{actSend, actSend, actSend, actSend, actDeliver + 3*3, actDrop, actDrop, actDeliver, actDeliver, actTickA, actTickA})
	// Shedding: 2 and 4 parked, 3 sheds 4 after the peer reported it.
	f.Add([]byte{actSend, actSend, actSend, actSend, actDeliver + 3, actDeliver + 3*2, actDeliver + 3, actDeliver, actDeliver, actDeliver})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := mCfg
		if len(data)%2 == 0 {
			cfg = mTightCfg
		}
		m := newStreamModel(cfg)
		for i, b := range data {
			n := actDeliver + 3*len(m.wire)
			act := int(b) % n
			for k := 0; k < n && !m.can(act); k++ {
				act = (act + 1) % n
			}
			if !m.can(act) {
				break
			}
			if err := m.apply(act); err != nil {
				t.Fatalf("step %d (action %d): %v", i, act, err)
			}
		}
		if err := m.drain(); err != nil {
			t.Fatalf("drain: %v", err)
		}
	})
}

// TestStreamsWindowUnderShedding: a window halved by one loss is whole again
// a round trip after its episode ends, so it must be sustained loss that
// keeps it down — and a receiver shedding frames under its reorder budget
// in every recovery must hold it down further, with every shed frame
// recovered by the acks, not the timer. (The walk's shedding half covers a
// receiver reneging on frames it SACKed.)
func TestStreamsWindowUnderShedding(t *testing.T) {
	const window = 64
	run := func(dropEvery, budget int) shedRun {
		r := runShedding(&Config{RelWindow: window, RelWindowMin: 2, RelMaxAttempts: 64, RelReorderBytes: budget}, dropEvery)
		t.Logf("drop 1/%d, budget %d frames: %+v", dropEvery, budget, r)
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r
	}
	clean := run(0, 1<<20)
	lossy := run(50, 1<<20)
	shedding := run(50, 4)
	if clean.avgCwnd != window || clean.retransmits != 0 {
		t.Errorf("a clean wire left the window at %.1f after %d retransmissions", clean.avgCwnd, clean.retransmits)
	}
	if lossy.avgCwnd >= window*3/4 {
		t.Errorf("a loss every 50 frames left the window at %.1f of %d on average", lossy.avgCwnd, window)
	}
	if shedding.shed == 0 || shedding.avgCwnd >= lossy.avgCwnd || shedding.avgCwnd >= window/3 {
		t.Errorf("with the receiver shedding (%d frames) the window averaged %.1f, %.1f without", shedding.shed, shedding.avgCwnd, lossy.avgCwnd)
	}
	if shedding.rtos != 0 {
		t.Errorf("%d timer expiries: shed frames waited for the timer", shedding.rtos)
	}
}

type shedRun struct {
	delivered, shed, retransmits, rtos int
	avgCwnd                            float64
	err                                error
}

// runShedding drives a sender record and a receiver record for 200 ms of
// virtual time over a wire with 50 µs of latency each way that drops every
// dropEvery-th new frame, with the sender keeping its window full, the
// receiver flushing its acks at once (as its poll loop does), and the
// sender's ticker every millisecond. Frames are one byte of budget each.
func runShedding(cfg *Config, dropEvery int) (r shedRun) {
	const lat, tick, end = int64(50e3), int64(1e6), int64(200e6)
	type msg struct {
		at   int64
		wb   *wireBuf // nil: an ack
		cum  uint32
		sack uint64
	}
	a, b := newStreams(cfg), newStreams(cfg)
	var wire []msg // constant latency: arrival order is send order
	var cwndSum, samples int64
	sent := 0
	frame := func(wb *wireBuf, now int64) msg {
		return msg{at: now + lat, wb: wb, cum: binary.LittleEndian.Uint32(wb.b[8:])}
	}
	resend := func(fx streamFx, now int64) {
		for _, wb := range fx.rtx[:fx.nrtx] {
			wire = append(wire, frame(wb, now))
			r.retransmits++
		}
	}
	for now := int64(0); now < end; {
		for len(a.inflight) < a.cwnd {
			wb := &wireBuf{b: make([]byte, 12)}
			fx := a.step(streamEvent{kind: sevSend, wb: wb}, now)
			binary.LittleEndian.PutUint32(wb.b[0:], uint32(sent))
			binary.LittleEndian.PutUint32(wb.b[4:], fx.seq)
			binary.LittleEndian.PutUint32(wb.b[8:], fx.ack)
			if sent++; dropEvery == 0 || sent%dropEvery != 0 {
				wire = append(wire, frame(wb, now))
			}
		}
		next := now - now%tick + tick
		if len(wire) > 0 && wire[0].at < next {
			next = wire[0].at
		}
		now = next
		for len(wire) > 0 && wire[0].at <= now {
			m := wire[0]
			wire = wire[1:]
			if m.wb == nil {
				fx := a.step(streamEvent{kind: sevAck, cum: m.cum, sack: m.sack}, now)
				resend(fx, now)
				continue
			}
			seq := binary.LittleEndian.Uint32(m.wb.b[4:])
			fx := b.step(streamEvent{kind: sevData, seq: seq, cum: m.cum, wb: m.wb, size: 1}, now)
			r.shed += int(fx.shed)
			var out []*wireBuf
			if fx.do&sfxDeliver != 0 {
				out = append(out, m.wb)
			}
			for _, wb := range append(out, b.ready...) {
				if id := int(binary.LittleEndian.Uint32(wb.b)); id != r.delivered {
					r.err = fmt.Errorf("delivered payload %d, want %d", id, r.delivered)
					return r
				}
				r.delivered++
			}
			b.ready, b.spent = b.ready[:0], b.spent[:0]
			if fx.do&sfxAck != 0 {
				wire = append(wire, msg{at: now + lat, cum: fx.ack, sack: fx.sack})
			}
		}
		a.spent = a.spent[:0]
		if fx := b.step(streamEvent{kind: sevFlush}, now); fx.do&sfxAck != 0 {
			wire = append(wire, msg{at: now + lat, cum: fx.ack, sack: fx.sack})
		}
		if now%tick == 0 {
			fx := a.step(streamEvent{kind: sevTick}, now)
			if fx.do&sfxRTO != 0 {
				r.rtos++
			}
			resend(fx, now)
		}
		cwndSum += int64(a.cwnd)
		samples++
	}
	r.avgCwnd = float64(cwndSum) / float64(samples)
	return r
}
