package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"gupcxx"
)

// The seven op families of the mix: reads beside writes, per-message cost
// (8 B) beside per-byte cost (1 KiB), value-producing beside value-less,
// and one registered-handler RPC.
type family int

const (
	famRput family = iota
	famRputBulk
	famRget
	famRgetBulk
	famFetchAdd
	famAdd
	famRPCWire
	numFamilies
)

var familyNames = [numFamilies]string{"rput", "rputbulk", "rget", "rgetbulk", "fetchadd", "add", "rpcwire"}

// valueLess marks the families whose completion carries no value: on a
// co-located target under the eager version they must not allocate.
var valueLess = [numFamilies]bool{famRput: true, famRputBulk: true, famRgetBulk: true, famAdd: true}

type opRec struct {
	fam  family
	slot uint16
}

const schedPerFamily = 256

// famTimes are the per-op timings of one family in a traced run.
type famTimes struct {
	initiate, wait hist
}

// opTimes collects the traced run's per-op clock readings.
type opTimes struct {
	fam                  [numFamilies]famTimes
	blockInit, blockWait int64 // sums over the current block
	t0, t1, t2           int64 // the last op's readings
}

// opMix is rank 0's generator and checker for the op mix: a seeded,
// shuffled schedule of the seven families against rank 1's array, one op
// in flight, with a shadow of everything written so the array can be
// read back and compared when the workload ends.
type opMix struct {
	r     *gupcxx.Rank
	base  gupcxx.GlobalPtr[uint64]
	ad    *gupcxx.AtomicDomain[uint64]
	echo  gupcxx.RPCHandlerID
	clock time.Time

	sched  []opRec // all seven families, shuffled
	active []opRec // the part of sched in use
	pos    int
	seq    uint64

	putShadow  [regionLen]uint64
	bulkShadow [bulkSlots]int // index into bulkSrc, -1 = never written
	ctrShadow  [regionLen]uint64
	bulkSrc    [4][bulkWords]uint64
	getBuf     [bulkWords]uint64
	rpcArg     [16]byte

	attempted, failed, wrong int64
	firstWrong               string
}

// newOpMix builds the mix for seed; clock is the zero of its timestamps.
func newOpMix(s *session, seed int64, clock time.Time) *opMix {
	m := &opMix{
		r:     s.r,
		base:  s.target(),
		ad:    gupcxx.NewAtomicDomain[uint64](s.r),
		echo:  s.echo,
		clock: clock,
	}
	rng := rand.New(rand.NewSource(seed))
	for f := family(0); f < numFamilies; f++ {
		span := regionLen
		if f == famRputBulk || f == famRgetBulk {
			span = bulkSlots
		}
		for i := 0; i < schedPerFamily; i++ {
			m.sched = append(m.sched, opRec{fam: f, slot: uint16(rng.Intn(span))})
		}
	}
	rng.Shuffle(len(m.sched), func(i, j int) { m.sched[i], m.sched[j] = m.sched[j], m.sched[i] })
	m.use(allFamilies)
	for i := range m.bulkShadow {
		m.bulkShadow[i] = -1
	}
	for k := range m.bulkSrc {
		for j := range m.bulkSrc[k] {
			m.bulkSrc[k][j] = uint64(k+1)<<56 | uint64(seed&0xffff)<<32 | uint64(j)
		}
	}
	return m
}

func (m *opMix) now() int64 { return int64(time.Since(m.clock)) }

// use restricts the schedule to the families keep accepts.
func (m *opMix) use(keep func(family) bool) {
	m.active, m.pos = nil, 0
	for _, op := range m.sched {
		if keep(op.fam) {
			m.active = append(m.active, op)
		}
	}
}

// allFamilies is the whole mix.
func allFamilies(family) bool { return true }

// eagerCapable leaves out rpcwire. A wire RPC runs a handler on the
// target rank's goroutine, so even between co-located ranks it is a round
// trip through the target's progress loop — a goroutine hand-off of
// microseconds that would bury six families of tens to hundreds of
// nanoseconds. The timed passes of the eager on-node path leave it out;
// its cost there is reported per family by the traced run.
func eagerCapable(f family) bool { return f != famRPCWire }

// wordSized keeps the four 8-byte RMA and atomic families, where the cost
// of an op is the cost of its notification and not of moving its bytes.
func wordSized(f family) bool {
	return f == famRput || f == famRget || f == famFetchAdd || f == famAdd
}

func (m *opMix) next() opRec {
	op := m.active[m.pos]
	if m.pos++; m.pos == len(m.active) {
		m.pos = 0
	}
	return op
}

// inflight holds whichever future the initiated op produced.
type inflight struct {
	res   gupcxx.Result
	word  gupcxx.FutureV[uint64]
	reply gupcxx.FutureV[[]byte]
}

func (m *opMix) initiate(op opRec) (p inflight) {
	slot := int(op.slot)
	switch op.fam {
	case famRput:
		p.res = gupcxx.Rput(m.r, m.seq, m.base.Element(putBase+slot))
	case famRputBulk:
		p.res = gupcxx.RputBulk(m.r, m.bulkSrc[m.seq&3][:], m.base.Element(bulkBase+slot*bulkWords))
	case famRget:
		p.word = gupcxx.Rget(m.r, m.base.Element(roBase+slot))
	case famRgetBulk:
		p.res = gupcxx.RgetBulk(m.r, m.base.Element(roBase+slot*bulkWords), m.getBuf[:])
	case famFetchAdd:
		p.word = m.ad.FetchAdd(m.base.Element(ctrBase+slot), 1)
	case famAdd:
		p.res = m.ad.Add(m.base.Element(ctrBase+slot), 1)
	case famRPCWire:
		binary.LittleEndian.PutUint64(m.rpcArg[:8], m.seq)
		binary.LittleEndian.PutUint64(m.rpcArg[8:], ^m.seq)
		p.reply = gupcxx.RPCWire(m.r, 1, m.echo, m.rpcArg[:])
	}
	return p
}

// wait completes the op and checks what it returned; it updates the
// shadow only for ops that succeeded.
func (m *opMix) wait(op opRec, p inflight) {
	slot := int(op.slot)
	var err error
	ok := true
	switch op.fam {
	case famRput:
		if err = p.res.Op.WaitErr(); err == nil {
			m.putShadow[slot] = m.seq
		}
	case famRputBulk:
		if err = p.res.Op.WaitErr(); err == nil {
			m.bulkShadow[slot] = int(m.seq & 3)
		}
	case famRget:
		var v uint64
		if v, err = p.word.WaitErr(); err == nil {
			ok = v == roPattern(slot)
		}
	case famRgetBulk:
		if err = p.res.Op.WaitErr(); err == nil {
			first := slot * bulkWords
			ok = m.getBuf[0] == roPattern(first) && m.getBuf[bulkWords-1] == roPattern(first+bulkWords-1)
		}
	case famFetchAdd:
		var old uint64
		if old, err = p.word.WaitErr(); err == nil {
			ok = old == m.ctrShadow[slot]
			m.ctrShadow[slot]++
		}
	case famAdd:
		if err = p.res.Op.WaitErr(); err == nil {
			m.ctrShadow[slot]++
		}
	case famRPCWire:
		var reply []byte
		if reply, err = p.reply.WaitErr(); err == nil {
			ok = bytes.Equal(reply, m.rpcArg[:])
		}
	}
	m.attempted++
	if err != nil {
		m.failed++
	} else if !ok {
		m.noteWrong(fmt.Sprintf("%s op %d returned a wrong value", familyNames[op.fam], m.seq))
	}
}

func (m *opMix) noteWrong(msg string) {
	if m.wrong++; m.firstWrong == "" {
		m.firstWrong = msg
	}
}

// do issues one op and waits for it; with tm set it reads the clock
// around both halves.
func (m *opMix) do(op opRec, tm *opTimes) {
	m.seq++
	if tm == nil {
		m.wait(op, m.initiate(op))
		return
	}
	t0 := m.now()
	p := m.initiate(op)
	t1 := m.now()
	m.wait(op, p)
	t2 := m.now()
	ft := &tm.fam[op.fam]
	ft.initiate.record(t1 - t0)
	ft.wait.record(t2 - t1)
	tm.blockInit += t1 - t0
	tm.blockWait += t2 - t1
	tm.t0, tm.t1, tm.t2 = t0, t1, t2
}

// pass issues n ops (a multiple of block). Each block's wall time goes
// into lat, so a percentile of lat divided by block is a per-op time
// without a per-op clock read. With tm set every op is timed as well and
// each block becomes a span under parent with its initiate and wait
// children; for block > 1 the children's lengths are the exact sums over
// the block but their positions are laid end to end from the block's
// start.
func (m *opMix) pass(n, block int64, lat *hist, tm *opTimes, tr *tracer, parent int32) time.Duration {
	name := "op"
	if block > 1 {
		name = "block"
	}
	start := m.now()
	for done := int64(0); done < n; done += block {
		if tm != nil {
			tm.blockInit, tm.blockWait = 0, 0
		}
		tb := m.now()
		for j := int64(0); j < block; j++ {
			m.do(m.next(), tm)
		}
		te := m.now()
		lat.record(te - tb)
		if tr == nil || tm == nil {
			continue
		}
		id := int64(m.seq)
		if sp := tr.add(name, parent, id, tb, te); sp >= 0 {
			i0, i1, w1 := tb, tb+tm.blockInit, tb+tm.blockInit+tm.blockWait
			if block == 1 {
				i0, i1, w1 = tm.t0, tm.t1, tm.t2
			}
			tr.add("initiate", sp, id, i0, i1)
			tr.add("wait", sp, id, i1, w1)
		}
	}
	return time.Duration(m.now() - start)
}

// allocsPerOp issues n ops of one family back to back and returns the
// initiating process's heap allocations per op.
func (m *opMix) allocsPerOp(f family, n int) float64 {
	var ops []opRec
	for _, op := range m.sched {
		if op.fam == f {
			ops = append(ops, op)
		}
	}
	for i := 0; i < 64; i++ { // fill freelists and pools first
		m.do(ops[i%len(ops)], nil)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		m.do(ops[i%len(ops)], nil)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// verify reads rank 1's array back and compares it with the shadow: the
// last value put to every word, the last pattern put to every bulk slot,
// and counters equal to the adds and fetch-adds issued.
func (m *opMix) verify() {
	var got [arrayWords]uint64
	for off := 0; off < roBase; off += bulkWords {
		if err := gupcxx.RgetBulk(m.r, m.base.Element(off), got[off:off+bulkWords]).Op.WaitErr(); err != nil {
			m.noteWrong(fmt.Sprintf("read-back of words %d..%d failed: %v", off, off+bulkWords, err))
			return
		}
	}
	for i := 0; i < regionLen; i++ {
		if got[putBase+i] != m.putShadow[i] {
			m.noteWrong(fmt.Sprintf("put word %d holds %d, last put was %d", i, got[putBase+i], m.putShadow[i]))
		}
		if got[ctrBase+i] != m.ctrShadow[i] {
			m.noteWrong(fmt.Sprintf("counter %d holds %d, %d adds were issued", i, got[ctrBase+i], m.ctrShadow[i]))
		}
	}
	for s, k := range m.bulkShadow {
		if k < 0 {
			continue
		}
		for j := 0; j < bulkWords; j++ {
			if got[bulkBase+s*bulkWords+j] != m.bulkSrc[k][j] {
				m.noteWrong(fmt.Sprintf("bulk slot %d word %d does not hold the last pattern put", s, j))
				break
			}
		}
	}
}
