package gasnet

import (
	"fmt"
	"math/rand/v2"
	"net/netip"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Deterministic fault injection for the UDP conduit. The reliability layer
// (reliable.go) only earns its keep if it can be exercised without real
// packet loss, so every socket's send path goes through a packetConn that
// is ALWAYS a faultConn on UDP worlds: idle (no faults armed) it forwards
// writes behind a single atomic load, so the interposition costs nothing
// measurable; armed, it drops, duplicates, reorders, delays, and blocks
// outgoing datagrams from a seeded PRNG. Faults are injected on the send
// side only — the receive path sees exactly the loss pattern a real
// network would present — and everything a faultConn does is driven by the
// wrapped socket's own writes plus the domain ticker (delay-queue drains),
// so runs are reproducible up to goroutine interleaving.
//
// Beyond the uniform per-socket distribution (Config.Fault /
// GUPCXX_UDP_FAULT), the shim is a scriptable network model: per-
// directional-pair fault overrides (SetPairFault — asymmetric one-way
// loss), partition and heal of arbitrary rank groups (SetPartition /
// HealPartition), deterministic latency/jitter, and a phased scenario DSL
// (scenario.go, GUPCXX_UDP_SCENARIO) that drives all of the above on a
// schedule.

// packetConn is the send-path surface of a socket; faultConn implements
// it by interposing on the real (batch-capable) adapter.
type packetConn interface {
	WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error)
	// WriteBatch transmits a set of staged frames — in one vectorized
	// write (sendmmsg) where the platform allows, one frame at a time
	// otherwise. Implementations must not retain any frame's bytes past
	// the call.
	WriteBatch(frames []batchFrame) error
}

// faultEnvVar names the environment variable consulted by UDP-conduit
// domains whose Config.Fault is nil, so an entire test suite can run under
// injected loss (make test-loss) without per-callsite plumbing. The value
// is a fault spec, e.g. "drop=0.25,dup=0.05,reorder=0.10,seed=7".
const faultEnvVar = "GUPCXX_UDP_FAULT"

// FaultConfig enables deterministic fault injection on the UDP conduit's
// send path. Probabilities are evaluated independently per datagram in the
// order drop, duplicate, reorder; their sum must not exceed 1.
type FaultConfig struct {
	// Seed seeds the per-socket PRNGs (each socket derives its stream from
	// Seed and its rank), making injected fault patterns reproducible.
	Seed int64

	// Drop is the probability that a datagram is silently discarded.
	Drop float64

	// Dup is the probability that a datagram is transmitted twice.
	Dup float64

	// Reorder is the probability that a datagram is held back and released
	// only after a later write on the same socket, delaying and reordering
	// it past its successors.
	Reorder float64
}

// validate reports whether the probabilities form a sensible distribution.
func (f *FaultConfig) validate() error {
	for _, p := range [...]struct {
		name string
		v    float64
	}{{"Drop", f.Drop}, {"Dup", f.Dup}, {"Reorder", f.Reorder}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("gasnet: fault %s probability %g outside [0,1]", p.name, p.v)
		}
	}
	if sum := f.Drop + f.Dup + f.Reorder; sum > 1 {
		return fmt.Errorf("gasnet: fault probabilities sum to %g > 1", sum)
	}
	return nil
}

// active reports whether the distribution injects anything at all.
func (f *FaultConfig) active() bool {
	return f.Drop > 0 || f.Dup > 0 || f.Reorder > 0
}

// parseFaultSpec parses a "drop=0.25,dup=0.05,reorder=0.10,seed=7" spec.
func parseFaultSpec(spec string) (*FaultConfig, error) {
	f := &FaultConfig{}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("gasnet: fault spec field %q is not key=value", field)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("gasnet: fault spec seed %q: %w", val, err)
			}
			f.Seed = n
		case "drop", "dup", "reorder":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("gasnet: fault spec %s %q: %w", key, val, err)
			}
			switch key {
			case "drop":
				f.Drop = p
			case "dup":
				f.Dup = p
			case "reorder":
				f.Reorder = p
			}
		default:
			return nil, fmt.Errorf("gasnet: fault spec has unknown key %q", key)
		}
	}
	if err := f.validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// faultFromEnv returns the FaultConfig described by GUPCXX_UDP_FAULT, or
// nil when the variable is unset or empty.
func faultFromEnv() (*FaultConfig, error) {
	spec := os.Getenv(faultEnvVar)
	if spec == "" {
		return nil, nil
	}
	f, err := parseFaultSpec(spec)
	if err != nil {
		return nil, fmt.Errorf("%w (from %s)", err, faultEnvVar)
	}
	return f, nil
}

// faultMaxHeld bounds the reorder holdback queue so a run of reorder
// verdicts cannot strand unbounded copies; beyond it, datagrams pass
// through untouched.
const faultMaxHeld = 8

// faultMaxDelayed bounds the latency queue; past it, datagrams write
// through immediately rather than pile up copies (a saturated sender
// observes its own injected latency collapsing, which is the honest
// failure mode of a bounded delay line).
const faultMaxDelayed = 1024

// heldPkt is one datagram awaiting delayed release. The bytes are copied:
// the caller's buffer is pooled and reused immediately after the write.
type heldPkt struct {
	b    []byte
	addr netip.AddrPort
}

// delayedPkt is one latency-queue entry: a copied datagram due for
// transmission at a cached-clock instant, drained by the domain ticker.
type delayedPkt struct {
	b    []byte
	addr netip.AddrPort
	due  int64
}

// faultConn interposes the deterministic network model on one socket's
// send path. It is installed unconditionally on every UDP socket; the
// armed flag keeps the idle case — no faults, no partition, no latency —
// down to one atomic load and a direct forward, alloc-free. Held
// (reordered) datagrams are flushed after the next non-held write, so they
// arrive behind datagrams sent after them; delayed datagrams are released
// by the domain ticker once their due time passes. Both release paths
// re-check the partition under the lock, so packets captured before a cut
// cannot leak across it.
type faultConn struct {
	inner packetConn
	d     *Domain
	rank  int

	// armed is the fast-path gate: false means the shim is configured to
	// do nothing and writes forward directly. Updated (updateArmed) under
	// mu on every configuration change and queue transition.
	armed atomic.Bool

	mu      sync.Mutex
	cfg     FaultConfig         // base distribution (all destinations)
	pairs   map[int]FaultConfig // per-destination overrides (asymmetric loss)
	blocked map[int]bool        // partitioned destinations: every datagram dropped
	delay   int64               // injected one-way latency, ns
	jitter  int64               // uniform jitter bound on top of delay, ns
	rng     *rand.Rand
	held    []heldPkt
	delayed []delayedPkt
	// scratch is WriteBatch's reused survivor list, taken out under mu for
	// the duration of a write that could not forward its frames as is.
	scratch []batchFrame
}

func newFaultConn(inner packetConn, cfg FaultConfig, rank int, d *Domain) *faultConn {
	f := &faultConn{
		inner: inner,
		cfg:   cfg,
		d:     d,
		rank:  rank,
		// Derive a distinct, reproducible stream per socket.
		rng: rand.New(rand.NewPCG(uint64(cfg.Seed), uint64(rank)+0x9e3779b97f4a7c15)),
	}
	f.armed.Store(cfg.active())
	return f
}

// updateArmed recomputes the fast-path gate. Caller holds f.mu.
func (f *faultConn) updateArmed() {
	f.armed.Store(f.cfg.active() ||
		len(f.pairs) > 0 || len(f.blocked) > 0 ||
		f.delay > 0 || f.jitter > 0 ||
		len(f.held) > 0 || len(f.delayed) > 0)
}

// setConfig swaps the base fault distribution mid-run; the write path
// reads the config under f.mu, so in-flight sends see either the old or
// the new one.
func (f *faultConn) setConfig(cfg FaultConfig) {
	f.mu.Lock()
	f.cfg = cfg
	f.updateArmed()
	f.mu.Unlock()
}

// setPairConfig installs (or, with changes, replaces) the per-destination
// override for datagrams toward rank to. A zero config is a valid
// override: it shields the pair from the base distribution.
func (f *faultConn) setPairConfig(to int, cfg FaultConfig) {
	f.mu.Lock()
	if f.pairs == nil {
		f.pairs = make(map[int]FaultConfig)
	}
	f.pairs[to] = cfg
	f.updateArmed()
	f.mu.Unlock()
}

// clearPairConfigs removes every per-destination override.
func (f *faultConn) clearPairConfigs() {
	f.mu.Lock()
	f.pairs = nil
	f.updateArmed()
	f.mu.Unlock()
}

// setBlocked replaces the partitioned-destination set (nil heals).
func (f *faultConn) setBlocked(blocked map[int]bool) {
	f.mu.Lock()
	f.blocked = blocked
	f.updateArmed()
	f.mu.Unlock()
}

// setLatency replaces the injected one-way latency and jitter.
func (f *faultConn) setLatency(delay, jitter time.Duration) {
	f.mu.Lock()
	f.delay = int64(delay)
	f.jitter = int64(jitter)
	f.updateArmed()
	f.mu.Unlock()
}

// destOf resolves addr to a destination rank, or -1. Only consulted when
// a pair override or partition is armed — the resolution is a linear scan
// of the (small) address table.
func (f *faultConn) destOf(addr netip.AddrPort) int {
	if len(f.pairs) == 0 && len(f.blocked) == 0 {
		return -1
	}
	return f.d.rankOfAddr(addr)
}

// cfgFor returns the distribution governing datagrams toward dst. Caller
// holds f.mu.
func (f *faultConn) cfgFor(dst int) FaultConfig {
	if dst >= 0 && len(f.pairs) > 0 {
		if pc, ok := f.pairs[dst]; ok {
			return pc
		}
	}
	return f.cfg
}

// verdict draws one datagram's fate under f.mu — exactly one PRNG draw
// (plus one per delayed copy under jitter), none for a partitioned
// destination — and reports how many copies of it the caller writes now:
// 0 (partitioned, dropped, held for reordering, or on the latency queue),
// 1, or 2 (duplicated); and whether it survived the draw, which a delayed
// datagram has. Held and delayed datagrams are copied: the caller's
// buffer is pooled and reused after the write.
func (f *faultConn) verdict(b []byte, addr netip.AddrPort) (n int, survived bool) {
	dst := f.destOf(addr)
	if len(f.blocked) > 0 && f.blocked[dst] {
		f.d.partitionDrops.Add(1)
		return 0, false
	}
	cfg := f.cfgFor(dst)
	r := f.rng.Float64()
	n = 1
	switch {
	case r < cfg.Drop:
		f.d.faultsInjected.Add(1)
		return 0, false
	case r < cfg.Drop+cfg.Dup:
		f.d.faultsInjected.Add(1)
		n = 2
	case r < cfg.Drop+cfg.Dup+cfg.Reorder && len(f.held) < faultMaxHeld:
		f.d.faultsInjected.Add(1)
		f.held = append(f.held, heldPkt{b: append([]byte(nil), b...), addr: addr})
		return 0, false
	}
	if f.delay > 0 || f.jitter > 0 {
		// Latency armed: the copies wait on the delay queue while it has room.
		for ; n > 0 && len(f.delayed) < faultMaxDelayed; n-- {
			due := clockNow() + f.delay
			if f.jitter > 0 {
				due += f.rng.Int64N(f.jitter)
			}
			f.delayed = append(f.delayed, delayedPkt{b: append([]byte(nil), b...), addr: addr, due: due})
		}
	}
	return n, true
}

// takeHeld removes and returns the holdback queue. Caller holds f.mu.
func (f *faultConn) takeHeld() []heldPkt {
	held := f.held
	f.held = nil
	return held
}

// flush transmits previously held datagrams. Write errors are ignored:
// a held packet racing socket close is exactly a lost datagram, which is
// the contract of this type.
func (f *faultConn) flush(held []heldPkt) {
	for _, p := range held {
		f.inner.WriteToUDPAddrPort(p.b, p.addr)
	}
}

// drain releases every delay-queue entry whose due time has passed,
// re-checking the partition per destination — a partition armed after
// capture still cuts the packet. Called from the domain ticker
// (Domain.faultTick); the idle case is one atomic load.
func (f *faultConn) drain(now int64) {
	if !f.armed.Load() {
		return
	}
	f.mu.Lock()
	if len(f.delayed) == 0 {
		f.mu.Unlock()
		return
	}
	var due []heldPkt
	rem := f.delayed[:0]
	for _, p := range f.delayed {
		if p.due > now {
			rem = append(rem, p)
			continue
		}
		if len(f.blocked) > 0 && f.blocked[f.d.rankOfAddr(p.addr)] {
			f.d.partitionDrops.Add(1)
			continue
		}
		due = append(due, heldPkt{b: p.b, addr: p.addr})
	}
	for i := len(rem); i < len(f.delayed); i++ {
		f.delayed[i] = delayedPkt{}
	}
	f.delayed = rem
	f.updateArmed()
	f.mu.Unlock()
	f.flush(due)
}

// WriteToUDPAddrPort applies the network model to one datagram. A
// datagram that survives its draw releases the held ones behind it:
// reordered. Delivered once with nothing held, it is forwarded as is, so
// an armed shim allocates only for the datagrams it holds or delays.
func (f *faultConn) WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error) {
	if !f.armed.Load() {
		return f.inner.WriteToUDPAddrPort(b, addr)
	}
	f.mu.Lock()
	n, survived := f.verdict(b, addr)
	var held []heldPkt
	if survived {
		held = f.takeHeld()
	}
	f.updateArmed()
	f.mu.Unlock()
	for ; n > 0; n-- {
		f.inner.WriteToUDPAddrPort(b, addr)
	}
	f.flush(held)
	return len(b), nil // the wire reports success, whatever the model did
}

// WriteBatch applies the network model frame-by-frame — each staged frame
// draws its own verdict, exactly as if it had been written alone — and
// forwards the survivors in one batch, preserving the vectorized write
// underneath. Partitioned frames and dropped frames vanish from the
// batch; duplicated frames appear twice; reorder-held frames are copied
// aside and released behind a later batch's survivors; delayed frames are
// copied onto the latency queue for the domain ticker. A batch whose
// frames all drew "deliver once", with nothing held to release, is
// forwarded as is; otherwise the survivors are gathered, from the first
// frame that is not delivered once, into a scratch list the shim reuses,
// so the write path allocates only for the frames it holds or delays. The
// receive path needs no counterpart: faults are send-side injection, the
// wire delivers what survives.
func (f *faultConn) WriteBatch(frames []batchFrame) error {
	if !f.armed.Load() {
		return f.inner.WriteBatch(frames)
	}
	f.mu.Lock()
	out, diverged, direct := f.scratch[:0], false, false
	for i, fr := range frames {
		n, _ := f.verdict(fr.b, fr.addr)
		direct = direct || n > 0
		if n != 1 && !diverged {
			diverged = true
			out = append(slices.Grow(out, len(frames)), frames[:i]...)
		}
		for ; diverged && n > 0; n-- {
			out = append(out, fr)
		}
	}
	var released []heldPkt
	if direct {
		released = f.takeHeld()
	}
	f.updateArmed()
	if !diverged && released == nil {
		f.mu.Unlock()
		return f.inner.WriteBatch(frames)
	}
	if !diverged {
		out = append(out, frames...)
	}
	f.scratch = nil // out is this call's until the write returns
	f.mu.Unlock()
	for _, p := range released {
		// Held datagrams ride behind this batch's survivors: reordered.
		out = append(out, batchFrame{b: p.b, addr: p.addr})
	}
	var err error
	if len(out) > 0 {
		err = f.inner.WriteBatch(out)
	}
	clear(out)
	f.mu.Lock()
	f.scratch = out[:0]
	f.mu.Unlock()
	return err
}

// rankOfAddr resolves a socket address to its rank, or -1. Linear scan of
// the (rank-count-sized) address table; only the armed fault paths call
// it, and only when a pair override or partition needs the destination.
func (d *Domain) rankOfAddr(addr netip.AddrPort) int {
	tr := d.udp
	for r := range tr.addrs {
		if p := tr.addrs[r].Load(); p != nil && *p == addr {
			return r
		}
	}
	return -1
}

// faultShim returns rank's fault layer. Every hosted rank has one; in a
// multiproc world only Self is hosted by this process, so every other
// rank errors.
func (d *Domain) faultShim(rank int) (*faultConn, error) {
	if d.udp == nil {
		return nil, fmt.Errorf("gasnet: fault injection: not a UDP-conduit domain")
	}
	if rank < 0 || rank >= d.cfg.Ranks {
		return nil, fmt.Errorf("gasnet: fault injection: rank %d out of range", rank)
	}
	h := d.eps[rank].host
	if h == nil {
		return nil, fmt.Errorf("gasnet: fault injection: rank %d is not hosted by this process", rank)
	}
	return h.send, nil
}

// SetFault replaces rank's base send-path fault distribution mid-run
// (e.g. Drop:1 to simulate killing the rank after a healthy start). The
// fault layer is always interposed on UDP worlds — idle it costs one
// atomic load per write — so faults can be armed on any domain without
// pre-arranging Config.Fault.
func (d *Domain) SetFault(rank int, cfg FaultConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	fc, err := d.faultShim(rank)
	if err != nil {
		return err
	}
	fc.setConfig(cfg)
	return nil
}

// SetPairFault installs a directional fault distribution on datagrams
// from→to, overriding the base distribution for that destination only —
// the asymmetric-loss primitive (A's frames toward B all dropped while
// B→A stays clean). A zero config is a valid override: it shields the
// pair from the base distribution. Scenario heal clears all overrides.
func (d *Domain) SetPairFault(from, to int, cfg FaultConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	fc, err := d.faultShim(from)
	if err != nil {
		return err
	}
	if to < 0 || to >= d.cfg.Ranks {
		return fmt.Errorf("gasnet: SetPairFault: destination rank %d out of range", to)
	}
	fc.setPairConfig(to, cfg)
	return nil
}

// SetLatency arms deterministic one-way latency (plus uniform jitter from
// the seeded PRNG) on rank's send path: surviving datagrams are copied
// onto a delay queue and released by the domain ticker once due. Zero
// both to disarm.
func (d *Domain) SetLatency(rank int, delay, jitter time.Duration) error {
	if delay < 0 || jitter < 0 {
		return fmt.Errorf("gasnet: SetLatency: negative duration")
	}
	fc, err := d.faultShim(rank)
	if err != nil {
		return err
	}
	fc.setLatency(delay, jitter)
	return nil
}

// SetPartition severs the network between the given rank groups: every
// datagram (heartbeats and probes included) between ranks in different
// groups is dropped at the sender. Ranks not listed in any group form one
// implicit group of their own. The cut applies to every rank hosted by
// this process — in a multiproc world each process applies its own
// senders' half of the same partition, which is why the scenario DSL
// (scenario.go) is the natural way to coordinate one. HealPartition (or
// SetPartition(nil)) restores the network; the liveness layer then heals
// the pairs the cut drove Down (liveness.go).
func (d *Domain) SetPartition(groups [][]int) error {
	if d.udp == nil {
		return fmt.Errorf("gasnet: SetPartition: not a UDP-conduit domain")
	}
	group := make([]int, d.cfg.Ranks)
	for i := range group {
		group[i] = -1
	}
	for gi, g := range groups {
		for _, r := range g {
			if r < 0 || r >= d.cfg.Ranks {
				return fmt.Errorf("gasnet: SetPartition: rank %d out of range", r)
			}
			if group[r] != -1 {
				return fmt.Errorf("gasnet: SetPartition: rank %d listed twice", r)
			}
			group[r] = gi
		}
	}
	for i := range group {
		if group[i] == -1 {
			group[i] = len(groups) // the implicit group of unlisted ranks
		}
	}
	for _, h := range d.udp.hosts {
		var blocked map[int]bool
		for to := 0; to < d.cfg.Ranks; to++ {
			if to != h.rank && group[to] != group[h.rank] {
				if blocked == nil {
					blocked = make(map[int]bool)
				}
				blocked[to] = true
			}
		}
		h.send.setBlocked(blocked)
	}
	return nil
}

// HealPartition removes the partition installed by SetPartition from
// every rank hosted by this process. Pair-fault overrides (SetPairFault)
// are left in place; the scenario DSL's heal directive clears both.
func (d *Domain) HealPartition() error {
	if d.udp == nil {
		return fmt.Errorf("gasnet: HealPartition: not a UDP-conduit domain")
	}
	for _, h := range d.udp.hosts {
		h.send.setBlocked(nil)
	}
	return nil
}

// healNetwork is the scenario engine's heal directive: partition lifted
// AND pair overrides cleared on every locally-hosted sender.
func (d *Domain) healNetwork() {
	for _, h := range d.udp.hosts {
		h.send.setBlocked(nil)
		h.send.clearPairConfigs()
	}
}

// faultTick is the domain ticker's hook into the network model: it steps
// the armed scenario (if any) and drains due latency-queue entries on
// every locally-hosted sender. Idle cost: one pointer load plus one
// atomic load per socket.
func (d *Domain) faultTick(now int64) {
	if s := d.scen.Load(); s != nil {
		s.step(now)
	}
	for _, h := range d.udp.hosts {
		h.send.drain(now)
	}
}
