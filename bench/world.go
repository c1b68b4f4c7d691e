package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gupcxx"
	"gupcxx/internal/boot"
	"gupcxx/internal/core"
	"gupcxx/internal/gasnet"
	"gupcxx/internal/gups"
)

// Layout of the op-mix target array in rank 1's segment. Each family
// owns a region, so the final contents are predictable from what rank 0
// issued: single-word puts, 1 KiB bulk puts, atomic counters, and a
// read-only patterned region that the gets read.
const (
	arrayWords = 4096
	regionLen  = 1024
	putBase    = 0
	bulkBase   = 1024
	ctrBase    = 2048
	roBase     = 3072
	bulkWords  = 128 // 1 KiB
	bulkSlots  = regionLen / bulkWords
)

// roPattern is the value of word i of the read-only region.
func roPattern(i int) uint64 { return 0x9E3779B97F4A7C15 * uint64(i+1) }

const (
	kindPSHM  = "pshm"
	kindSIM   = "sim"
	kindXproc = "xproc"
)

// worldSpec describes the world a workload runs on. It is also the whole
// of what the rank-1 child process is told (as JSON in childEnv): the
// runtime receives only generated inputs, never the workload's name.
type worldSpec struct {
	Kind     string  `json:"kind"`
	Defer    bool    `json:"defer"`     // Defer2021_3_6 instead of the eager default
	LogTable int     `json:"log_table"` // GUPS table of 2^LogTable words; 0 = none
	Seed     int64   `json:"seed"`
	Drop     float64 `json:"drop"`  // datagram drop probability (xproc)
	Epoch    uint32  `json:"epoch"` // launch epoch (xproc)
}

const childEnv = "GUPCXX_BENCH_CHILD"

func (s worldSpec) config() gupcxx.Config {
	seg := arrayWords*8 + 1<<20
	if s.LogTable > 0 {
		seg += (8 << s.LogTable) / 2
	}
	cfg := gupcxx.Config{Ranks: 2, SegmentBytes: seg}
	if s.Defer {
		cfg.Version = gupcxx.Defer2021_3_6
	}
	switch s.Kind {
	case kindPSHM:
		cfg.Conduit = gupcxx.PSHM
	case kindSIM:
		cfg.Conduit = gupcxx.SIM
		cfg.RanksPerNode = 1
		cfg.SimLatency = time.Nanosecond
	case kindXproc:
		// Liveness stays on at its default heartbeat; only the verdict is
		// slower than the default 200 ms, so a scheduling hiccup on a
		// shared two-core host cannot fail a run's operations.
		cfg.SuspectAfter = 250 * time.Millisecond
		cfg.DownAfter = 2 * time.Second
		if s.Drop > 0 {
			cfg.Fault = &gupcxx.FaultConfig{Seed: s.Seed, Drop: s.Drop}
		}
	}
	return cfg
}

func (s worldSpec) gupsConfig() gups.Config {
	// HPCC's one update stream, whatever the seed: see workloadDef.passUpdates.
	return gups.Config{LogTableSize: s.LogTable, Batch: gups.DefaultBatch}
}

// Commands rank 0 broadcasts to rank 1 between measurements. While it
// waits for the next one, rank 1 sits in the collective's progress loop —
// the same Progress/Idle loop as Rank.Serve — and so serves whatever
// rank 0 issues.
const (
	cmdQuit     = iota + 1
	cmdGups     // every rank updates
	cmdGupsSolo // rank 0 updates, the others wait in the closing barrier
	cmdVerify
	cmdReset
	cmdSnap
	cmdBarriers
)

func encodeCmd(op, arg int, n int64) uint64 {
	return uint64(op)<<56 | uint64(arg)<<48 | uint64(n)&(1<<48-1)
}

func decodeCmd(c uint64) (op, arg int, n int64) {
	return int(c >> 56), int(c >> 48 & 0xff), int64(c & (1<<48 - 1))
}

// member is one rank's handle on the joined world: what the leader
// (rank 0) and the follower (rank 1) both set up.
type member struct {
	r    *gupcxx.Rank
	arrs []gupcxx.GlobalPtr[uint64] // op-mix array of every rank
	gb   *gups.Bench
}

// join is the collective part of set-up: allocate the op-mix array (and
// the GUPS table), exchange pointers, and pass the first barrier.
func join(r *gupcxx.Rank, spec worldSpec) *member {
	arr := gupcxx.NewArray[uint64](r, arrayWords)
	local := arr.LocalSlice(r, arrayWords)
	for i := 0; i < regionLen; i++ {
		local[roBase+i] = roPattern(i)
	}
	m := &member{r: r, arrs: gupcxx.ExchangePtr(r, arr)}
	if spec.LogTable > 0 {
		gb, err := gups.New(r, spec.gupsConfig())
		if err != nil {
			panic(err)
		}
		m.gb = gb
	}
	r.Barrier()
	return m
}

// gupsStep runs one variant for n updates between two barriers and returns
// the time between them. Collective; a rank with update false only takes
// part in the barriers.
func (m *member) gupsStep(v gups.Variant, n int64, update bool) (barrierIn, run, barrierOut time.Duration) {
	m.gb.SetUpdatesPerRank(n)
	t0 := time.Now()
	m.r.Barrier()
	t1 := time.Now()
	if update {
		if err := m.gb.Run(v); err != nil {
			panic(err)
		}
	}
	t2 := time.Now()
	m.r.Barrier()
	t3 := time.Now()
	return t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
}

// follow is rank 1: obey rank 0's commands until told to quit.
func follow(r *gupcxx.Rank, spec worldSpec, snaps *[]snapshot) {
	m := join(r, spec)
	for {
		op, arg, n := decodeCmd(r.BroadcastU64(0, 0))
		switch op {
		case cmdQuit:
			return
		case cmdGups:
			m.gupsStep(gups.Variant(arg), n, true)
		case cmdGupsSolo:
			m.gupsStep(gups.Variant(arg), n, false)
		case cmdVerify:
			r.SumU64(uint64(m.gb.Verify()))
		case cmdReset:
			m.gb.Reset()
			r.Barrier()
		case cmdSnap:
			*snaps = append(*snaps, takeSnapshot(r))
		case cmdBarriers:
			for i := int64(0); i < n; i++ {
				r.Barrier()
			}
		default:
			panic(fmt.Sprintf("bench: unknown command %d", op))
		}
	}
}

// snapshot is every exported counter the benchmark differences, read at a
// pass boundary on one rank's process.
type snapshot struct {
	Sub      gasnet.Stats     `json:"sub"`
	Flow     gasnet.FlowState `json:"flow"` // toward the other rank
	Eng      core.Stats       `json:"eng"`
	Ops      core.OpStats     `json:"ops"`
	UserUs   int64            `json:"user_us"`
	SysUs    int64            `json:"sys_us"`
	VolCtx   int64            `json:"vol_ctx"`
	InvolCtx int64            `json:"invol_ctx"`
	Mallocs  uint64           `json:"mallocs"`
}

func takeSnapshot(r *gupcxx.Rank) snapshot {
	st := r.OpStats()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snapshot{
		Sub:      st.Substrate,
		Flow:     r.Flow(1 - r.Me()),
		Eng:      st.Engine,
		Ops:      st.Ops,
		UserUs:   tvUs(ru.Utime),
		SysUs:    tvUs(ru.Stime),
		VolCtx:   ru.Nvcsw,
		InvolCtx: ru.Nivcsw,
		Mallocs:  ms.Mallocs,
	}
}

func tvUs(tv syscall.Timeval) int64 { return int64(tv.Sec)*1e6 + int64(tv.Usec) }

func echoHandler(_ *gupcxx.Rank, args []byte) []byte { return args }

// session is what a workload's leader code runs against.
type session struct {
	*member
	w     *gupcxx.World
	spec  worldSpec
	echo  gupcxx.RPCHandlerID
	child *child // nil for in-process worlds

	sentinelRPC gupcxx.RPCHandlerID
}

func (s *session) command(op, arg int, n int64) {
	s.r.BroadcastU64(0, encodeCmd(op, arg, n))
}

// target is rank 1's op-mix array.
func (s *session) target() gupcxx.GlobalPtr[uint64] { return s.arrs[1] }

// worldReport is what is known about a world once it is closed.
type worldReport struct {
	setup       time.Duration // start until the leader passed the first barrier
	childReady  time.Duration // spawn until the child's first line (xproc)
	rendezvous  time.Duration // rank 0's bootstrap exchange (xproc)
	childSnaps  []snapshot    // rank 1's snapshots (xproc)
	childRSSKiB int64
}

// runWorld builds the world, runs lead as rank 0 once set-up is complete,
// and tears everything down. lead may be nil (a set-up-only repetition).
func runWorld(spec worldSpec, lead func(*session) error) (worldReport, error) {
	if spec.Kind == kindXproc {
		return runXprocWorld(spec, lead)
	}
	var rep worldReport
	start := time.Now()
	w, err := gupcxx.NewWorld(spec.config())
	if err != nil {
		return rep, err
	}
	defer w.Close()
	s := &session{w: w, spec: spec, echo: w.RegisterRPC(echoHandler), sentinelRPC: w.RegisterRPC(sentinelHandler)}
	var leadErr error
	err = w.Run(func(r *gupcxx.Rank) {
		if r.Me() != 0 {
			var discard []snapshot // the domain is shared: rank 0's snapshots cover both ranks
			follow(r, spec, &discard)
			return
		}
		leadErr = s.lead(r, start, &rep, lead)
	})
	return rep, errors.Join(err, leadErr)
}

// lead is rank 0's body in every world.
func (s *session) lead(r *gupcxx.Rank, start time.Time, rep *worldReport, lead func(*session) error) error {
	s.member = join(r, s.spec)
	rep.setup = time.Since(start)
	var err error
	if lead != nil {
		err = lead(s)
	}
	s.command(cmdQuit, 0, 0)
	return err
}

// child is the rank-1 process of a process world: this same binary,
// re-executed with childEnv set.
type child struct {
	cmd     *exec.Cmd
	started time.Time
	hello   chan childHello // the child's first line; closed at EOF
	final   chan childFinal // its last line; closed at EOF

	helloOnce sync.Once
	helloMsg  childHello

	waitOnce sync.Once
	waitErr  error
	exited   atomic.Bool
}

// wait reaps the child (once; later and concurrent callers get the same
// answer when it has ended).
func (c *child) wait() error {
	c.waitOnce.Do(func() {
		c.waitErr = c.cmd.Wait()
		c.exited.Store(true)
	})
	return c.waitErr
}

// waitHello returns the child's first line, waiting for it if need be
// (the zero value if the child died before printing it).
func (c *child) waitHello() childHello {
	c.helloOnce.Do(func() { c.helloMsg = <-c.hello })
	return c.helloMsg
}

type childHello struct {
	Echo string `json:"echo"` // address of the child's plain UDP echo socket
	at   time.Time
}

type childFinal struct {
	Snaps []snapshot `json:"snaps"`
}

// children is every process this run started, so that teardown can prove
// none outlives it.
var children struct {
	sync.Mutex
	list []*child
}

func spawnChild(spec worldSpec, contract boot.Spec) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, boot.EnvVar+"=") || strings.HasPrefix(kv, childEnv+"=") {
			continue
		}
		cmd.Env = append(cmd.Env, kv)
	}
	cmd.Env = append(cmd.Env, boot.EnvVar+"="+contract.Env(), childEnv+"="+string(specJSON))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, started: time.Now(), hello: make(chan childHello, 1), final: make(chan childFinal, 1)}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	children.Lock()
	children.list = append(children.list, c)
	children.Unlock()
	go func() {
		// Ends at EOF, which the child's exit (or kill) guarantees.
		defer close(c.final)
		defer close(c.hello)
		sc := bufio.NewScanner(out)
		sc.Buffer(nil, 1<<22)
		first := true
		for sc.Scan() {
			if first {
				first = false
				h := childHello{at: time.Now()}
				if json.Unmarshal(sc.Bytes(), &h) == nil {
					c.hello <- h
				}
				continue
			}
			var f childFinal
			if json.Unmarshal(sc.Bytes(), &f) == nil && f.Snaps != nil {
				c.final <- f
			}
		}
	}()
	return c, nil
}

// reap waits for the child to exit, killing it first unless it is
// expected to leave on its own, and returns its peak RSS.
func (c *child) reap(kill bool) (rssKiB int64, err error) {
	if kill {
		c.cmd.Process.Kill()
	} else {
		t := time.AfterFunc(10*time.Second, func() { c.cmd.Process.Kill() })
		defer t.Stop()
	}
	err = c.wait()
	if ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssKiB = ru.Maxrss
	}
	return rssKiB, err
}

// killChildren kills and reaps every child still running (error paths,
// signals, the watchdog).
func killChildren() {
	children.Lock()
	defer children.Unlock()
	for _, c := range children.list {
		c.cmd.Process.Kill()
		c.wait()
	}
}

// strayChildren reports how many started children were never reaped.
func strayChildren() int {
	children.Lock()
	defer children.Unlock()
	n := 0
	for _, c := range children.list {
		if !c.exited.Load() {
			n++
		}
	}
	return n
}

// openSockets counts this process's socket descriptors.
func openSockets() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if l, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil && strings.HasPrefix(l, "socket:") {
			n++
		}
	}
	return n
}

// runXprocWorld makes this process rank 0 of a two-process loopback world
// and a re-executed child rank 1, bootstrapped through internal/boot as
// gupcxxrun does it.
func runXprocWorld(spec worldSpec, lead func(*session) error) (rep worldReport, err error) {
	start := time.Now()
	rv, err := boot.NewRendezvous("127.0.0.1:0", 2, spec.Epoch)
	if err != nil {
		return rep, err
	}
	defer rv.Close()
	c, err := spawnChild(spec, boot.Spec{Ranks: 2, Rank: 1, Epoch: spec.Epoch, Rendezvous: rv.Addr()})
	if err != nil {
		return rep, err
	}
	defer func() {
		// On success the child leaves by itself after the quit command; on
		// any error it is killed. Either way it is reaped here.
		rss, werr := c.reap(err != nil)
		rep.childRSSKiB = rss
		if err == nil && werr != nil {
			err = fmt.Errorf("rank 1 process: %w", werr)
		}
		if f, ok := <-c.final; ok {
			rep.childSnaps = f.Snaps
		}
	}()

	// WorldFromEnv reads this process's own contract from the environment.
	os.Setenv(boot.EnvVar, boot.Spec{Ranks: 2, Rank: 0, Epoch: spec.Epoch, Rendezvous: rv.Addr()}.Env())
	t0 := time.Now()
	w, ok, err := gupcxx.WorldFromEnv(spec.config())
	os.Unsetenv(boot.EnvVar)
	if err != nil || !ok {
		return rep, fmt.Errorf("bootstrap rank 0: ok=%v err=%v", ok, err)
	}
	defer w.Close()
	if err := rv.Wait(); err != nil {
		return rep, err
	}
	rep.rendezvous = time.Since(t0)
	s := &session{w: w, spec: spec, echo: w.RegisterRPC(echoHandler), sentinelRPC: w.RegisterRPC(sentinelHandler), child: c}
	var leadErr error
	runErr := w.Run(func(r *gupcxx.Rank) {
		leadErr = s.lead(r, start, &rep, lead)
	})
	if h := c.waitHello(); !h.at.IsZero() {
		rep.childReady = h.at.Sub(c.started)
	}
	return rep, errors.Join(runErr, leadErr)
}

// childMain is the rank-1 process: a plain UDP echo socket for the
// loopback baseline, then the follower loop, then its snapshots as the
// last line of standard output.
func childMain(specJSON string) int {
	// Nothing the parent can do may leave this process behind: the world's
	// liveness detector ends the follower when rank 0 vanishes, and this
	// timer ends it regardless.
	time.AfterFunc(175*time.Second, func() { os.Exit(3) })
	placeRank(1)
	var spec worldSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 2
	}
	echo, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 2
	}
	go func() {
		// Ends with the process; idle it is parked in the netpoller.
		buf := make([]byte, 64)
		for {
			n, from, err := echo.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			echo.WriteToUDPAddrPort(buf[:n], from)
		}
	}()
	hello, _ := json.Marshal(childHello{Echo: echo.LocalAddr().String()})
	fmt.Println(string(hello))

	w, ok, err := gupcxx.WorldFromEnv(spec.config())
	if err != nil || !ok {
		fmt.Fprintf(os.Stderr, "bench child: bootstrap: ok=%v err=%v\n", ok, err)
		return 1
	}
	w.RegisterRPC(echoHandler)
	w.RegisterRPC(sentinelHandler)
	snaps := []snapshot{}
	runErr := w.Run(func(r *gupcxx.Rank) { follow(r, spec, &snaps) })
	w.Close()
	echo.Close()
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "bench child:", runErr)
		return 1
	}
	final, _ := json.Marshal(childFinal{Snaps: snaps})
	fmt.Println(string(final))
	return 0
}
