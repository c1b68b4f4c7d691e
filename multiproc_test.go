package gupcxx_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gupcxx"
	"gupcxx/internal/boot"
)

// The cross-process acceptance suite: real OS processes, real UDP
// sockets, nothing shared. The parent test re-execs this test binary
// through boot.LaunchLocal — the same launcher cmd/gupcxxrun uses — with
// GUPCXX_TEST_WORKER naming a scenario; the children narrow themselves to
// TestMultiprocWorkerProcess via -test.run, join the world through
// WorldFromEnv, and report success as a WORKER_OK marker line the parent
// counts.

const workerEnv = "GUPCXX_TEST_WORKER"

// TestMultiprocWorkerProcess is the rank-process entry point. Under a
// normal `go test` invocation it skips; in a child process it runs one
// scenario and exits non-zero on failure (scenario code panics; Run
// converts panics to errors).
func TestMultiprocWorkerProcess(t *testing.T) {
	scenario := os.Getenv(workerEnv)
	if scenario == "" {
		t.Skip("worker entry: runs only in children spawned by the multiproc suite")
	}
	if err := multiprocWorker(scenario); err != nil {
		fmt.Fprintf(os.Stderr, "worker %s: %v\n", scenario, err)
		os.Exit(1)
	}
	fmt.Printf("WORKER_OK scenario=%s\n", scenario)
}

func multiprocWorker(scenario string) error {
	var notifies atomic.Int64
	cfg := gupcxx.Config{
		SegmentBytes:   1 << 20,
		HeartbeatEvery: 2 * time.Millisecond,
		SuspectAfter:   20 * time.Millisecond,
		DownAfter:      80 * time.Millisecond,
	}
	if strings.HasPrefix(scenario, "partition") {
		// The partition workers assert heal counts and liveness states on
		// HEALTHY links. On an oversubscribed host (CI runners, the race
		// detector, 4 rank processes on few cores) an 80ms heartbeat gap is
		// ordinary scheduling noise, and a spurious down/heal flap of an
		// intra-group pair would poison those assertions. Wider margins keep
		// the detector honest about actual cuts — the scenario holds the
		// partition for many DownAfter periods regardless.
		cfg.HeartbeatEvery = 5 * time.Millisecond
		cfg.SuspectAfter = 100 * time.Millisecond
		cfg.DownAfter = 400 * time.Millisecond
	}
	w, ok, err := gupcxx.WorldFromEnv(cfg)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("worker spawned without a world contract")
	}
	defer w.Close()
	echo := w.RegisterRPC(func(_ *gupcxx.Rank, args []byte) []byte {
		return append([]byte("echo:"), args...)
	})
	bump := w.RegisterRPC(func(_ *gupcxx.Rank, args []byte) []byte {
		notifies.Add(int64(len(args)))
		return nil
	})
	// The churn victim's end mark counts only once every restart cycle
	// has been readmitted here, so a mark from an earlier incarnation
	// (killed after sending it) cannot stand in for the final one's.
	var victimMarks atomic.Int64
	victimMark := w.RegisterRPC(func(_ *gupcxx.Rank, _ []byte) []byte {
		if w.Domain().Stats().PeersReadmitted >= int64(churnCycles()) {
			victimMarks.Add(1)
		}
		return nil
	})
	return w.Run(func(r *gupcxx.Rank) {
		switch scenario {
		case "smoke":
			smokeScenario(r, echo, bump, &notifies)
		case "death":
			deathScenario(r, echo, bump, &notifies)
		case "churn":
			churnScenario(w, r, echo, bump, victimMark, &notifies, &victimMarks)
		case "partition":
			partitionScenario(w, r, echo)
		case "serve":
			serveScenario(r)
		default:
			panic("unknown worker scenario " + scenario)
		}
	})
}

// smokeScenario exercises every wire-encodable op family across process
// boundaries: segment-relative puts/gets through exchanged pointers,
// remote atomics, wire RPC with reply, the ErrNotWireEncodable gate on
// closure RPC, put-with-notify, and the allgather collective.
func smokeScenario(r *gupcxx.Rank, echo, bump gupcxx.RPCHandlerID, notifies *atomic.Int64) {
	me, n := r.Me(), r.N()
	next, prev := (me+1)%n, (me+n-1)%n

	word := gupcxx.New[uint64](r)
	words := gupcxx.ExchangePtr(r, word)
	counter := gupcxx.New[uint64](r)
	counters := gupcxx.ExchangePtr(r, counter)
	r.Barrier()

	// One-sided put into another process's segment, then read it back.
	gupcxx.Rput(r, uint64(1000+me), words[next]).Wait()
	r.Barrier()
	if got := *word.Local(r); got != uint64(1000+prev) {
		panic(fmt.Sprintf("put: rank %d holds %d, want %d", me, got, 1000+prev))
	}
	if got := gupcxx.Rget(r, words[next]).Wait(); got != uint64(1000+me) {
		panic(fmt.Sprintf("get: read %d from rank %d, want %d", got, next, 1000+me))
	}

	// Remote atomics: every rank bumps rank 0's counter once.
	ad := gupcxx.NewAtomicDomain[uint64](r)
	ad.FetchAdd(counters[0], 1).Wait()
	r.Barrier()
	if me == 0 {
		if got := *counter.Local(r); got != uint64(n) {
			panic(fmt.Sprintf("fetch-add: counter %d, want %d", got, n))
		}
	}

	// Wire RPC round trip.
	tag := []byte{byte('a' + me)}
	reply, werr := gupcxx.RPCWire(r, next, echo, tag).WaitErr()
	if werr != nil || string(reply) != "echo:"+string(tag) {
		panic(fmt.Sprintf("wire RPC: %q, %v", reply, werr))
	}

	// Closure RPC cannot cross a process boundary — loudly.
	if werr := gupcxx.RPC(r, next, func(*gupcxx.Rank) {}).WaitErr(); !errors.Is(werr, gupcxx.ErrNotWireEncodable) {
		panic(fmt.Sprintf("closure RPC resolved as %v, want ErrNotWireEncodable", werr))
	}

	// Put-with-notify: each rank receives exactly one 3-byte notify.
	gupcxx.RputNotify(r, uint64(7), words[next], bump, []byte{1, 2, 3}).Wait()
	deadline := time.Now().Add(10 * time.Second)
	for notifies.Load() < 3 {
		if time.Now().After(deadline) {
			panic("notify handler never ran")
		}
		r.Serve()
	}

	// Allgather: the collective every world bootstraps its pointers with.
	vec := r.ExchangeU64(uint64(me * 7))
	for i, v := range vec {
		if v != uint64(i*7) {
			panic(fmt.Sprintf("allgather slot %d = %d, want %d", i, v, i*7))
		}
	}
	r.Barrier()
}

// deathScenario: after a healthy exchange, rank 2 dies abruptly
// (os.Exit — no goodbye frame, the process-kill case). Survivors must
// observe ErrPeerUnreachable within the detection budget while staying
// reachable to each other. No barriers after the death: collectives
// include the corpse.
func deathScenario(r *gupcxx.Rank, echo, done gupcxx.RPCHandlerID, dones *atomic.Int64) {
	const victim = 2
	me := r.Me()
	word := gupcxx.New[uint64](r)
	words := gupcxx.ExchangePtr(r, word)
	r.Barrier()
	gupcxx.Rput(r, uint64(me), words[(me+1)%r.N()]).Wait()
	r.Barrier()
	if me == victim {
		// Drain our in-flight frames first: under injected loss the
		// barrier token we just sent may need a retransmission only this
		// process can provide, and the scenario tests death DETECTION,
		// not lost-data recovery. The exit stays abrupt — no goodbye
		// frame, the liveness detector does the work.
		drain := time.Now().Add(10 * time.Second)
		for time.Now().Before(drain) {
			inflight := 0
			for p := 0; p < r.N(); p++ {
				if p != me {
					inflight += r.Flow(p).InFlight
				}
			}
			if inflight == 0 {
				break
			}
			r.Serve()
		}
		os.Exit(3)
	}
	start := time.Now()
	for {
		_, werr := gupcxx.RPCWire(r, victim, echo, []byte("ping")).WaitErr()
		if werr != nil {
			if !errors.Is(werr, gupcxx.ErrPeerUnreachable) {
				panic(fmt.Sprintf("victim death resolved as %v, want ErrPeerUnreachable", werr))
			}
			break
		}
		if time.Since(start) > 20*time.Second {
			panic("operations to the killed rank never failed")
		}
	}
	if !r.PeerDown(victim) {
		panic("victim not marked down")
	}
	peer := (me + 1) % r.N()
	if peer == victim {
		peer = (peer + 1) % r.N()
	}
	if _, werr := gupcxx.RPCWire(r, peer, echo, []byte("alive")).WaitErr(); werr != nil {
		panic(fmt.Sprintf("surviving pair %d->%d broken: %v", me, peer, werr))
	}
	// Subset barrier over the survivors: the world barrier would include
	// the corpse, so each survivor marks completion at every other
	// survivor and serves progress until both marks arrive — nobody tears
	// down its RPC service while a peer is still mid-check. (Death
	// detection is asynchronous; without this, the fastest survivor's
	// exit looks like a second death to the slowest.)
	for p := 0; p < r.N(); p++ {
		if p == me || p == victim {
			continue
		}
		if _, werr := gupcxx.RPCWire(r, p, done, []byte{1}).WaitErr(); werr != nil {
			panic(fmt.Sprintf("survivor barrier %d->%d: %v", me, p, werr))
		}
	}
	barrier := time.Now().Add(20 * time.Second)
	for dones.Load() < int64(r.N()-2) {
		if time.Now().After(barrier) {
			panic("survivor barrier never completed")
		}
		r.Serve()
	}
}

// serveScenario parks every rank in a progress loop until some peer is
// declared down — the shape the parent's KillRank test needs: it kills
// one child externally and expects the survivors to notice and exit
// cleanly.
func serveScenario(r *gupcxx.Rank) {
	r.Barrier()
	fmt.Printf("WORKER_READY rank=%d\n", r.Me())
	deadline := time.Now().Add(30 * time.Second)
	for len(r.DownPeers()) == 0 {
		if time.Now().After(deadline) {
			panic("no peer died within the serve window")
		}
		r.Serve()
	}
}

// syncBuffer serializes the concurrent writes of several children's
// stdout copy goroutines.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// workerArgv re-execs this test binary narrowed to the worker entry.
func workerArgv() []string {
	return []string{os.Args[0], "-test.run", "^TestMultiprocWorkerProcess$", "-test.count=1"}
}

// TestMultiprocSmokeWorld is the tentpole acceptance test: a 4-rank
// process-per-rank world launched exactly the way cmd/gupcxxrun does,
// running the full wire-encodable op suite.
func TestMultiprocSmokeWorld(t *testing.T) {
	defer leakCheck(t)()
	out := &syncBuffer{}
	lw, err := boot.LaunchLocal(4, 7, workerArgv(), []string{workerEnv + "=smoke"}, out, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lw.Kill()
	if err := lw.Wait(); err != nil {
		t.Fatalf("world failed: %v\noutput:\n%s", err, out.String())
	}
	if got := strings.Count(out.String(), "WORKER_OK scenario=smoke"); got != 4 {
		t.Errorf("%d of 4 ranks reported success; output:\n%s", got, out.String())
	}
}

// TestMultiprocPeerDeath: one rank of a 4-rank world exits abruptly
// mid-run; the launcher reports the corpse, and every survivor reports
// having observed the death as ErrPeerUnreachable.
func TestMultiprocPeerDeath(t *testing.T) {
	defer leakCheck(t)()
	out := &syncBuffer{}
	lw, err := boot.LaunchLocal(4, 9, workerArgv(), []string{workerEnv + "=death"}, out, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lw.Kill()
	werr := lw.Wait()
	if werr == nil {
		t.Fatalf("the victim's exit(3) did not fail the wait; output:\n%s", out.String())
	}
	if !strings.Contains(werr.Error(), "rank 2") {
		t.Errorf("wait error %v does not name the victim", werr)
	}
	if got := strings.Count(out.String(), "WORKER_OK scenario=death"); got != 3 {
		t.Errorf("%d of 3 survivors reported success; wait err %v; output:\n%s", got, werr, out.String())
	}
}

// TestMultiprocKillRank drives the launcher's fault-injection hook: the
// parent SIGKILLs one child once all ranks report ready; the survivors'
// liveness detectors notice and the processes exit cleanly.
func TestMultiprocKillRank(t *testing.T) {
	defer leakCheck(t)()
	out := &syncBuffer{}
	lw, err := boot.LaunchLocal(3, 11, workerArgv(), []string{workerEnv + "=serve"}, out, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lw.Kill()
	ready := time.Now().Add(30 * time.Second)
	for strings.Count(out.String(), "WORKER_READY") < 3 {
		if time.Now().After(ready) {
			t.Fatalf("ranks never reported ready; output:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := lw.KillRank(2); err != nil {
		t.Fatal(err)
	}
	werr := lw.Wait()
	if werr == nil || !strings.Contains(werr.Error(), "rank 2") {
		t.Errorf("wait error %v does not report the killed rank", werr)
	}
	if got := strings.Count(out.String(), "WORKER_OK scenario=serve"); got != 2 {
		t.Errorf("%d of 2 survivors exited cleanly; output:\n%s", got, out.String())
	}
}
