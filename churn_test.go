package gupcxx_test

// The kill/restart fault suite: a 4-rank process-per-rank world under
// injected datagram loss, with one rank killed and relaunched several
// times. Survivors must keep completing operations among themselves
// through every cycle (ops against a dead incarnation fail with
// ErrPeerUnreachable, never hang), each restarted incarnation must be
// readmitted by every survivor, and traffic must flow both directions
// with the readmitted rank afterwards. Run it via `make test-churn`
// (wired into CI) or as part of the ordinary test run.

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gupcxx"
	"gupcxx/internal/boot"
)

// churnCyclesEnv tells the workers how many kill/restart cycles the
// parent will drive, so survivors know when the churn is over.
const churnCyclesEnv = "GUPCXX_TEST_CYCLES"

func churnCycles() int {
	n, err := strconv.Atoi(os.Getenv(churnCyclesEnv))
	if err != nil || n < 1 {
		return 3
	}
	return n
}

// tolerableChurnErr reports whether an RPC failure toward the victim is
// an expected churn outcome: the incarnation died (ErrPeerUnreachable) or
// the reply is delayed past the probe deadline by loss plus restart
// timing. Anything else is a real bug.
func tolerableChurnErr(err error) bool {
	return errors.Is(err, gupcxx.ErrPeerUnreachable) ||
		errors.Is(err, gupcxx.ErrDeadlineExceeded) ||
		errors.Is(err, gupcxx.ErrBackpressure)
}

// mustEcho issues one echo RPC that has to succeed within wait — the
// survivor-to-survivor invariant (and the rejoiner's proof of
// readmission, where blocking until the join lands is the point).
func mustEcho(r *gupcxx.Rank, to int, echo gupcxx.RPCHandlerID, wait time.Duration) {
	deadline := time.Now().Add(wait)
	for {
		_, err := gupcxx.RPCWire(r, to, echo, []byte{byte(to)}, gupcxx.OpDeadline(5*time.Second)).WaitErr()
		if err == nil {
			return
		}
		if !tolerableChurnErr(err) {
			panic(fmt.Sprintf("echo %d->%d: %v", r.Me(), to, err))
		}
		if time.Now().After(deadline) {
			panic(fmt.Sprintf("echo %d->%d never succeeded within %v: last %v", r.Me(), to, wait, err))
		}
	}
}

// mustMark delivers one end-barrier mark to rank to, retrying the
// tolerable churn failures for up to a minute.
func mustMark(r *gupcxx.Rank, to int, mark gupcxx.RPCHandlerID) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		_, err := gupcxx.RPCWire(r, to, mark, []byte{1}, gupcxx.OpDeadline(5*time.Second)).WaitErr()
		if err == nil {
			return
		}
		if !tolerableChurnErr(err) || time.Now().After(deadline) {
			panic(fmt.Sprintf("end barrier %d->%d: %v", r.Me(), to, err))
		}
	}
}

// churnScenario is the per-rank body of TestMultiprocChurn. The highest
// rank is the victim the parent kills and relaunches; the rest are
// survivors that keep trafficking through every cycle. mark is the
// survivors' end mark, counted in marks; victimMark is the victim's,
// counted in victimMarks once the final incarnation is readmitted.
func churnScenario(w *gupcxx.World, r *gupcxx.Rank, echo, mark, victimMark gupcxx.RPCHandlerID,
	marks, victimMarks *atomic.Int64) {
	me, n := r.Me(), r.N()
	victim := n - 1
	cycles := churnCycles()

	if me == victim {
		if !w.Rejoined() {
			// First incarnation: join the launch barrier, then serve until
			// the parent kills us. The deadline is a loud backstop against
			// a parent that never does.
			r.Barrier()
			fmt.Printf("WORKER_READY rank=%d\n", me)
			deadline := time.Now().Add(120 * time.Second)
			for time.Now().Before(deadline) {
				r.Serve()
			}
			panic("victim was never killed")
		}
		// A restarted incarnation: no collectives — the survivors are mid-
		// run and will not re-enter a barrier. Prove readmission by
		// completing an RPC to every survivor (this blocks until each one
		// processes our join frames), announce it, mark every survivor
		// (which holds its service up until the final incarnation's mark
		// arrives, so no survivor leaves before our echoes land), then
		// serve until every survivor has marked us done. Intermediate
		// incarnations are killed somewhere in this sequence; only the
		// last one returns.
		for p := 0; p < victim; p++ {
			mustEcho(r, p, echo, 60*time.Second)
		}
		fmt.Printf("WORKER_REJOINED inc=%d\n", w.Incarnation())
		for p := 0; p < victim; p++ {
			mustMark(r, p, victimMark)
		}
		deadline := time.Now().Add(120 * time.Second)
		for marks.Load() < int64(victim) {
			if time.Now().After(deadline) {
				panic("survivors never finished the churn")
			}
			r.Serve()
		}
		return
	}

	// Survivor: traffic through every cycle. Survivor pairs must never
	// fail; the victim is probed with a bounded deadline and its deaths
	// are tolerated. Done when every restart cycle has been readmitted
	// here AND a probe of the final incarnation succeeded.
	r.Barrier()
	fmt.Printf("WORKER_READY rank=%d\n", me)
	deadline := time.Now().Add(120 * time.Second)
	for {
		if time.Now().After(deadline) {
			panic(fmt.Sprintf("survivor %d: churn never completed (readmitted %d/%d)",
				me, w.Domain().Stats().PeersReadmitted, cycles))
		}
		for p := 0; p < victim; p++ {
			if p != me {
				mustEcho(r, p, echo, 60*time.Second)
			}
		}
		_, verr := gupcxx.RPCWire(r, victim, echo, []byte("probe"), gupcxx.OpDeadline(5*time.Second)).WaitErr()
		if verr != nil && !tolerableChurnErr(verr) {
			panic(fmt.Sprintf("victim probe: %v", verr))
		}
		if verr == nil && w.Domain().Stats().PeersReadmitted >= int64(cycles) {
			break
		}
	}
	// End barrier: mark every other rank (the victim's final incarnation
	// included — survivor→victim traffic after the last readmission), then
	// hold our RPC service up until the other survivors and the victim's
	// final incarnation have marked us.
	for p := 0; p < n; p++ {
		if p != me {
			mustMark(r, p, mark)
		}
	}
	hold := time.Now().Add(120 * time.Second)
	for marks.Load() < int64(n-2) || victimMarks.Load() == 0 {
		if time.Now().After(hold) {
			panic("end barrier never completed")
		}
		r.Serve()
	}
}

// TestMultiprocChurn: a 4-rank world under 25% injected datagram loss
// survives repeated kill/restart cycles of one rank. Every cycle the
// victim is SIGKILLed and relaunched through the launcher's RestartRank
// hook; the restarted process re-registers with the still-running
// rendezvous server, rejoins under a bumped epoch, and is readmitted by
// every survivor. The world then finishes cleanly: all four final
// processes exit zero.
func TestMultiprocChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("churn soak skipped in -short mode")
	}
	defer leakCheck(t)()
	const cycles = 3
	out := &syncBuffer{}
	lw, err := boot.LaunchLocal(4, 5, workerArgv(), []string{
		workerEnv + "=churn",
		churnCyclesEnv + "=" + strconv.Itoa(cycles),
		"GUPCXX_UDP_FAULT=drop=0.25,seed=11",
	}, out, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lw.Kill()

	waitMarker := func(marker string, count int, wait time.Duration) {
		t.Helper()
		deadline := time.Now().Add(wait)
		for strings.Count(out.String(), marker) < count {
			if time.Now().After(deadline) {
				t.Fatalf("fewer than %d %q markers; output:\n%s", count, marker, out.String())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitMarker("WORKER_READY", 4, 60*time.Second)
	for c := 1; c <= cycles; c++ {
		// Let churned traffic flow against the live incarnation first.
		time.Sleep(500 * time.Millisecond)
		if err := lw.RestartRank(3); err != nil {
			t.Fatalf("restart cycle %d: %v", c, err)
		}
		waitMarker("WORKER_REJOINED", c, 60*time.Second)
	}
	if err := lw.Wait(); err != nil {
		t.Fatalf("churn world failed: %v\noutput:\n%s", err, out.String())
	}
	if got := strings.Count(out.String(), "WORKER_OK scenario=churn"); got != 4 {
		t.Errorf("%d of 4 final processes reported success; output:\n%s", got, out.String())
	}
	if got := strings.Count(out.String(), "WORKER_REJOINED"); got != cycles {
		t.Errorf("%d readmissions reported, want %d; output:\n%s", got, cycles, out.String())
	}
}
