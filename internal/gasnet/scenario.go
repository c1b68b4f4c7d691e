package gasnet

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// Phased network scenarios: a tiny DSL that schedules fault-layer
// reconfigurations against the domain's cached clock, so a whole test run
// — partition at t+2s, heal at t+6s — is described by one string and
// replayed identically by every process of a multiproc world (each process
// parses the same spec and applies the entries whose sender it hosts).
//
// Grammar (phases separated by ';', tokens by whitespace):
//
//	phase     = "at=" duration directive...
//	directive = "partition=" group ("|" group)...   e.g. partition=0,1|2,3
//	          | "heal"                              lift partition + pair overrides
//	          | "fault=" faultSpec                  base distribution, all senders
//	          | "fault@" F ">" T "=" faultSpec      directional override F→T
//	          | "latency=" duration
//	          | "jitter=" duration
//
// durations are Go syntax ("2s", "150ms"); faultSpec is the
// GUPCXX_UDP_FAULT syntax ("drop=0.25,dup=0.05,seed=7"); phase times must
// be nondecreasing. The clock starts when the domain arms the scenario
// (inside NewDomain for the env var, at the StartScenario call otherwise).
// Events fire from the reliability ticker.

// scenarioEnvVar names the environment variable consulted by UDP-conduit
// domains at construction; a non-empty value arms the scenario it
// describes. Parse errors surface from NewDomain.
const scenarioEnvVar = "GUPCXX_UDP_SCENARIO"

// scenarioEvent is one scheduled reconfiguration: at is the offset from
// arming (ns); apply performs it against the domain's locally-hosted
// senders.
type scenarioEvent struct {
	at    int64
	apply func(d *Domain)
}

// scenario is an armed script. step is called only from the domain
// ticker, so next needs no synchronization; re-arming installs a fresh
// scenario via the domain's atomic pointer.
type scenario struct {
	d      *Domain
	events []scenarioEvent
	start  int64 // cached-clock instant of arming
	next   int
}

// step fires every event whose time has come. Ticker goroutine only.
func (s *scenario) step(now int64) {
	for s.next < len(s.events) && now-s.start >= s.events[s.next].at {
		ev := s.events[s.next]
		s.next++
		ev.apply(s.d)
	}
}

// StartScenario parses spec and arms it against this domain, replacing
// any scenario already armed. The scenario clock starts now; events fire
// from the domain ticker. In a multiproc world every process should arm
// the same spec — each applies the entries whose sending rank it hosts.
func (d *Domain) StartScenario(spec string) error {
	if d.udp == nil {
		return fmt.Errorf("gasnet: StartScenario: not a UDP-conduit domain")
	}
	events, err := parseScenario(spec, d.cfg.Ranks)
	if err != nil {
		return err
	}
	d.scen.Store(&scenario{d: d, events: events, start: clockRefresh()})
	return nil
}

// armScenarioFromEnv arms GUPCXX_UDP_SCENARIO if set. Called from domain
// construction after the transport exists.
func (d *Domain) armScenarioFromEnv() error {
	spec := os.Getenv(scenarioEnvVar)
	if spec == "" {
		return nil
	}
	if err := d.StartScenario(spec); err != nil {
		return fmt.Errorf("%w (from %s)", err, scenarioEnvVar)
	}
	return nil
}

// parseScenario compiles a scenario spec into its event list.
func parseScenario(spec string, ranks int) ([]scenarioEvent, error) {
	var events []scenarioEvent
	var prev int64 = -1
	for _, phase := range strings.Split(spec, ";") {
		tokens := strings.Fields(phase)
		if len(tokens) == 0 {
			continue
		}
		atVal, ok := strings.CutPrefix(tokens[0], "at=")
		if !ok {
			return nil, fmt.Errorf("gasnet: scenario phase %q must start with at=<duration>", strings.TrimSpace(phase))
		}
		at, err := time.ParseDuration(atVal)
		if err != nil {
			return nil, fmt.Errorf("gasnet: scenario at=%q: %w", atVal, err)
		}
		if at < 0 || int64(at) < prev {
			return nil, fmt.Errorf("gasnet: scenario phase times must be nondecreasing (at=%s)", at)
		}
		prev = int64(at)
		if len(tokens) == 1 {
			return nil, fmt.Errorf("gasnet: scenario phase at=%s has no directives", at)
		}
		for _, tok := range tokens[1:] {
			apply, err := parseDirective(tok, ranks)
			if err != nil {
				return nil, err
			}
			events = append(events, scenarioEvent{at: int64(at), apply: apply})
		}
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("gasnet: scenario %q has no phases", spec)
	}
	return events, nil
}

// parseDirective compiles one directive token into its apply function.
// Applies swallow per-rank errors: in a multiproc world most senders are
// not hosted locally, and that is the normal case, not a fault.
func parseDirective(tok string, ranks int) (func(d *Domain), error) {
	switch {
	case tok == "heal":
		return func(d *Domain) { d.healNetwork() }, nil

	case strings.HasPrefix(tok, "partition="):
		groups, err := parseGroups(strings.TrimPrefix(tok, "partition="), ranks)
		if err != nil {
			return nil, err
		}
		return func(d *Domain) { d.SetPartition(groups) }, nil

	case strings.HasPrefix(tok, "fault@"):
		// fault@F>T=<spec>: directional override F→T.
		head, spec, ok := strings.Cut(strings.TrimPrefix(tok, "fault@"), "=")
		if !ok {
			return nil, fmt.Errorf("gasnet: scenario directive %q: want fault@F>T=<spec>", tok)
		}
		fromS, toS, ok := strings.Cut(head, ">")
		if !ok {
			return nil, fmt.Errorf("gasnet: scenario directive %q: want fault@F>T=<spec>", tok)
		}
		from, err1 := parseRank(fromS, ranks)
		to, err2 := parseRank(toS, ranks)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("gasnet: scenario directive %q: bad rank pair", tok)
		}
		cfg, err := parseFaultSpec(spec)
		if err != nil {
			return nil, err
		}
		return func(d *Domain) { d.SetPairFault(from, to, *cfg) }, nil

	case strings.HasPrefix(tok, "fault="):
		cfg, err := parseFaultSpec(strings.TrimPrefix(tok, "fault="))
		if err != nil {
			return nil, err
		}
		return func(d *Domain) {
			for r := 0; r < d.cfg.Ranks; r++ {
				d.SetFault(r, *cfg)
			}
		}, nil

	case strings.HasPrefix(tok, "latency="):
		dur, err := time.ParseDuration(strings.TrimPrefix(tok, "latency="))
		if err != nil || dur < 0 {
			return nil, fmt.Errorf("gasnet: scenario latency %q: bad duration", tok)
		}
		return func(d *Domain) {
			for r := 0; r < d.cfg.Ranks; r++ {
				if fc, err := d.faultShim(r); err == nil {
					fc.mu.Lock()
					fc.delay = int64(dur)
					fc.updateArmed()
					fc.mu.Unlock()
				}
			}
		}, nil

	case strings.HasPrefix(tok, "jitter="):
		dur, err := time.ParseDuration(strings.TrimPrefix(tok, "jitter="))
		if err != nil || dur < 0 {
			return nil, fmt.Errorf("gasnet: scenario jitter %q: bad duration", tok)
		}
		return func(d *Domain) {
			for r := 0; r < d.cfg.Ranks; r++ {
				if fc, err := d.faultShim(r); err == nil {
					fc.mu.Lock()
					fc.jitter = int64(dur)
					fc.updateArmed()
					fc.mu.Unlock()
				}
			}
		}, nil
	}
	return nil, fmt.Errorf("gasnet: scenario has unknown directive %q", tok)
}

// parseGroups parses "0,1|2,3" into rank groups.
func parseGroups(spec string, ranks int) ([][]int, error) {
	var groups [][]int
	for _, gs := range strings.Split(spec, "|") {
		var g []int
		for _, rs := range strings.Split(gs, ",") {
			rs = strings.TrimSpace(rs)
			if rs == "" {
				continue
			}
			r, err := parseRank(rs, ranks)
			if err != nil {
				return nil, fmt.Errorf("gasnet: scenario partition rank %q: %w", rs, err)
			}
			g = append(g, r)
		}
		if len(g) > 0 {
			groups = append(groups, g)
		}
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("gasnet: scenario partition %q has no groups", spec)
	}
	return groups, nil
}

func parseRank(s string, ranks int) (int, error) {
	r, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return 0, err
	}
	if r < 0 || r >= ranks {
		return 0, fmt.Errorf("rank %d out of range [0,%d)", r, ranks)
	}
	return r, nil
}
