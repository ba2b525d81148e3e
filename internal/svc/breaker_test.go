package svc

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/adaptsim/adapt/internal/stats"
)

// fakeClock is a mutex-guarded manual clock injected via breaker.now,
// so the state machine is tested against exact cooldown boundaries
// instead of wall-clock sleeps.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1000, 0)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// testBreaker builds a breaker on a fake clock with a fixed seed.
func testBreaker(t *testing.T, cfg BreakerConfig, seed uint64) (*breaker, *fakeClock, *BreakerStats) {
	t.Helper()
	st := &BreakerStats{}
	b := newBreaker(cfg, stats.NewRNG(seed), st)
	if b == nil {
		t.Fatalf("newBreaker(%+v) disabled", cfg)
	}
	clk := newFakeClock()
	b.now = clk.now
	return b, clk, st
}

// mustAdmit asserts one admit outcome.
func mustAdmit(t *testing.T, b *breaker, wantProbe, wantOK bool, msg string) {
	t.Helper()
	probe, ok := b.admit()
	if probe != wantProbe || ok != wantOK {
		t.Fatalf("%s: admit() = (probe %v, ok %v), want (%v, %v)", msg, probe, ok, wantProbe, wantOK)
	}
}

func TestBreakerOpensAfterThresholdConsecutiveFailures(t *testing.T) {
	cfg := BreakerConfig{Threshold: 3, Cooldown: time.Second}
	b, clk, st := testBreaker(t, cfg, 1)

	for i := 0; i < 2; i++ {
		mustAdmit(t, b, false, true, "while closed")
		b.record(false, false)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after %d failures = %v, want closed", 2, got)
	}
	mustAdmit(t, b, false, true, "one below threshold")
	b.record(false, false)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after threshold failures = %v, want open", got)
	}
	if !b.blocked() {
		t.Fatal("open breaker not blocked()")
	}
	// The jittered cooldown must lie in [Cooldown, Cooldown*(1+breakerJitter)).
	window, most := b.openUntil.Sub(clk.now()), time.Duration(float64(cfg.Cooldown)*(1+breakerJitter))
	if window < cfg.Cooldown || window >= most {
		t.Fatalf("cooldown %v outside [%v, %v)", window, cfg.Cooldown, most)
	}
	mustAdmit(t, b, false, false, "while open")
	if st.Opens.Load() != 1 || st.FastFails.Load() != 1 {
		t.Fatalf("opens=%d fastfails=%d, want 1 and 1", st.Opens.Load(), st.FastFails.Load())
	}
}

// TestBreakerNoFlapOnAlternatingOutcomes pins the consecutive-failure
// requirement: a node that fails every other call never accumulates a
// run, so the breaker must not flap open on mixed evidence.
func TestBreakerNoFlapOnAlternatingOutcomes(t *testing.T) {
	b, _, st := testBreaker(t, BreakerConfig{Threshold: 2}, 1)
	for i := 0; i < 50; i++ {
		mustAdmit(t, b, false, true, fmt.Sprintf("alternating round %d", i))
		b.record(false, i%2 == 0)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after alternating outcomes = %v, want closed", got)
	}
	if st.Opens.Load() != 0 {
		t.Fatalf("opens = %d, want 0", st.Opens.Load())
	}
}

func TestBreakerHalfOpenProbeQuota(t *testing.T) {
	cfg := BreakerConfig{Threshold: 1, Cooldown: time.Second}
	b, clk, st := testBreaker(t, cfg, 2)
	mustAdmit(t, b, false, true, "closed")
	b.record(false, false) // opens
	mustAdmit(t, b, false, false, "during cooldown")

	// Past the worst-case jittered cooldown the breaker half-opens and
	// admits one probe at a time.
	clk.advance(2 * cfg.Cooldown)
	mustAdmit(t, b, true, true, "probe")
	mustAdmit(t, b, false, false, "a second probe while the first is out")
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", got)
	}
	// The probe's success closes the breaker.
	b.record(true, true)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after probe success = %v, want closed", got)
	}
	if st.Closes.Load() != 1 {
		t.Fatalf("closes = %d, want 1", st.Closes.Load())
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	cfg := BreakerConfig{Threshold: 1, Cooldown: time.Second}
	b, clk, st := testBreaker(t, cfg, 3)
	mustAdmit(t, b, false, true, "closed")
	b.record(false, false)
	clk.advance(2 * cfg.Cooldown)
	mustAdmit(t, b, true, true, "probe")
	b.record(true, false)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	if !b.blocked() {
		t.Fatal("reopened breaker not blocked(): failed probe must start a fresh cooldown")
	}
	if st.Opens.Load() != 2 {
		t.Fatalf("opens = %d, want 2 (initial trip + reopen)", st.Opens.Load())
	}
}

// TestBreakerForgetReleasesProbeNeutrally pins the hedge-loser
// contract: a cancelled call proves nothing, so forget must restore
// the probe slot without moving the state machine either way.
func TestBreakerForgetReleasesProbeNeutrally(t *testing.T) {
	cfg := BreakerConfig{Threshold: 1, Cooldown: time.Second}
	b, clk, _ := testBreaker(t, cfg, 4)
	mustAdmit(t, b, false, true, "closed")
	b.record(false, false)
	clk.advance(2 * cfg.Cooldown)
	mustAdmit(t, b, true, true, "probe")
	mustAdmit(t, b, false, false, "quota spent")
	b.forget(true)
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state after forget = %v, want half-open (no judgement)", got)
	}
	mustAdmit(t, b, true, true, "slot restored after forget")
	// forget of a non-probe call is a no-op on the quota.
	b.forget(false)
	mustAdmit(t, b, false, false, "quota still spent")
}

// TestBreakerSeedReplayDeterminism drives two breakers with the same
// seed, config, and clock script through the same outcome sequence and
// requires identical admit decisions and cooldown boundaries — the
// property that makes chaos soaks replayable.
func TestBreakerSeedReplayDeterminism(t *testing.T) {
	run := func() (decisions []bool, windows []time.Time) {
		cfg := BreakerConfig{Threshold: 2, Cooldown: 800 * time.Millisecond}
		st := &BreakerStats{}
		b := newBreaker(cfg, stats.NewRNG(42), st)
		clk := newFakeClock()
		b.now = clk.now
		// Scripted mix of failures, recoveries, probes, and clock steps.
		for round := 0; round < 40; round++ {
			probe, ok := b.admit()
			decisions = append(decisions, ok)
			if ok {
				b.record(probe, round%5 == 4)
			}
			windows = append(windows, b.openUntil)
			clk.advance(time.Duration(100+round*37) * time.Millisecond)
		}
		return
	}
	d1, w1 := run()
	d2, w2 := run()
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("admit decision %d diverged under identical seed: %v vs %v", i, d1[i], d2[i])
		}
		if !w1[i].Equal(w2[i]) {
			t.Fatalf("cooldown boundary %d diverged under identical seed: %v vs %v", i, w1[i], w2[i])
		}
	}
}

// TestBreakerNilSafety: a nil breaker (disabled config) admits
// everything and ignores every outcome.
func TestBreakerNilSafety(t *testing.T) {
	var b *breaker
	if b != newBreaker(BreakerConfig{}, stats.NewRNG(1), nil) {
		t.Fatal("zero config must disable the breaker")
	}
	probe, ok := b.admit()
	if probe || !ok {
		t.Fatalf("nil admit = (%v, %v), want (false, true)", probe, ok)
	}
	b.record(false, false)
	b.forget(true)
	if b.blocked() {
		t.Fatal("nil breaker blocked")
	}
	if b.State() != BreakerClosed {
		t.Fatal("nil breaker state not closed")
	}
}
