package experiments

import (
	"strings"
	"testing"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/hadoopsim"
)

// smallSchedConfig keeps the scheduling grid test-sized: one group,
// two trials, a 8-node cluster.
func smallSchedConfig() SchedulingConfig {
	return SchedulingConfig{
		Nodes:         8,
		BlocksPerNode: 3,
		Trials:        2,
		Groups:        []cluster.Group{{MTBI: 10, Service: 8}},
	}
}

func TestSchedulingHeadlineDeterministicAcrossWorkers(t *testing.T) {
	// The tentpole's bit-identical guarantee: the full grid fingerprint
	// must not depend on the worker count.
	cfgs := []SchedulingConfig{smallSchedConfig(), smallSchedConfig(), smallSchedConfig()}
	cfgs[0].Workers = 1
	cfgs[1].Workers = 4
	cfgs[2].Workers = 0 // GOMAXPROCS
	prints := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		res, err := SchedulingHeadline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		prints[i] = res.Fingerprint()
	}
	if prints[0] != prints[1] || prints[0] != prints[2] {
		t.Fatalf("fingerprints differ across worker counts: %v", prints)
	}
}

func TestSchedulingHeadlineGridComplete(t *testing.T) {
	cfg := smallSchedConfig()
	res, err := SchedulingHeadline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 || len(res.Policies) != 3 {
		t.Fatalf("grid shape: %d groups, %d policies", len(res.Groups), len(res.Policies))
	}
	for _, g := range res.Groups {
		for _, p := range res.Policies {
			cell, ok := res.Cell(g, p)
			if !ok {
				t.Fatalf("missing cell %s / %s", g, p)
			}
			if cell.Elapsed <= 0 {
				t.Fatalf("cell %s / %s has non-positive elapsed %g", g, p, cell.Elapsed)
			}
		}
	}
	// The redundant arm must show first-finisher cancellations.
	if cell, _ := res.Cell(res.Groups[0], hadoopsim.SpeculationRedundant); cell.Cancelled == 0 {
		t.Fatal("redundant policy cancelled no attempts")
	}
}

func TestSchedulingTableRendersEveryCell(t *testing.T) {
	res, err := SchedulingHeadline(smallSchedConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := SchedulingTable(res).String()
	for _, p := range res.Policies {
		if !strings.Contains(out, p.String()) {
			t.Fatalf("table lacks policy %s:\n%s", p, out)
		}
	}
	if !strings.Contains(out, "MTBI") {
		t.Fatalf("table lacks the group label:\n%s", out)
	}
	// Byte-stable re-render (no map-order leakage).
	for i := 0; i < 5; i++ {
		if got := SchedulingTable(res).String(); got != out {
			t.Fatalf("render %d differs", i)
		}
	}
}

func TestSchedulingModeFilterEquivalence(t *testing.T) {
	// A single-policy run must reproduce the same cell the full grid
	// produced: per-cell seeds derive from the policy's label, not from
	// the grid position.
	full, err := SchedulingHeadline(smallSchedConfig())
	if err != nil {
		t.Fatal(err)
	}
	one := smallSchedConfig()
	one.Policies = []hadoopsim.SpeculationPolicy{hadoopsim.SpeculationPredictive}
	solo, err := SchedulingHeadline(one)
	if err != nil {
		t.Fatal(err)
	}
	g := full.Groups[0]
	want, ok := full.Cell(g, one.Policies[0])
	if !ok {
		t.Fatal("policy missing from full grid")
	}
	got, ok := solo.Cell(g, one.Policies[0])
	if !ok {
		t.Fatal("policy missing from filtered run")
	}
	if want != got {
		t.Fatalf("filtered cell differs from full-grid cell:\n%+v\n%+v", got, want)
	}
}
