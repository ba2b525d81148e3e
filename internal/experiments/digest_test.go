package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"
)

// fingerprintSimResult hashes every measured value of a sweep at full
// precision (hex floats), walking XVals and Series in order so the
// digest is deterministic. Two results fingerprint equal iff they are
// bit-identical.
func fingerprintSimResult(res *Result) string {
	h := sha256.New()
	writeCell := func(w io.Writer, c Cell) {
		fmt.Fprintf(w, "%x|%s|%x|%x|%x|%x|%x|%x\n",
			c.X, c.Series.Label(), c.Elapsed, c.Locality,
			c.Ratios.Rework, c.Ratios.Recovery, c.Ratios.Migration, c.Ratios.Misc)
	}
	for _, x := range res.XVals {
		fmt.Fprintf(h, "[%s]\n", x)
		for _, s := range res.Series {
			if c, ok := res.Cell(x, s); ok {
				writeCell(h, c)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFrozenSweepDigests pins the simulator end to end against digests
// recorded before its scheduling decisions were indexed (EXPERIMENTS.md,
// "Retired harnesses — frozen numbers"): a one-point sweep of 1024 or
// 4096 trace-derived hosts, 10 tasks per node, seed 1, one trial of
// random/1rep and adapt/1rep, must hash to the same full digest at one
// worker and at four. A change that moves one simulated event, or lets
// the worker count leak into a result, fails here.
func TestFrozenSweepDigests(t *testing.T) {
	series := []Series{{StrategyRandom, 1}, {StrategyAdapt, 1}}
	for _, tc := range []struct {
		hosts  int
		digest string
	}{
		{1024, "852c8acba3b7ab882649c99c655b09f6356a3a7f0f6e501fd9edb7f32e2b3155"},
		{4096, "42a82ae8805bf905dd3c5079ee93752b87107017cc1ca21e2279de9ed1f0bda9"},
	} {
		for _, workers := range []int{1, 4} {
			cfg := SimulationConfig{
				Hosts:        tc.hosts,
				TasksPerNode: 10,
				Trials:       1,
				Seed:         1,
				Series:       series,
				Workers:      workers,
			}
			res := &Result{
				Name:   fmt.Sprintf("%d hosts", tc.hosts),
				XTitle: "hosts",
				Series: series,
				Cells:  make(map[string]map[string]Cell),
			}
			if err := runSimulationPoint(cfg, float64(tc.hosts), fmt.Sprint(tc.hosts), res); err != nil {
				t.Fatalf("hosts=%d workers=%d: %v", tc.hosts, workers, err)
			}
			if got := fingerprintSimResult(res); got != tc.digest {
				t.Errorf("hosts=%d workers=%d: digest %s, want %s", tc.hosts, workers, got, tc.digest)
			}
		}
	}
}

// runSimulationPoint runs every series at one point into res.
func runSimulationPoint(cfg SimulationConfig, x float64, xLabel string, res *Result) error {
	cfg = cfg.withDefaults()
	return cfg.sweep().run(res, []point{cfg.point(x, xLabel)})
}
