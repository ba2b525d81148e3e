package experiments

import (
	"reflect"
	"testing"
)

// The parallel≡sequential equivalence suite: the engine's contract is
// that -workers does not change a single bit of any emitted report.
// These tests run real sweeps at workers=1 and workers=8 and require
// byte-identical renders and deeply equal result structures. Run under
// -race (make race / the CI experiments job) they also certify the
// engine free of data races.

// simResultsEqual asserts full-precision structural equality and
// byte-identical table renders.
func simResultsEqual(t *testing.T, serial, parallel *Result) {
	t.Helper()
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel simulation result differs structurally from sequential:\n%#v\n---\n%#v", serial, parallel)
	}
	if a, b := serial.OverheadTable().String(), parallel.OverheadTable().String(); a != b {
		t.Fatalf("overhead tables differ:\n%s\n---\n%s", a, b)
	}
	if a, b := fingerprintSimResult(serial), fingerprintSimResult(parallel); a != b {
		t.Fatalf("fingerprints differ: %s vs %s", a, b)
	}
}

func emuResultsEqual(t *testing.T, serial, parallel *Result) {
	t.Helper()
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel emulation result differs structurally from sequential:\n%#v\n---\n%#v", serial, parallel)
	}
	if a, b := serial.ElapsedTable().String(), parallel.ElapsedTable().String(); a != b {
		t.Fatalf("elapsed tables differ:\n%s\n---\n%s", a, b)
	}
	if a, b := serial.LocalityTable().String(), parallel.LocalityTable().String(); a != b {
		t.Fatalf("locality tables differ:\n%s\n---\n%s", a, b)
	}
}

func TestSimulationSweepParallelEquivalence(t *testing.T) {
	cfg := SimulationConfig{
		Hosts:        48,
		TasksPerNode: 10,
		Trials:       2,
		Seed:         3,
		Series:       []Series{{StrategyRandom, 1}, {StrategyAdapt, 1}, {StrategyAdapt, 2}},
	}
	serialCfg := cfg
	serialCfg.Workers = 1
	parallelCfg := cfg
	parallelCfg.Workers = 8

	serial, err := Figure5a(serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Figure5a(parallelCfg)
	if err != nil {
		t.Fatal(err)
	}
	simResultsEqual(t, serial, parallel)
}

func TestSimulationReplayModeParallelEquivalence(t *testing.T) {
	cfg := SimulationConfig{
		Hosts:        48,
		TasksPerNode: 10,
		Trials:       2,
		Seed:         5,
		Mode:         SimModeReplay,
		Series:       []Series{{StrategyRandom, 1}, {StrategyAdapt, 1}},
	}
	serialCfg := cfg
	serialCfg.Workers = 1
	parallelCfg := cfg
	parallelCfg.Workers = 8

	serial, err := Figure5c(serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Figure5c(parallelCfg)
	if err != nil {
		t.Fatal(err)
	}
	simResultsEqual(t, serial, parallel)
}

func TestEmulationSweepParallelEquivalence(t *testing.T) {
	cfg := tinyEmulation()
	serialCfg := cfg
	serialCfg.Workers = 1
	parallelCfg := cfg
	parallelCfg.Workers = 8

	serial, err := Figure3a(serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Figure3a(parallelCfg)
	if err != nil {
		t.Fatal(err)
	}
	emuResultsEqual(t, serial, parallel)
}

func TestHeadlineParallelEquivalence(t *testing.T) {
	cfg := tinyEmulation()
	serialCfg := cfg
	serialCfg.Workers = 1
	parallelCfg := cfg
	parallelCfg.Workers = 8

	serial, err := Headline(serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Headline(parallelCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("headline cells differ:\n%#v\n---\n%#v", serial, parallel)
	}
	if a, b := HeadlineTable(serial).String(), HeadlineTable(parallel).String(); a != b {
		t.Fatalf("headline tables differ:\n%s\n---\n%s", a, b)
	}
}

// TestWorkerCountSweep runs one sweep at every worker count from 1 to
// 12 (beyond GOMAXPROCS and beyond the cell count) and requires all of
// them to agree — completion order must never leak into results.
func TestWorkerCountSweep(t *testing.T) {
	cfg := SimulationConfig{
		Hosts:        48,
		TasksPerNode: 5,
		Trials:       1,
		Seed:         7,
		Series:       []Series{{StrategyRandom, 1}, {StrategyAdapt, 1}},
	}
	var baseline string
	for workers := 1; workers <= 12; workers++ {
		c := cfg
		c.Workers = workers
		res, err := Figure5c(c)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		fp := fingerprintSimResult(res)
		if workers == 1 {
			baseline = fp
			continue
		}
		if fp != baseline {
			t.Fatalf("workers=%d fingerprint %s differs from workers=1 %s", workers, fp, baseline)
		}
	}
}

// TestSensitivityParallelEquivalence covers the single-point engine
// path used by the sensitivity analysis.
func TestSensitivityParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("sensitivity sweep is the long way around the engine")
	}
	base := tinySimulation()
	serialCfg := base
	serialCfg.Workers = 1
	parallelCfg := base
	parallelCfg.Workers = 8

	serial, err := Sensitivity(SensitivityConfig{Base: serialCfg})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Sensitivity(SensitivityConfig{Base: parallelCfg})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("sensitivity rows differ:\n%#v\n---\n%#v", serial, parallel)
	}
}
