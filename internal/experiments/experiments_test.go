package experiments

import (
	"strings"
	"testing"
)

// tinyEmulation returns a fast configuration preserving the paper's
// shape-relevant ratios.
func tinyEmulation() EmulationConfig {
	return EmulationConfig{
		Nodes:         24,
		BlocksPerNode: 10,
		Trials:        2,
		Seed:          3,
	}
}

func tinySimulation() SimulationConfig {
	return SimulationConfig{
		Hosts:        48,
		TasksPerNode: 10,
		Trials:       1,
		Seed:         3,
	}
}

func TestSeriesLabels(t *testing.T) {
	s := Series{StrategyAdapt, 2}
	if s.Label() != "adapt/2rep" {
		t.Fatalf("label = %q", s.Label())
	}
	if len(EmulationSeries()) != 4 {
		t.Fatal("emulation series count")
	}
	if len(SimulationSeries()) != 9 {
		t.Fatal("simulation series count")
	}
}

func TestPolicyFor(t *testing.T) {
	if _, err := policyFor("bogus", nil, 12); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestFigure3aShape(t *testing.T) {
	res, err := Figure3a(tinyEmulation())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.XVals) != 3 {
		t.Fatalf("x values = %v", res.XVals)
	}
	// At the paper's default midpoint, ADAPT/1rep must beat
	// random/1rep on elapsed time and locality.
	rnd, ok1 := res.Cell("0.50", Series{StrategyRandom, 1})
	adp, ok2 := res.Cell("0.50", Series{StrategyAdapt, 1})
	if !ok1 || !ok2 {
		t.Fatal("missing cells")
	}
	if adp.Elapsed >= rnd.Elapsed {
		t.Fatalf("adapt %.1f not faster than random %.1f", adp.Elapsed, rnd.Elapsed)
	}
	if adp.Locality < rnd.Locality {
		t.Fatalf("adapt locality %.3f below random %.3f", adp.Locality, rnd.Locality)
	}
	// Tables render.
	txt := res.ElapsedTable().String()
	if !strings.Contains(txt, "adapt/1rep") {
		t.Fatalf("table missing series: %s", txt)
	}
	if md := res.LocalityTable().Markdown(); !strings.Contains(md, "| 0.50 |") {
		t.Fatalf("markdown missing row: %s", md)
	}
}

func TestFigure3bBandwidthMonotone(t *testing.T) {
	res, err := Figure3b(tinyEmulation())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.XVals) != 4 {
		t.Fatalf("x values = %v", res.XVals)
	}
	// Random/1rep should not get slower as bandwidth rises 4→32.
	lo, _ := res.Cell("4", Series{StrategyRandom, 1})
	hi, _ := res.Cell("32", Series{StrategyRandom, 1})
	if hi.Elapsed > lo.Elapsed {
		t.Fatalf("random/1rep slower at 32 Mb/s (%.1f) than 4 Mb/s (%.1f)",
			hi.Elapsed, lo.Elapsed)
	}
}

func TestFigure3cRuns(t *testing.T) {
	cfg := tinyEmulation()
	cfg.Nodes = 32 // large enough that no sweep factor clamps to the floor
	res, err := Figure3c(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.XVals) != 4 {
		t.Fatalf("x values = %v", res.XVals)
	}
}

func TestFigure3cDedupesClampedSweep(t *testing.T) {
	cfg := tinyEmulation()
	cfg.Nodes = 16 // 0.25x and 0.5x both clamp to the 8-node floor
	res, err := Figure3c(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.XVals) != 3 {
		t.Fatalf("x values = %v, want deduped to 3", res.XVals)
	}
	if md := res.ElapsedTable().Markdown(); strings.Count(md, "| 8 |") != 1 {
		t.Fatalf("8-node row printed %d times:\n%s", strings.Count(md, "| 8 |"), md)
	}
}

func TestHeadline(t *testing.T) {
	cells, err := Headline(tinyEmulation())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("cells = %d", len(cells))
	}
	var adapt1, random1 *HeadlineCell
	for i := range cells {
		switch cells[i].Series {
		case Series{StrategyAdapt, 1}:
			adapt1 = &cells[i]
		case Series{StrategyRandom, 1}:
			random1 = &cells[i]
		}
	}
	if adapt1 == nil || random1 == nil {
		t.Fatal("missing series")
	}
	if random1.ImprovementVsRandom1 != 0 {
		t.Fatalf("baseline improvement = %g", random1.ImprovementVsRandom1)
	}
	if adapt1.ImprovementVsRandom1 <= 0 {
		t.Fatalf("adapt improvement = %g, want > 0", adapt1.ImprovementVsRandom1)
	}
	tbl := HeadlineTable(cells).String()
	if !strings.Contains(tbl, "adapt/1rep") {
		t.Fatalf("table: %s", tbl)
	}
}

func TestFigure5aShape(t *testing.T) {
	// Keep the paper's per-node load (100 tasks/node) so job length
	// vs MTBI — the quantity that controls failure incidence — is
	// preserved while shrinking the host count for speed.
	cfg := SimulationConfig{
		Hosts:        96,
		TasksPerNode: 100,
		Trials:       1,
		Seed:         3,
	}
	cfg.Series = []Series{
		{StrategyRandom, 1},
		{StrategyAdapt, 1},
	}
	res, err := Figure5a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.XVals) != 4 {
		t.Fatalf("x values = %v", res.XVals)
	}
	// ADAPT's migration overhead must be below random's at the
	// default bandwidth (the paper: at least halved).
	rnd, ok1 := res.Cell("8", Series{StrategyRandom, 1})
	adp, ok2 := res.Cell("8", Series{StrategyAdapt, 1})
	if !ok1 || !ok2 {
		t.Fatal("missing cells")
	}
	if adp.Ratios.Migration >= rnd.Ratios.Migration {
		t.Fatalf("adapt migration %.3f not below random %.3f",
			adp.Ratios.Migration, rnd.Ratios.Migration)
	}
	if !strings.Contains(res.OverheadTable().String(), "migration") {
		t.Fatal("overhead table malformed")
	}
}

func TestFigure5bRuns(t *testing.T) {
	cfg := tinySimulation()
	cfg.Series = []Series{{StrategyRandom, 1}}
	res, err := Figure5b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.XVals) != 4 {
		t.Fatalf("x values = %v", res.XVals)
	}
	// Larger blocks keep total volume: fewer tasks each.
	c32, _ := res.Cell("32", Series{StrategyRandom, 1})
	c256, _ := res.Cell("256", Series{StrategyRandom, 1})
	if c32.X != 32 || c256.X != 256 {
		t.Fatal("x bookkeeping wrong")
	}
}

func TestFigure5cRuns(t *testing.T) {
	cfg := tinySimulation()
	cfg.Hosts = 128 // large enough that no sweep factor clamps to the floor
	cfg.Series = []Series{{StrategyRandom, 1}}
	res, err := Figure5c(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.XVals) != 4 {
		t.Fatalf("x values = %v", res.XVals)
	}
}

func TestFigure5cDedupesClampedSweep(t *testing.T) {
	cfg := tinySimulation()
	cfg.Hosts = 48 // 0.25x and 0.5x both clamp to the 32-host floor
	cfg.Series = []Series{{StrategyRandom, 1}}
	res, err := Figure5c(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.XVals) != 3 {
		t.Fatalf("x values = %v, want deduped to 3", res.XVals)
	}
}

func TestTable1(t *testing.T) {
	res, err := Table1(Table1Config{Hosts: 200, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Hosts != 200 {
		t.Fatalf("hosts = %d", res.Stats.Hosts)
	}
	tbl := res.Table().String()
	if !strings.Contains(tbl, "MTBI") || !strings.Contains(tbl, "4.376") {
		t.Fatalf("table: %s", tbl)
	}
}

func TestModelValidation(t *testing.T) {
	rows, err := ModelValidation(ModelValidationConfig{Samples: 4000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.RelErr > 0.1 || r.RelErr < -0.1 {
			t.Errorf("point MTBI=%g mu=%g gamma=%g: rel err %.3f too large",
				r.MTBI, r.Mu, r.Gamma, r.RelErr)
		}
	}
	if !strings.Contains(ModelValidationTable(rows).String(), "E[T] model") {
		t.Fatal("validation table malformed")
	}
}

func TestDefaultsTable(t *testing.T) {
	tbl := DefaultsTable().String()
	for _, want := range []string{"Table 2", "Table 3", "Table 4", "8 Mb/s"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("defaults table missing %q:\n%s", want, tbl)
		}
	}
}

func TestScaleHelpers(t *testing.T) {
	e := PaperEmulationConfig().Scale(0.25)
	if e.Nodes != 32 {
		t.Fatalf("scaled nodes = %d", e.Nodes)
	}
	if bad := PaperEmulationConfig().Scale(0); bad.Nodes != 128 {
		t.Fatal("invalid scale should be identity")
	}
	s := PaperSimulationConfig().Scale(0.125)
	if s.Hosts != 1024 {
		t.Fatalf("scaled hosts = %d", s.Hosts)
	}
}
