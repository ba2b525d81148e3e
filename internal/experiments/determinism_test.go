package experiments

import (
	"testing"
)

// fixedResult builds a Result by hand, with more map
// entries than rendered columns so any accidental map-order
// dependence in the emitters would have room to show.
func fixedResult() *Result {
	series := []Series{
		{StrategyAdapt, 1}, {StrategyAdapt, 2},
		{StrategyNaive, 1}, {StrategyNaive, 2},
	}
	r := &Result{
		Name:   "determinism probe",
		XTitle: "Interrupted ratio",
		XVals:  []string{"0.2", "0.4", "0.6", "0.8"},
		Series: series,
		Cells:  make(map[string]map[string]Cell),
	}
	for i, x := range r.XVals {
		row := make(map[string]Cell, len(series))
		for k, s := range series {
			row[s.Label()] = Cell{
				Elapsed:  100 + float64(10*i+k),
				Locality: 0.5 + 0.01*float64(i+k),
			}
		}
		r.Cells[x] = row
	}
	return r
}

// TestEmissionByteStable renders every table and chart view many
// times and requires byte-identical output: emission walks the XVals
// and Series slices, never raw map order, so repeated renders of the
// same result must be exactly reproducible.
func TestEmissionByteStable(t *testing.T) {
	r := fixedResult()
	views := map[string]func() string{
		"elapsed-table":  func() string { return r.ElapsedTable().String() },
		"elapsed-md":     func() string { return r.ElapsedTable().Markdown() },
		"locality-table": func() string { return r.LocalityTable().String() },
		"elapsed-chart":  func() string { return r.ElapsedChart("0.6") },
		"locality-chart": func() string { return r.LocalityChart("0.6") },
	}
	for name, render := range views {
		first := render()
		if first == "" {
			t.Fatalf("%s rendered empty", name)
		}
		for i := 0; i < 20; i++ {
			if got := render(); got != first {
				t.Fatalf("%s render %d differs:\n%s\n---\n%s", name, i, got, first)
			}
		}
	}
}
