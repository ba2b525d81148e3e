package experiments

import "github.com/adaptsim/adapt/internal/metrics"

// Cell is one measured point of a sweep: a series at a sweep value,
// averaged over the point's trials.
type Cell struct {
	X      float64
	XLabel string
	Series Series
	// Elapsed is the mean map-phase time (Figure 3) with its standard
	// error across trials.
	Elapsed       float64
	ElapsedStdErr float64
	// Locality is the mean data locality (Figure 4).
	Locality float64
	// Ratios are the mean rework/recovery/migration/misc overhead
	// ratios (Figure 5).
	Ratios metrics.Ratio
}

// Result is a complete sweep: one sub-figure of Figures 3–5.
type Result struct {
	Name   string
	XTitle string
	XVals  []string
	Series []Series
	Cells  map[string]map[string]Cell // x label -> series label -> cell
}

// Cell returns a measured point.
func (r *Result) Cell(xLabel string, s Series) (Cell, bool) {
	row, ok := r.Cells[xLabel]
	if !ok {
		return Cell{}, false
	}
	c, ok := row[s.Label()]
	return c, ok
}

// ElapsedTable renders the Figure 3 view (seconds).
func (r *Result) ElapsedTable() *Table {
	return r.table("Elapsed time (s) — "+r.Name, func(c Cell) string {
		return fmtSeconds(c.Elapsed)
	})
}

// LocalityTable renders the Figure 4 view (percent local tasks).
func (r *Result) LocalityTable() *Table {
	return r.table("Data locality — "+r.Name, func(c Cell) string {
		return fmtPercent(c.Locality)
	})
}

func (r *Result) table(title string, cell func(Cell) string) *Table {
	t := &Table{Title: title, Header: []string{r.XTitle}}
	for _, s := range r.Series {
		t.Header = append(t.Header, s.Label())
	}
	for _, x := range r.XVals {
		row := []string{x}
		for _, s := range r.Series {
			c, ok := r.Cell(x, s)
			if !ok {
				row = append(row, "-")
				continue
			}
			row = append(row, cell(c))
		}
		t.AddRow(row...)
	}
	return t
}

// OverheadTable renders the Figure 5 view: per series and sweep value,
// the overhead ratio of each component.
func (r *Result) OverheadTable() *Table {
	t := &Table{
		Title: "Overhead ratios — " + r.Name,
		Note:  "overhead components normalized by aggregate failure-free execution time",
		Header: []string{
			r.XTitle, "series", "rework", "recovery", "migration", "misc", "total",
		},
	}
	for _, x := range r.XVals {
		for _, s := range r.Series {
			c, ok := r.Cell(x, s)
			if !ok {
				continue
			}
			t.AddRow(x, s.Label(),
				fmtPercent(c.Ratios.Rework),
				fmtPercent(c.Ratios.Recovery),
				fmtPercent(c.Ratios.Migration),
				fmtPercent(c.Ratios.Misc),
				fmtPercent(c.Ratios.Total()),
			)
		}
	}
	return t
}
