package experiments

import (
	"fmt"
	"math"
	"strings"

	"github.com/adaptsim/adapt/internal/metrics"
)

// chartWidth is the bar area width in characters.
const chartWidth = 48

// Bar is one labeled value of a bar chart.
type Bar struct {
	Label string
	Value float64
}

// BarChart renders labeled horizontal bars scaled to the maximum
// value — the terminal stand-in for the paper's column charts.
func BarChart(title, unit string, bars []Bar) string {
	var sb strings.Builder
	sb.WriteString(title)
	sb.WriteByte('\n')
	maxVal := 0.0
	labelW := 0
	for _, b := range bars {
		if b.Value > maxVal {
			maxVal = b.Value
		}
		if len(b.Label) > labelW {
			labelW = len(b.Label)
		}
	}
	for _, b := range bars {
		n := 0
		if maxVal > 0 && !math.IsNaN(b.Value) {
			n = int(b.Value / maxVal * chartWidth)
		}
		if n < 0 {
			n = 0
		}
		fmt.Fprintf(&sb, "  %-*s |%s%s %.1f%s\n",
			labelW, b.Label,
			strings.Repeat("█", n), strings.Repeat(" ", chartWidth-n),
			b.Value, unit)
	}
	return sb.String()
}

// StackedBar is one labeled overhead breakdown.
type StackedBar struct {
	Label  string
	Ratios metrics.Ratio
}

// StackedChart renders the Figure 5 view: per series, a stacked bar of
// rework (#), recovery (R), migration (M), and misc (.) overheads,
// scaled to the largest total.
func StackedChart(title string, bars []StackedBar) string {
	var sb strings.Builder
	sb.WriteString(title)
	sb.WriteString("\n  legend: #=rework R=recovery M=migration .=misc\n")
	maxTotal := 0.0
	labelW := 0
	for _, b := range bars {
		if t := b.Ratios.Total(); t > maxTotal {
			maxTotal = t
		}
		if len(b.Label) > labelW {
			labelW = len(b.Label)
		}
	}
	if maxTotal <= 0 {
		maxTotal = 1
	}
	for _, b := range bars {
		scale := chartWidth / maxTotal
		segs := []struct {
			ch rune
			v  float64
		}{
			{'#', b.Ratios.Rework},
			{'R', b.Ratios.Recovery},
			{'M', b.Ratios.Migration},
			{'.', b.Ratios.Misc},
		}
		var bar strings.Builder
		for _, s := range segs {
			n := int(s.v * scale)
			for i := 0; i < n; i++ {
				bar.WriteRune(s.ch)
			}
		}
		fmt.Fprintf(&sb, "  %-*s |%-*s %.1f%%\n",
			labelW, b.Label, chartWidth, bar.String(), 100*b.Ratios.Total())
	}
	return sb.String()
}

// ElapsedChart renders one sweep value as a bar chart across series
// (the Figure 3 visual).
func (r *Result) ElapsedChart(xLabel string) string {
	bars := make([]Bar, 0, len(r.Series))
	for _, s := range r.Series {
		if c, ok := r.Cell(xLabel, s); ok {
			bars = append(bars, Bar{Label: s.Label(), Value: c.Elapsed})
		}
	}
	return BarChart(fmt.Sprintf("%s @ %s = %s (elapsed seconds)", r.Name, r.XTitle, xLabel), "s", bars)
}

// LocalityChart renders one sweep value's locality across series (the
// Figure 4 visual).
func (r *Result) LocalityChart(xLabel string) string {
	bars := make([]Bar, 0, len(r.Series))
	for _, s := range r.Series {
		if c, ok := r.Cell(xLabel, s); ok {
			bars = append(bars, Bar{Label: s.Label(), Value: 100 * c.Locality})
		}
	}
	return BarChart(fmt.Sprintf("%s @ %s = %s (data locality)", r.Name, r.XTitle, xLabel), "%", bars)
}

// OverheadChart renders one sweep value as stacked overhead bars (the
// Figure 5 visual).
func (r *Result) OverheadChart(xLabel string) string {
	bars := make([]StackedBar, 0, len(r.Series))
	for _, s := range r.Series {
		if c, ok := r.Cell(xLabel, s); ok {
			bars = append(bars, StackedBar{Label: s.Label(), Ratios: c.Ratios})
		}
	}
	return StackedChart(fmt.Sprintf("%s @ %s = %s (overhead ratio)", r.Name, r.XTitle, xLabel), bars)
}
