package main

import (
	"fmt"
	"math"
)

// runRepeat runs every workload in several sets of runs per set, the
// runs of a set on consecutive seeds from o.seed, and reports for each
// workload and end-to-end metric each set's median, its spread and how
// far the medians of the first two sets disagree. It fails when a pair
// disagrees by more than the metric's bound, or an output check failed.
func runRepeat(o options, sets, runs int) error {
	type cell struct{ values [][]float64 } // [set][run]
	table := map[string]*cell{}
	key := func(w, m string) string { return w + " " + m }
	failedRuns := 0
	for set := 0; set < sets; set++ {
		for _, name := range workloadNames {
			for r := 0; r < runs; r++ {
				ro := o
				ro.workload, ro.seed, ro.trace = name, o.seed+uint64(r), false
				out, err := run(ro)
				if err != nil {
					return fmt.Errorf("set %d %s seed %d: %w", set, name, ro.seed, err)
				}
				line := fmt.Sprintf("run set=%d workload=%s seed=%d failed=%d/%d", set, name, ro.seed, out.failed, out.attempted)
				for _, d := range endToEnd {
					c := table[key(name, d.Name)]
					if c == nil {
						c = &cell{values: make([][]float64, sets)}
						table[key(name, d.Name)] = c
					}
					c.values[set] = append(c.values[set], out.metrics[d.Name])
					line += fmt.Sprintf(" %s=%.6g", d.Name, out.metrics[d.Name])
				}
				fmt.Println(line)
				if out.failed > 0 {
					failedRuns++
					fmt.Printf("  first failure: %v\n", out.firstErr)
				}
			}
		}
	}

	fmt.Printf("\n%-14s %-13s %12s %12s %8s %8s %8s %6s\n", "workload", "metric", "median set0", "median set1", "worse", "spread0", "spread1", "bound")
	disagree := 0
	for _, name := range workloadNames {
		for _, d := range endToEnd {
			c := table[key(name, d.Name)]
			m0, m1 := median(c.values[0]), median(c.values[1])
			// How much worse the second median is than the first, as a
			// share of the first; negative when it is better.
			worse := (m1 - m0) / math.Abs(m0)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if math.Abs(worse) > d.Bound {
				verdict = "  DISAGREE"
				disagree++
			}
			fmt.Printf("%-14s %-13s %12.6g %12.6g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%%s\n",
				name, d.Name, m0, m1, 100*worse, 100*iqrFrac(c.values[0]), 100*iqrFrac(c.values[1]), 100*d.Bound, verdict)
		}
	}
	switch {
	case failedRuns > 0:
		return fmt.Errorf("%d runs failed output checks", failedRuns)
	case disagree > 0:
		return fmt.Errorf("%d workload/metric pairs disagree between the sets by more than their bound", disagree)
	}
	return nil
}
