package main

import (
	"math"
	"sort"

	"github.com/adaptsim/adapt/internal/stats"
)

// metricDef is one named metric of the benchmark. The two tables below
// are the single source of the names, units, directions and bounds;
// BENCHMARK.json at the repo root repeats them and a test holds the
// two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	// Per-layer metrics carry none.
	Bound float64
}

// endToEnd lists what a user of the system sees. Every workload
// reports every one of them:
//
//	ops_s         operations completed per wall second, median over
//	              timed rounds. The operation is a file put or get
//	              (bulk_io, mixed_rw), a create/stat/read (small_files)
//	              or a simulated map task (sim_scale, sim_emulation).
//	cycle_p50_ms  the median latency of each operation class the
//	              workload has, summed: put+get, create+stat+read, or
//	              one simulation cell of each series.
//	setup_s       everything before the first timed round, median over
//	              the run's epochs.
var endToEnd = []metricDef{
	{"ops_s", "1/s", "higher", 0.25},
	{"cycle_p50_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the single-layer metrics of the traced run, under the
// repo's module names. A workload that does not reach a layer reports
// 0 for it.
var perLayer = []metricDef{
	{"svc.control.put_self_ms", "ms", "lower", 0},
	{"svc.control.get_self_ms", "ms", "lower", 0},
	{"svc.control.stat_ms", "ms", "lower", 0},
	{"svc.data.put_self_ms", "ms", "lower", 0},
	{"svc.data.get_self_ms", "ms", "lower", 0},
	{"svc.transport.shell_nn_msgs_per_op", "count", "lower", 0},
	{"svc.transport.nn_dn_msgs_per_op", "count", "lower", 0},
	{"svc.transport.dn_dn_msgs_per_op", "count", "lower", 0},
	{"svc.transport.dn_nn_msgs_per_op", "count", "lower", 0},
	{"svc.admission.admitted", "count", "higher", 0},
	{"svc.admission.queue_waits", "count", "lower", 0},
	{"svc.admission.shed", "count", "lower", 0},
	{"svc.breaker.opens", "count", "lower", 0},
	{"svc.breaker.fast_fails", "count", "lower", 0},
	{"dfs.engine.put_ms", "ms", "lower", 0},
	{"dfs.engine.get_ms", "ms", "lower", 0},
	{"dfs.store.put_us", "us", "lower", 0},
	{"dfs.store.get_us", "us", "lower", 0},
	{"dfs.store.ops_per_put", "count", "lower", 0},
	{"dfs.store.ops_per_get", "count", "lower", 0},
	{"dfs.store.bytes_per_user_byte", "count", "lower", 0},
	{"dfs.retry.read_retries", "count", "lower", 0},
	{"dfs.retry.write_retries", "count", "lower", 0},
	{"dfs.retry.read_failovers", "count", "lower", 0},
	{"dfs.retry.write_failovers", "count", "lower", 0},
	{"dfs.retry.degraded_writes", "count", "lower", 0},
	{"dfs.hedge.hedged_reads", "count", "lower", 0},
	{"dfs.hedge.wins", "count", "higher", 0},
	{"dfs.hedge.useful_frac", "count", "higher", 0},
	{"wal.append_us", "us", "lower", 0},
	{"wal.bytes_per_mutation", "count", "lower", 0},
	{"wal.recover_ms", "ms", "lower", 0},
	{"shard.ring.lookup_ns", "ns", "lower", 0},
	{"shard.quota.reserve_ns", "ns", "lower", 0},
	{"placement.adapt_build_us", "us", "lower", 0},
	{"placement.adapt_draw_ns", "ns", "lower", 0},
	{"placement.random_draw_ns", "ns", "lower", 0},
	{"placement.naive_draw_ns", "ns", "lower", 0},
	{"trace.generate_ms", "ms", "lower", 0},
	{"cluster.build_ms", "ms", "lower", 0},
	{"hadoopsim.random_run_ms", "ms", "lower", 0},
	{"hadoopsim.naive_run_ms", "ms", "lower", 0},
	{"hadoopsim.adapt_run_ms", "ms", "lower", 0},
	{"hadoopsim.us_per_event", "us", "lower", 0},
	{"hadoopsim.events_per_task", "count", "lower", 0},
	{"hadoopsim.attempts_per_task", "count", "lower", 0},
	{"hadoopsim.speculative_per_task", "count", "lower", 0},
	{"hadoopsim.migrations_per_task", "count", "lower", 0},
	{"hadoopsim.cancelled_per_task", "count", "lower", 0},
	{"hadoopsim.journal_overhead_frac", "count", "lower", 0},
	{"sim.engine.ns_per_event", "ns", "lower", 0},
	{"sim.engine.cancel_ns", "ns", "lower", 0},
	{"netsim.transfer_ns", "ns", "lower", 0},
	{"par.speedup_x", "count", "higher", 0},
	{"client.put_mb_s", "MiB/s", "higher", 0},
	{"client.get_mb_s", "MiB/s", "higher", 0},
	{"client.put_p50_ms", "ms", "lower", 0},
	{"client.get_p50_ms", "ms", "lower", 0},
	{"client.stat_p50_ms", "ms", "lower", 0},
	{"client.put_tail_ms", "ms", "lower", 0},
	{"client.get_tail_ms", "ms", "lower", 0},
	{"client.tail_pct", "%", "higher", 0},
	{"client.samples", "count", "higher", 0},
	{"client.put_round_iqr_frac", "count", "lower", 0},
	{"client.get_round_iqr_frac", "count", "lower", 0},
	{"proc.peak_rss_mb", "MiB", "lower", 0},
	{"proc.alloc_mb_per_op", "MiB", "lower", 0},
	{"proc.gc_cycles", "count", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"proc.num_cpu", "count", "higher", 0},
	{"proc.gomaxprocs", "count", "higher", 0},
	{"bench.trace_overhead_frac", "count", "lower", 0},
	{"bench.self_time_cover_frac", "count", "higher", 0},
	{"bench.failed_ops_frac", "count", "lower", 0},
}

// quantile is stats.Quantile reading 0, not NaN, where there are no
// samples: an operation class a workload does not have adds nothing to
// a sum of medians.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPermilles are the percentiles a tail may be reported at, highest
// first, in tenths of a percent.
var tailPermilles = []int{999, 990, 980, 950, 900, 750}

// tailPercent picks the highest percentile that still has at least ten
// of n samples beyond it, 50 when none does: a percentile read from
// fewer is one sample's luck.
func tailPercent(n int) float64 {
	for _, pm := range tailPermilles {
		if n*(1000-pm) >= 10*1000 {
			return float64(pm) / 10
		}
	}
	return 50
}

// quartiles returns Q1, Q2 and Q3 of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so the
// spread this program prints is the spread the driver computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// iqrFrac is (Q3 − Q1) ÷ median, the run-to-run spread as a share of
// the typical value.
func iqrFrac(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
