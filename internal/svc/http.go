package svc

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"

	"github.com/adaptsim/adapt/internal/shard"
)

// MetricsSnapshot collects everything the observability endpoint
// exports, so the exposition text can be rendered (and unit-tested)
// from a plain value.
type MetricsSnapshot struct {
	UptimeSeconds float64
	Files         int
	Blocks        int
	NodesUp       int
	NodesTotal    int

	// Resilience is the engine's counter snapshot in export order.
	Resilience map[string]int64

	// Per-node heartbeat freshness, (λ, μ) estimates, and the
	// interruptions the NameNode observed behind them, keyed by
	// numeric node id.
	HeartbeatAge  map[int]float64
	Lambda        map[int]float64
	Mu            map[int]float64
	Interruptions map[int]float64

	// NodeState is the failure detector's belief per node (0 alive,
	// 1 suspect, 2 dead), for nodes that have heartbeated.
	NodeState map[int]float64

	// WAL durability gauges and the failed-checkpoint counter;
	// meaningful only when Durable.
	Durable               bool
	WALSeq                float64
	WALSnapshotSeq        float64
	WALCheckpointFailures float64

	// Shards is the namespace shard count; Tenants the per-tenant
	// quota/usage rollup in tenant order.
	Shards  int
	Tenants []shard.TenantUsage

	// Admission-control gauges and counters; exported only when the
	// metadata service runs with admission control installed.
	Admission     bool
	AdmitInflight float64
	AdmitQueue    float64
	AdmitAdmitted float64
	AdmitQueued   float64
	AdmitShed     float64
	ShedQueueFull float64
	ShedBrownout  float64
	ShedExpired   float64

	// Per-node circuit-breaker state (0 closed, 1 open, 2 half-open)
	// and fleet-wide transition counters; exported only when breakers
	// are enabled.
	Breakers         bool
	BreakerState     map[int]float64
	BreakerOpens     float64
	BreakerCloses    float64
	BreakerFastFails float64
}

// snapshotMetrics gathers the NameNode's current state for export.
func (s *NameNodeServer) snapshotMetrics() MetricsSnapshot {
	rs := s.nn.Resilience().Snapshot()
	m := MetricsSnapshot{
		UptimeSeconds: s.now().Sub(s.start).Seconds(),
		Files:         len(s.nn.List()),
		Blocks:        s.nn.TotalBlocks(),
		NodesTotal:    len(s.stores),
		Resilience: map[string]int64{
			"read_retries":           rs.ReadRetries,
			"read_failovers":         rs.ReadFailovers,
			"write_failovers":        rs.WriteFailovers,
			"write_retries":          rs.WriteRetries,
			"degraded_writes":        rs.DegradedWrites,
			"checksum_failures":      rs.ChecksumFailures,
			"node_down_errors":       rs.NodeDownErrors,
			"repaired_replicas":      rs.RepairedReplicas,
			"unrepairable_blocks":    rs.UnrepairableBlocks,
			"redistributed_replicas": rs.RedistributedReplicas,
			"injected_faults":        rs.InjectedFaults,
			"injected_corruptions":   rs.InjectedCorruptions,
			"repair_scans":           rs.RepairScans,
			"nodes_declared_dead":    rs.NodesDeclaredDead,
			"speculative_attempts":   rs.SpeculativeAttempts,
			"cancelled_attempts":     rs.CancelledAttempts,
			"wasted_compute_nanos":   rs.WastedCompute.Nanoseconds(),
			"pruned_replicas":        rs.PrunedReplicas,
			"hedged_reads":           rs.HedgedReads,
			"hedge_wins":             rs.HedgeWins,
			"hedge_losses":           rs.HedgeLosses,
		},
		HeartbeatAge:          make(map[int]float64),
		Lambda:                make(map[int]float64),
		Mu:                    make(map[int]float64),
		Interruptions:         make(map[int]float64),
		NodeState:             make(map[int]float64),
		Durable:               s.Durable(),
		WALSeq:                float64(s.WALSeq()),
		WALSnapshotSeq:        float64(s.WALSnapshotSeq()),
		WALCheckpointFailures: float64(s.durable.checkpointFailures.Load()),
		Shards:                s.nn.ShardCount(),
		Tenants:               s.nn.Quotas().Snapshot(),
	}
	for _, st := range s.stores {
		if st.Up() {
			m.NodesUp++
		}
	}
	for id, age := range s.HeartbeatAges() {
		m.HeartbeatAge[int(id)] = age.Seconds()
	}
	for id, av := range s.Estimates() {
		m.Lambda[int(id)] = av.Lambda
		m.Mu[int(id)] = av.Mu
		_, n := s.nn.Heartbeat().Observed(id)
		m.Interruptions[int(id)] = float64(n)
	}
	for id, st := range s.DetectorStates() {
		m.NodeState[int(id)] = float64(st)
	}
	if adm := s.srv.Admission(); adm != nil {
		st := adm.Stats()
		m.Admission = true
		m.AdmitInflight = float64(adm.Inflight())
		m.AdmitQueue = float64(adm.QueueDepth())
		m.AdmitAdmitted = float64(st.Admitted.Load())
		m.AdmitQueued = float64(st.QueueWaits.Load())
		m.AdmitShed = float64(st.Shed())
		m.ShedQueueFull = float64(st.ShedQueueFull.Load())
		m.ShedBrownout = float64(st.ShedBrownout.Load())
		m.ShedExpired = float64(st.ShedExpired.Load())
	}
	if s.brkStats != nil {
		states, bst := s.BreakerStates()
		m.Breakers = true
		m.BreakerState = make(map[int]float64, len(states))
		for id, st := range states {
			m.BreakerState[id] = float64(st)
		}
		m.BreakerOpens = float64(bst.Opens.Load())
		m.BreakerCloses = float64(bst.Closes.Load())
		m.BreakerFastFails = float64(bst.FastFails.Load())
	}
	return m
}

// RenderMetrics writes the snapshot in Prometheus text exposition
// format (version 0.0.4): # HELP / # TYPE headers, one sample per
// line, node-scoped series labelled with node="<id>".
func RenderMetrics(m MetricsSnapshot) string {
	var b strings.Builder
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
	}
	gauge("adapt_namenode_uptime_seconds", "Seconds since the NameNode service started.", m.UptimeSeconds)
	gauge("adapt_namenode_files", "Files in the namespace.", float64(m.Files))
	gauge("adapt_namenode_blocks", "Blocks in the namespace.", float64(m.Blocks))
	gauge("adapt_namenode_datanodes_up", "DataNodes currently believed up.", float64(m.NodesUp))
	gauge("adapt_namenode_datanodes_total", "DataNodes in the cluster.", float64(m.NodesTotal))

	names := make([]string, 0, len(m.Resilience))
	for name := range m.Resilience {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		full := "adapt_dfs_" + name + "_total"
		fmt.Fprintf(&b, "# HELP %s Cumulative DFS resilience counter %s.\n# TYPE %s counter\n%s %d\n",
			full, name, full, full, m.Resilience[name])
	}

	series := func(name, help string, vals map[int]float64) {
		if len(vals) == 0 {
			return
		}
		ids := make([]int, 0, len(vals))
		for id := range vals {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		for _, id := range ids {
			fmt.Fprintf(&b, "%s{node=\"%d\"} %g\n", name, id, vals[id])
		}
	}
	series("adapt_namenode_heartbeat_age_seconds", "Age of the freshest heartbeat per DataNode.", m.HeartbeatAge)
	series("adapt_namenode_lambda", "Estimated interruption rate lambda per DataNode (1/s).", m.Lambda)
	series("adapt_namenode_mu", "Estimated mean downtime mu per DataNode (s).", m.Mu)
	series("adapt_namenode_interruptions_observed", "Interruptions (restarts and long silences) the NameNode observed per DataNode.", m.Interruptions)
	series("adapt_namenode_datanode_state", "Failure-detector belief per DataNode (0 alive, 1 suspect, 2 dead).", m.NodeState)
	if m.Durable {
		gauge("adapt_namenode_wal_seq", "Last committed WAL record sequence (summed across shard journals).", m.WALSeq)
		gauge("adapt_namenode_wal_snapshot_seq", "WAL sequence covered by namespace snapshots (summed across shard journals).", m.WALSnapshotSeq)
		counter("adapt_namenode_wal_checkpoint_failures_total", "Cadence checkpoints that failed (each leaves its shard's log growing until one succeeds).", m.WALCheckpointFailures)
	}
	if m.Shards > 0 {
		gauge("adapt_namenode_shards", "Namespace shard count.", float64(m.Shards))
	}
	if len(m.Tenants) > 0 {
		tenantSeries := func(name, help string, val func(shard.TenantUsage) float64) {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
			for _, tu := range m.Tenants {
				fmt.Fprintf(&b, "%s{tenant=%q} %g\n", name, tu.Tenant, val(tu))
			}
		}
		tenantSeries("adapt_namenode_tenant_files", "Files charged to a tenant.",
			func(tu shard.TenantUsage) float64 { return float64(tu.Usage.Files) })
		tenantSeries("adapt_namenode_tenant_bytes", "Logical bytes charged to a tenant.",
			func(tu shard.TenantUsage) float64 { return float64(tu.Usage.Bytes) })
		tenantSeries("adapt_namenode_tenant_max_files", "Tenant file quota (0 = unlimited).",
			func(tu shard.TenantUsage) float64 { return float64(tu.Quota.MaxFiles) })
		tenantSeries("adapt_namenode_tenant_max_bytes", "Tenant byte quota (0 = unlimited).",
			func(tu shard.TenantUsage) float64 { return float64(tu.Quota.MaxBytes) })
	}
	if m.Admission {
		gauge("adapt_namenode_admission_inflight", "RPCs currently holding admission slots.", m.AdmitInflight)
		gauge("adapt_namenode_admission_queue_depth", "RPCs waiting in the bounded admission queue.", m.AdmitQueue)
		counter("adapt_namenode_admission_admitted_total", "RPCs admitted past admission control.", m.AdmitAdmitted)
		counter("adapt_namenode_admission_queue_waits_total", "RPCs that waited in the admission queue before admission.", m.AdmitQueued)
		counter("adapt_namenode_admission_shed_total", "RPCs shed by admission control (all causes).", m.AdmitShed)
		counter("adapt_namenode_admission_shed_queue_full_total", "RPCs shed because the admission queue was full.", m.ShedQueueFull)
		counter("adapt_namenode_admission_shed_brownout_total", "Background RPCs shed by brownout degradation.", m.ShedBrownout)
		counter("adapt_namenode_admission_shed_expired_total", "Queued RPCs shed when their deadline budget expired.", m.ShedExpired)
	}
	if m.Breakers {
		series("adapt_namenode_breaker_state", "Circuit-breaker state per DataNode proxy (0 closed, 1 open, 2 half-open).", m.BreakerState)
		counter("adapt_namenode_breaker_opens_total", "Circuit-breaker transitions to open.", m.BreakerOpens)
		counter("adapt_namenode_breaker_closes_total", "Circuit-breaker recoveries to closed.", m.BreakerCloses)
		counter("adapt_namenode_breaker_fast_fails_total", "Calls fast-failed by an open circuit breaker.", m.BreakerFastFails)
	}
	return b.String()
}

// ServeHTTP exposes /metrics (Prometheus text) and /healthz on the
// NameNode, so the service plugs into standard scrapers and probes, and
// the runtime profiles under /debug/pprof/, so what a running cluster
// spends its CPU and memory on can be read without a rebuild.
func (s *NameNodeServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/metrics":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = fmt.Fprint(w, RenderMetrics(s.snapshotMetrics()))
	case "/healthz":
		w.Header().Set("Content-Type", "application/json")
		heartbeating := len(s.HeartbeatAges())
		_, _ = fmt.Fprintf(w, `{"status":"ok","datanodes":%d,"heartbeating":%d}`+"\n", len(s.stores), heartbeating)
	default:
		if name, ok := strings.CutPrefix(r.URL.Path, "/debug/pprof/"); ok {
			servePprof(w, r, name)
			return
		}
		http.NotFound(w, r)
	}
}

// servePprof dispatches to net/http/pprof's handlers from this handler
// rather than through http.DefaultServeMux, where importing the package
// also registers them and which nothing here serves. Index answers the
// listing and every named runtime profile (heap, goroutine, allocs, …).
func servePprof(w http.ResponseWriter, r *http.Request, name string) {
	switch name {
	case "cmdline":
		pprof.Cmdline(w, r)
	case "profile":
		pprof.Profile(w, r)
	case "symbol":
		pprof.Symbol(w, r)
	case "trace":
		pprof.Trace(w, r)
	default:
		pprof.Index(w, r)
	}
}

// ListenHTTP binds the observability endpoint and serves it until the
// returned shutdown function is called.
func (s *NameNodeServer) ListenHTTP(addr string) (string, func(context.Context) error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("svc: listen http %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Shutdown, nil
}
