package svc

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/stats"
)

// TestRenderMetricsExpositionFormat pins the Prometheus text format
// from a synthetic snapshot: HELP/TYPE headers, stable counter
// ordering, and node-labelled gauge series.
func TestRenderMetricsExpositionFormat(t *testing.T) {
	out := RenderMetrics(MetricsSnapshot{
		UptimeSeconds: 12.5,
		Files:         3,
		Blocks:        24,
		NodesUp:       2,
		NodesTotal:    3,
		Resilience: map[string]int64{
			"read_retries":   7,
			"read_failovers": 2,
		},
		HeartbeatAge: map[int]float64{1: 0.25, 0: 1.5},
		Lambda:       map[int]float64{0: 0.1},
		Mu:           map[int]float64{0: 4},
	})

	for _, want := range []string{
		"# HELP adapt_namenode_uptime_seconds ",
		"# TYPE adapt_namenode_uptime_seconds gauge\nadapt_namenode_uptime_seconds 12.5\n",
		"adapt_namenode_files 3\n",
		"adapt_namenode_blocks 24\n",
		"adapt_namenode_datanodes_up 2\n",
		"adapt_namenode_datanodes_total 3\n",
		"# TYPE adapt_dfs_read_retries_total counter\nadapt_dfs_read_retries_total 7\n",
		"adapt_dfs_read_failovers_total 2\n",
		"adapt_namenode_heartbeat_age_seconds{node=\"0\"} 1.5\n",
		"adapt_namenode_heartbeat_age_seconds{node=\"1\"} 0.25\n",
		"adapt_namenode_lambda{node=\"0\"} 0.1\n",
		"adapt_namenode_mu{node=\"0\"} 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
	// Counters sort alphabetically for a stable scrape diff.
	if strings.Index(out, "read_failovers_total") > strings.Index(out, "read_retries_total") {
		t.Error("counters not sorted")
	}
	// Every line must be a comment or a sample (format sanity).
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

// TestMetricsAndHealthzOverHTTP scrapes a live NameNode.
func TestMetricsAndHealthzOverHTTP(t *testing.T) {
	c, err := cluster.New(make([]cluster.Node, 3))
	if err != nil {
		t.Fatal(err)
	}
	lc, err := StartLocalCluster(c, stats.NewRNG(17), nil, NameNodeConfig{BlockSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = lc.Close(ctx)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	cl := lc.Client("shell")
	defer cl.Close()
	if _, _, err := cl.CopyFromLocal(ctx, "f", make([]byte, 4096), false); err != nil {
		t.Fatal(err)
	}
	if err := lc.FlushHeartbeats(ctx); err != nil {
		t.Fatal(err)
	}
	// Node 0 restarts: the next beats count one interruption for it
	// and plain uptime for the others.
	if err := lc.SetNodeUp(0, false); err != nil {
		t.Fatal(err)
	}
	if err := lc.SetNodeUp(0, true); err != nil {
		t.Fatal(err)
	}
	if err := lc.FlushHeartbeats(ctx); err != nil {
		t.Fatal(err)
	}

	addr, stop, err := lc.NN.ListenHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = stop(ctx) }()

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content-type %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"adapt_namenode_files 1\n",
		"adapt_namenode_blocks 4\n",
		"adapt_namenode_datanodes_total 3\n",
		"adapt_namenode_heartbeat_age_seconds{node=\"0\"}",
		"adapt_namenode_interruptions_observed{node=\"0\"} 1\n",
		"adapt_namenode_interruptions_observed{node=\"1\"} 0\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q\n---\n%s", want, text)
		}
	}

	hresp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, err := io.ReadAll(hresp.Body)
	_ = hresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status       string `json:"status"`
		DataNodes    int    `json:"datanodes"`
		Heartbeating int    `json:"heartbeating"`
	}
	if err := json.Unmarshal(hbody, &health); err != nil {
		t.Fatalf("healthz not JSON: %v (%q)", err, hbody)
	}
	if health.Status != "ok" || health.DataNodes != 3 || health.Heartbeating != 3 {
		t.Fatalf("healthz = %+v", health)
	}

	for path, want := range map[string]int{
		"/debug/pprof/":                  http.StatusOK,
		"/debug/pprof/goroutine?debug=1": http.StatusOK,
		"/debug/pprof/cmdline":           http.StatusOK,
		"/debug/pprof/no-such-profile":   http.StatusNotFound,
		"/debug/nothing":                 http.StatusNotFound,
	} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: %d, want %d", path, resp.StatusCode, want)
		}
	}
}
