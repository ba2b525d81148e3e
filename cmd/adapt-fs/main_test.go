package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/stats"
	"github.com/adaptsim/adapt/internal/svc"
)

func TestRunDefaultDemo(t *testing.T) {
	if err := run([]string{"-nodes", "16", "-blocks-per-node", "5"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithReplication(t *testing.T) {
	if err := run([]string{"-nodes", "12", "-blocks-per-node", "4", "-replicas", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunChaosDemo(t *testing.T) {
	err := run([]string{
		"-chaos", "-nodes", "16", "-blocks-per-node", "4",
		"-replicas", "3", "-chaos-events", "400",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestLocalDemoSubcommand(t *testing.T) {
	if err := runService("local-demo", []string{"-nodes", "4", "-blocks", "6"}); err != nil {
		t.Fatal(err)
	}
}

// TestFsckVerb proves the fsck exit-code contract against a live
// loopback cluster: 0 while fully replicated, 1 once a replica
// holder is believed dead, back to 0 after repair — and the stdout
// payload is a decodable dfs.HealthReport at every step.
func TestFsckVerb(t *testing.T) {
	c, err := cluster.New(make([]cluster.Node, 4))
	if err != nil {
		t.Fatal(err)
	}
	lc, err := svc.StartLocalCluster(c, stats.NewRNG(7), nil, svc.NameNodeConfig{
		BlockSize:   512,
		Replication: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	t.Cleanup(func() { _ = lc.Close(ctx) })

	cl := lc.Client("shell")
	defer cl.Close()
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 31)
	}
	if _, _, err := cl.CopyFromLocal(ctx, "f", data, false); err != nil {
		t.Fatal(err)
	}

	addr := lc.NN.Addr()
	check := func(wantCode int) dfs.HealthReport {
		t.Helper()
		var out bytes.Buffer
		code, err := runFsck([]string{"-namenode", addr}, &out)
		if err != nil {
			t.Fatalf("fsck: %v", err)
		}
		if code != wantCode {
			t.Fatalf("fsck exit code = %d, want %d (output: %s)", code, wantCode, out.String())
		}
		var rep dfs.HealthReport
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
			t.Fatalf("fsck output is not JSON: %v\n%s", err, out.String())
		}
		return rep
	}

	rep := check(0)
	if rep.Files != 1 || rep.UnderReplicated != 0 || rep.Unavailable != 0 {
		t.Fatalf("healthy report wrong: %+v", rep)
	}

	// A replica holder goes down (by the NameNode's belief): exit 1.
	counts, err := cl.BlockDistribution(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	victim := -1
	for id, n := range counts {
		if n > 0 {
			victim = id
			break
		}
	}
	if err := lc.Engine().SetNodeUp(cluster.NodeID(victim), false); err != nil {
		t.Fatal(err)
	}
	rep = check(1)
	if rep.UnderReplicated == 0 || rep.Unavailable != 0 {
		t.Fatalf("degraded report wrong: %+v", rep)
	}

	// One repair scan heals it: exit 0 again.
	lc.NN.RepairScan()
	check(0)

	// Bad flags surface as errors, not exit codes.
	if _, err := runFsck([]string{"-bogus"}, &bytes.Buffer{}); err == nil {
		t.Fatal("bad fsck flag accepted")
	}
}

func TestServiceHelpAndUnknown(t *testing.T) {
	if err := runService("help", nil); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cmd  string
		args []string
		want string
	}{
		{"bogus", nil, "unknown subcommand"},
		// The JSON block transport is gone, and its selector with it.
		{"serve-namenode", []string{"-data-path", "json"}, "flag provided but not defined: -data-path"},
		// Refused before the DataNode listens, not a ticker panic in
		// the heartbeat loop of a node already serving.
		{"serve-datanode", []string{"-listen", "127.0.0.1:0", "-heartbeat", "0"}, "-heartbeat must be positive"},
		{"serve-datanode", []string{"-listen", "127.0.0.1:0", "-heartbeat", "-1s"}, "-heartbeat must be positive"},
	} {
		if err := runService(tc.cmd, tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s %v: err = %v, want %q", tc.cmd, tc.args, err, tc.want)
		}
	}
}
