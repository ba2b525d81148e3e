package svc

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// slowToDataNodes delays every message the NameNode sends a DataNode,
// once armed, and nothing else: the NameNode's own byte movement is
// slow, while heartbeats and client traffic run at loopback speed.
// started is closed when the first delayed message leaves.
type slowToDataNodes struct {
	delay   time.Duration
	armed   atomic.Bool
	once    sync.Once
	started chan struct{}
}

func (f *slowToDataNodes) FailMessage(from, to string) error { return nil }

func (f *slowToDataNodes) MessageDelay(from, to string) time.Duration {
	if !f.armed.Load() || from != "namenode" || !strings.HasPrefix(to, "datanode-") {
		return 0
	}
	f.once.Do(func() { close(f.started) })
	return f.delay
}

// TestFoldNeverQueuesBehindByteMovement: an nn.consistency whose
// replica reads are slow holds nothing a heartbeat fold waits on, so a
// DataNode's beat folds, and a second client's put is placed and
// published, while the check is still moving bytes. A lock that a fold
// takes exclusively and a check holds shared would park the fold behind
// the check and every later allocate behind the fold.
func TestFoldNeverQueuesBehindByteMovement(t *testing.T) {
	faults := &slowToDataNodes{delay: 150 * time.Millisecond, started: make(chan struct{})}
	lc := pipelineCluster(t, 4, 1024, 2, faults)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	checker, writer := lc.Client("shell-check"), lc.Client("shell-put")
	defer checker.Close()
	defer writer.Close()
	if _, _, err := checker.CopyFromLocal(ctx, "src", payload(2*1024), false); err != nil {
		t.Fatal(err)
	}
	// Give node 0 an up span and a restart, so its beat during the
	// check counts an interruption and publishes a new availability
	// snapshot.
	for i := 0; i < 2; i++ {
		if err := lc.DNs[0].FlushHeartbeat(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := lc.SetNodeUp(0, false); err != nil {
		t.Fatal(err)
	}
	if err := lc.SetNodeUp(0, true); err != nil {
		t.Fatal(err)
	}

	faults.armed.Store(true)
	checkDone := make(chan error, 1)
	go func() { checkDone <- checker.CheckConsistency(ctx) }()
	select {
	case <-faults.started:
	case err := <-checkDone:
		t.Fatalf("the check finished without reading a replica: %v", err)
	}

	beatDone := make(chan error, 1)
	go func() { beatDone <- lc.DNs[0].FlushHeartbeat(ctx) }()
	// Let the beat reach the fold; a fold that waits on the check is then
	// queued ahead of the put.
	select {
	case err := <-beatDone:
		beatDone <- err
	case <-time.After(100 * time.Millisecond):
	}

	if _, _, err := writer.CopyFromLocal(ctx, "one-byte", []byte{7}, true); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-checkDone:
		t.Fatalf("the put returned after the check (check err %v): placement queued behind byte movement", err)
	default:
	}
	if err := <-beatDone; err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-checkDone:
		t.Fatalf("the heartbeat returned after the check (check err %v): the fold queued behind byte movement", err)
	default:
	}
	if err := <-checkDone; err != nil {
		t.Fatal(err)
	}
	if _, n := lc.Engine().Heartbeat().Observed(0); n != 1 {
		t.Fatalf("node 0's beat was not folded: %d interruptions observed, want 1", n)
	}
}
