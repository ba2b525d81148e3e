package svc

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"github.com/adaptsim/adapt/internal/chaos"
	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/stats"
)

// flipOnRead is a fault injector that flips one bit of every copy a
// DataNode reads for a get.
type flipOnRead struct{}

func (flipOnRead) FailOp(cluster.NodeID, dfs.Op, dfs.BlockID) error { return nil }

func (flipOnRead) CorruptRead(_ cluster.NodeID, _ dfs.BlockID, data []byte) []byte {
	if len(data) > 0 {
		data[len(data)/2] ^= 0x10
	}
	return data
}

// TestCorruptReplicaOverTheWire: a get whose first replica comes off
// its DataNode corrupted — by an injector's bit flip on the copy it
// serves, or by rot in the stored replica itself — returns the right
// bytes from the other replica. The catch is a checksum failure, one,
// and nothing else: the serving node stays believed up, and its
// breaker, which one transport failure would open, records none.
func TestCorruptReplicaOverTheWire(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(t *testing.T, dn *dfs.DataNode, id dfs.BlockID)
	}{
		{"injected bit flip", func(t *testing.T, dn *dfs.DataNode, _ dfs.BlockID) {
			dn.SetFaults(flipOnRead{})
		}},
		{"bit rot in store", func(t *testing.T, dn *dfs.DataNode, id dfs.BlockID) {
			// Rot writes the stored bytes behind the store's back, as
			// nothing else may.
			data, _, release, err := dn.View(id)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/3] ^= 0x01
			release()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := cluster.New(make([]cluster.Node, 4))
			if err != nil {
				t.Fatal(err)
			}
			lc, err := StartLocalCluster(c, stats.NewRNG(7), nil, NameNodeConfig{
				BlockSize:   2 * DefaultChunkSize,
				Replication: 2,
				Breaker:     BreakerConfig{Threshold: 1, Cooldown: time.Minute},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				_ = lc.Close(ctx)
			})
			cl := lc.Client("shell")
			defer cl.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()

			data := payload(DefaultChunkSize + 1000) // one block of two chunks
			fm, _, err := cl.CopyFromLocal(ctx, "f", data, false)
			if err != nil {
				t.Fatal(err)
			}
			if len(fm.Blocks) != 1 || len(fm.Blocks[0].Replicas) != 2 {
				t.Fatalf("block map %+v, want one block on two nodes", fm.Blocks)
			}
			first := fm.Blocks[0].Replicas[0]
			tc.corrupt(t, lc.DNs[first].Node(), fm.Blocks[0].ID)

			before := cl.resilience()
			if got, err := cl.ReadFile(ctx, "f"); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("read past a corrupt replica: %d bytes, %v", len(got), err)
			}
			after := cl.resilience()
			if n := after.ChecksumFailures - before.ChecksumFailures; n != 1 {
				t.Fatalf("%d checksum failures, want 1", n)
			}
			if n := after.NodeDownErrors - before.NodeDownErrors; n != 0 {
				t.Fatalf("a corrupt replica counted %d node-down errors", n)
			}
			if !cl.data.stores[first].Up() {
				t.Fatal("the node that served a corrupt replica is believed down")
			}
			cl.data.stores[first].brk.mu.Lock()
			fails := cl.data.stores[first].brk.fails
			cl.data.stores[first].brk.mu.Unlock()
			if opens := cl.breakerStats().Opens.Load(); fails != 0 || opens != 0 {
				t.Fatalf("the serving node's breaker recorded %d failures and %d opens", fails, opens)
			}
		})
	}
}

// TestCheckConsistencyPartitionedHolderIsNoLoss: fsck that cannot reach
// a holder has no verdict on its replica. With one holder of a file
// partitioned, CheckConsistency fails transiently, never with
// ErrInconsistent, and once the partition heals it passes.
func TestCheckConsistencyPartitionedHolderIsNoLoss(t *testing.T) {
	nf, err := chaos.NewNetFaults(stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	lc := pipelineCluster(t, 4, 1024, 2, nf)
	cl := lc.Client("shell")
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	fm, _, err := cl.CopyFromLocal(ctx, "f", payload(3*1024), false)
	if err != nil {
		t.Fatal(err)
	}
	holder := endpointName(fm.Blocks[0].Replicas[0])
	nf.Partition(holder)
	err = cl.CheckConsistency(ctx)
	if errors.Is(err, dfs.ErrInconsistent) {
		t.Fatalf("fsck across a partition reports a lost block: %v", err)
	}
	if !dfs.IsTransient(err) {
		t.Fatalf("fsck across a partition = %v, want a transient error", err)
	}
	nf.Heal(holder)
	if err := cl.CheckConsistency(ctx); err != nil {
		t.Fatalf("fsck after the heal: %v", err)
	}
}
