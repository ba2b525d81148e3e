package svc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/stats"
)

// TestPinnedReadsNeverMix streams one block to several readers at once
// while a writer deletes it and re-puts it with other bytes, again and
// again, through the node's own write path: each re-put draws its
// replica from the pool, where a deleted replica's buffer goes once its
// readers release it. Every read must return the old bytes whole or the
// new bytes whole, or find no block; a buffer recycled under a stream
// still serving it shows as a mix or as a chunk that fails its CRC.
func TestPinnedReadsNeverMix(t *testing.T) {
	const (
		id      = dfs.BlockID(7)
		size    = 1 << 20 // four chunks, and an exact pool class
		readers = 4
		reputs  = 100
	)
	dn := NewDataNodeServer(0, nil)
	if err := dn.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	stores, _, _ := newStoreFleet([]string{dn.Addr()}, "writer", nil, BreakerConfig{}, nil)
	st := stores[0]
	defer st.close()

	var versions [2][]byte
	for v := range versions {
		versions[v] = make([]byte, size)
		for i := range versions[v] {
			versions[v][i] = byte(i>>8) ^ byte(0x5a*v)
		}
	}

	done := make(chan struct{})
	var reads, missed atomic.Int64
	var wg sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &streamPool{local: fmt.Sprintf("reader-%d", r)}
			defer p.close()
			for {
				select {
				case <-done:
					return
				default:
				}
				got, err := p.streamGet(ctx, dn.Addr(), endpointName(0), id, nil)
				switch {
				case errors.Is(err, dfs.ErrBlockNotFound):
					missed.Add(1)
				case err != nil:
					t.Errorf("reader %d: %v", r, err)
					return
				case !bytes.Equal(got.Data, versions[0]) && !bytes.Equal(got.Data, versions[1]):
					t.Errorf("reader %d read %d bytes that are neither version whole", r, len(got.Data))
					return
				default:
					reads.Add(1)
				}
			}
		}()
	}
	for i := range reputs {
		if res := st.PutChain(ctx, id, versions[i%2], nil); len(res.Failed) != 0 {
			t.Errorf("put %d: %v", i, res.Failed)
			break
		}
		// Let the readers open streams on this version before it goes.
		time.Sleep(time.Millisecond)
		if err := st.Delete(ctx, id); err != nil {
			t.Errorf("delete %d: %v", i, err)
			break
		}
	}
	close(done)
	wg.Wait()
	t.Logf("%d reads returned a whole block, %d found none", reads.Load(), missed.Load())
	if reads.Load() == 0 {
		t.Error("no read returned a whole block")
	}
	if err := dn.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if n := dn.Node().Pins(); n != 0 {
		t.Fatalf("%d pins outstanding once the readers are done and the node stopped", n)
	}
}

// TestReplicaPinsBalanceAfterClose: after puts, gets and deletes
// through a LocalCluster — hedged reads on, with a threshold low enough
// that backups fire and lose, so read streams end abandoned too — and
// Close, no DataNode holds a pin: every reader released its own, and
// Stop dropped the store's.
func TestReplicaPinsBalanceAfterClose(t *testing.T) {
	c, err := cluster.New(make([]cluster.Node, 4))
	if err != nil {
		t.Fatal(err)
	}
	cfg := NameNodeConfig{
		BlockSize: 4 << 10, Replication: 3, HedgeReads: true,
		Hedge: HedgeConfig{Quantile: 0.05, Multiplier: 1, MinDelay: time.Microsecond, MinSamples: 1},
	}
	lc, err := StartLocalCluster(c, stats.NewRNG(3), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cl := lc.Client("shell")
	for i := range 12 {
		name := fmt.Sprintf("f%d", i)
		data := payload(10<<10 + i) // two whole blocks and a short tail
		if _, _, err := cl.CopyFromLocal(ctx, name, data, false); err != nil {
			t.Fatal(err)
		}
		got, err := cl.ReadFile(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s reads back different bytes", name)
		}
		if i%2 == 0 {
			if err := cl.Delete(ctx, name); err != nil {
				t.Fatal(err)
			}
		}
	}
	cl.Close()
	if err := lc.Close(ctx); err != nil {
		t.Fatal(err)
	}
	for _, dn := range lc.DNs {
		if n := dn.Node().Pins(); n != 0 {
			t.Errorf("datanode %d: %d pins outstanding after Close", dn.id, n)
		}
	}
}
