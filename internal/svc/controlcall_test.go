package svc

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/adaptsim/adapt/internal/dfs"
)

// BenchmarkControlCall times one loopback round trip of each control
// call a small put and get make — nn.allocate, nn.complete, nn.stat and
// nn.locate — through the client's NameNode channel: the call frame's
// encoding, the server's decode, dispatch and reply, and the result's
// decode. Every allocation is published by an nn.complete, the
// allocate round's with the timer stopped after each 64, so the lease
// table stays the size a steady workload keeps, and nn.stat and
// nn.locate ask after a one-block 4 KiB file.
func BenchmarkControlCall(b *testing.B) {
	ctx, _, cl, data := benchClient(b, NameNodeConfig{}, 4<<10)
	if _, _, err := cl.CopyFromLocal(ctx, "/f", data, true); err != nil {
		b.Fatal(err)
	}
	// allocate leases a 4 KiB file under a name no earlier call used and
	// returns the nn.complete that publishes it.
	seq := 0
	allocate := func() (completeParams, error) {
		seq++
		p := completeParams{Name: fmt.Sprintf("/c%d", seq)}
		var res allocateResult
		err := cl.call(ctx, "nn.allocate", allocateParams{Name: p.Name, Size: 4 << 10, Adapt: true}, &res)
		for j, ab := range res.Alloc.Blocks {
			p.Blocks = append(p.Blocks, dfs.BlockMeta{ID: ab.ID, File: p.Name, Index: j, Size: 4 << 10, Replicas: ab.Holders})
		}
		return p, err
	}
	complete := func(p completeParams) error {
		var fm dfs.FileMeta
		return cl.call(ctx, "nn.complete", p, (*fileMeta)(&fm))
	}
	run := func(b *testing.B, op func() error) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := op(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("allocate", func(b *testing.B) {
		var open []completeParams
		run(b, func() error {
			p, err := allocate()
			if open = append(open, p); len(open) == 64 {
				b.StopTimer()
				for _, p := range open {
					if err := complete(p); err != nil {
						b.Fatal(err)
					}
				}
				open = open[:0]
				b.StartTimer()
			}
			return err
		})
	})
	b.Run("complete", func(b *testing.B) {
		open := make([]completeParams, b.N)
		for i := range open {
			var err error
			if open[i], err = allocate(); err != nil {
				b.Fatal(err)
			}
		}
		i := 0
		run(b, func() error {
			i++
			return complete(open[i-1])
		})
	})
	b.Run("stat", func(b *testing.B) {
		run(b, func() error {
			var fm dfs.FileMeta
			return cl.call(ctx, "nn.stat", nameParams{Name: "/f"}, (*fileMeta)(&fm))
		})
	})
	b.Run("locate", func(b *testing.B) {
		run(b, func() error {
			var res locateResult
			return cl.call(ctx, "nn.locate", nameParams{Name: "/f"}, &res)
		})
	})
}

// statAllocs bounds what one Client.Stat of a one-block file
// allocates, both ends of the loopback call counted: the call frame and
// its params, the server's read, dispatch and reply, and the client's
// read and decode of the result. The binary codecs measure 32 (go1.24,
// linux/amd64) and the JSON values they replaced 43; the two allocations
// of slack absorb a runtime that moves one elsewhere in the process.
const statAllocs = 34

// TestControlCallAllocs pins the allocations of a Client.Stat round
// trip, a ratchet on the control path's codec and transport.
func TestControlCallAllocs(t *testing.T) {
	lc := testCluster(t, 3, nil)
	cl := lc.Client("shell")
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, _, err := cl.CopyFromLocal(ctx, "/f", payload(1000), false); err != nil {
		t.Fatal(err)
	}
	var err error
	stat := func() { _, err = cl.Stat(ctx, "/f") }
	stat() // parks the NameNode connection
	// The malloc counter is the process's, and goroutines an earlier
	// test left winding down may add to it: a count over the pin is
	// taken again, and the least of three is the call's own.
	got := testing.AllocsPerRun(200, stat)
	for try := 1; try < 3 && got > statAllocs; try++ {
		got = min(got, testing.AllocsPerRun(200, stat))
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Client.Stat: %.0f allocations", got)
	if got > statAllocs {
		t.Fatalf("Client.Stat allocates %.0f times, want at most %d", got, statAllocs)
	}
}
