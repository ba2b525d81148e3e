package dfs

import (
	"context"
	"fmt"
	"testing"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/stats"
)

// BenchmarkInProcessPut writes one 4 MiB file in 1 MiB blocks at RF 3
// through the in-process client and deletes it; putget reads it back
// too.
func BenchmarkInProcessPut(b *testing.B) {
	for _, get := range []bool{false, true} {
		name := "put"
		if get {
			name = "putget"
		}
		b.Run(name, func(b *testing.B) {
			c, err := cluster.NewEmulation(cluster.EmulationConfig{Nodes: 8}, nil)
			if err != nil {
				b.Fatal(err)
			}
			nn, err := NewNameNode(c)
			if err != nil {
				b.Fatal(err)
			}
			cl, err := NewClient(nn, stats.NewRNG(7))
			if err != nil {
				b.Fatal(err)
			}
			cl.BlockSize, cl.Replication = 1<<20, 3
			data := payload(4 << 20)
			ctx := context.Background()
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := range b.N {
				name := fmt.Sprintf("/f%d", i)
				if _, _, err := cl.CopyFromLocalReportContext(ctx, name, data, false); err != nil {
					b.Fatal(err)
				}
				if get {
					if _, err := cl.ReadFileContext(ctx, name); err != nil {
						b.Fatal(err)
					}
				}
				if err := nn.DeleteContext(ctx, name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
