package dfs

import (
	"context"
	"hash/crc32"
	"math/rand/v2"
	"testing"
)

// TestCombineChecksumMatchesUpdate: folding B's sum onto A's gives what
// summing on through B's bytes does, over random splits of random
// bytes, empty parts and odd tails included.
func TestCombineChecksumMatchesUpdate(t *testing.T) {
	g := rand.New(rand.NewPCG(1, 2))
	buf := make([]byte, 3*ChunkSize+7)
	for i := range buf {
		buf[i] = byte(g.Uint32())
	}
	lens := []int{0, 1, 2, 3, 7, 8, 63, 64, 65, 4095, ChunkSize - 1, ChunkSize, ChunkSize + 1, len(buf)}
	for range 200 {
		lens = append(lens, g.IntN(len(buf)+1))
	}
	for _, n := range lens {
		data := buf[:n]
		for _, cut := range []int{0, n / 2, n, g.IntN(n + 1)} {
			a, b := data[:cut], data[cut:]
			want := crc32.Update(Checksum(a), crcTable, b)
			if got := CombineChecksum(Checksum(a), Checksum(b), int64(len(b))); got != want {
				t.Fatalf("combine(%d bytes, %d bytes) = %#x, want %#x", len(a), len(b), got, want)
			}
			if want != Checksum(data) {
				t.Fatalf("Update over a %d/%d split = %#x, want %#x", len(a), len(b), want, Checksum(data))
			}
		}
	}
}

// TestChunkSumsFoldToTheBlockSum: a replica's chunk sums cover its
// bytes on the ChunkSize grid, at least one chunk for an empty block,
// and fold to the sum of the whole.
func TestChunkSumsFoldToTheBlockSum(t *testing.T) {
	g := rand.New(rand.NewPCG(3, 4))
	for _, n := range []int{0, 1, ChunkSize - 1, ChunkSize, ChunkSize + 1, 4*ChunkSize + 3} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(g.Uint32())
		}
		sums := appendChunkSums(nil, data)
		if want := max(1, (n+ChunkSize-1)/ChunkSize); len(sums) != want {
			t.Fatalf("%d bytes: %d chunk sums, want %d", n, len(sums), want)
		}
		covered := 0
		for _, cs := range sums {
			covered += int(cs.Len)
		}
		if covered != n {
			t.Fatalf("%d bytes: chunk sums cover %d", n, covered)
		}
		if got := foldChunkSums(sums); got != Checksum(data) {
			t.Fatalf("%d bytes: folded sum %#x, want %#x", n, got, Checksum(data))
		}
	}
}

// TestInProcessReplicasKeepTheBlockSum: every replica of an in-process
// RF 3 write, the first summed on the grid and the later ones stored
// under its sum, holds sums that cover its bytes and fold to what the
// bytes sum to and to BlockMeta.Checksum.
func TestInProcessReplicasKeepTheBlockSum(t *testing.T) {
	nn, cl := testClient(t, 8, 3*ChunkSize)
	cl.Replication = 3
	data := payload(7*ChunkSize + 5) // two whole blocks and a short tail
	fm, _, err := cl.CopyFromLocalReportContext(context.Background(), "/f", data, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, bm := range fm.Blocks {
		if len(bm.Replicas) != 3 {
			t.Fatalf("block %d: %d replicas, want 3", bm.Index, len(bm.Replicas))
		}
		for _, h := range bm.Replicas {
			dn, err := nn.DataNode(h)
			if err != nil {
				t.Fatal(err)
			}
			stored, sums, release, err := dn.View(bm.ID)
			if err != nil {
				t.Fatal(err)
			}
			covered := 0
			for _, cs := range sums {
				covered += int(cs.Len)
			}
			folded, sum := foldChunkSums(sums), Checksum(stored)
			release()
			if covered != len(stored) || folded != sum || sum != bm.Checksum {
				t.Fatalf("block %d on node %d: sums cover %d of %d bytes and fold to %#x; bytes sum to %#x, meta %#x",
					bm.Index, h, covered, len(stored), folded, sum, bm.Checksum)
			}
		}
	}
}
