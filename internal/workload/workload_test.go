package workload

import (
	"bytes"
	"context"
	"testing"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/mapreduce"
	"github.com/adaptsim/adapt/internal/stats"
)

func TestTeraGenShape(t *testing.T) {
	g := stats.NewRNG(1)
	data, err := TeraGen(50, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 50*TeraRecordLen {
		t.Fatalf("len = %d", len(data))
	}
	keys := TeraKeys(data)
	if len(keys) != 50 {
		t.Fatalf("keys = %d", len(keys))
	}
	for _, k := range keys {
		if len(k) != TeraKeyLen {
			t.Fatalf("key %q wrong length", k)
		}
	}
	// Records newline-terminated.
	if data[TeraRecordLen-1] != '\n' {
		t.Fatal("record not newline-terminated")
	}
}

func TestTeraGenDeterministic(t *testing.T) {
	a, err := TeraGen(20, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := TeraGen(20, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("teragen not deterministic")
	}
}

func TestTeraGenValidation(t *testing.T) {
	if _, err := TeraGen(-1, stats.NewRNG(1)); err == nil {
		t.Fatal("negative count accepted")
	}
	if _, err := TeraGen(1, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestRangePartitioner(t *testing.T) {
	part := RangePartitioner([]string{"g", "p"})
	cases := map[string]int{"a": 0, "f": 0, "g": 0, "h": 1, "o": 1, "p": 1, "q": 2, "z": 2}
	for key, want := range cases {
		if got := part(key, 3); got != want {
			t.Errorf("part(%q) = %d, want %d", key, got, want)
		}
	}
}

func TestSampleBoundaries(t *testing.T) {
	g := stats.NewRNG(2)
	data, err := TeraGen(500, g)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := SampleBoundaries(data, 4, 0, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 3 {
		t.Fatalf("boundaries = %v", bs)
	}
	for i := 1; i < len(bs); i++ {
		if bs[i] < bs[i-1] {
			t.Fatalf("boundaries unsorted: %v", bs)
		}
	}
	if one, err := SampleBoundaries(data, 1, 0, g); err != nil || one != nil {
		t.Fatalf("single partition: %v %v", one, err)
	}
	if _, err := SampleBoundaries(nil, 3, 0, g); err == nil {
		t.Fatal("empty data accepted")
	}
}

// End-to-end terasort on a heterogeneous cluster with interruptions:
// output must be globally sorted and complete.
func TestTeraSortEndToEnd(t *testing.T) {
	c, err := cluster.NewEmulation(cluster.EmulationConfig{Nodes: 8, InterruptedRatio: 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	nn, err := dfs.NewNameNode(c)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := dfs.NewClient(nn, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	g := stats.NewRNG(4)
	records := 400
	data, err := TeraGen(records, g)
	if err != nil {
		t.Fatal(err)
	}
	cl.BlockSize = 50 * TeraRecordLen // 8 blocks, record-aligned
	if _, _, err := cl.CopyFromLocalReportContext(context.Background(), "tera/in", data, true); err != nil {
		t.Fatal(err)
	}

	reducers := 4
	bounds, err := SampleBoundaries(data, reducers, 0, g)
	if err != nil {
		t.Fatal(err)
	}
	job, err := TeraSortJob("tera/in", "tera/out", reducers, bounds)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := mapreduce.NewEngine(nn, mapreduce.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(job, g)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([][]byte, 0, len(res.OutputFiles))
	for _, f := range res.OutputFiles {
		data, err := cl.ReadFileContext(context.Background(), f)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, data)
	}
	if err := CheckSorted(parts, records); err != nil {
		t.Fatal(err)
	}
	if res.Map.TotalTasks != 8 {
		t.Fatalf("map tasks = %d, want 8", res.Map.TotalTasks)
	}
}

func TestTeraSortJobValidation(t *testing.T) {
	if _, err := TeraSortJob("i", "o", 0, nil); err == nil {
		t.Fatal("zero reducers accepted")
	}
	if _, err := TeraSortJob("i", "o", 3, []string{"a"}); err == nil {
		t.Fatal("wrong boundary count accepted")
	}
	if _, err := TeraSortJob("i", "o", 1, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckSortedRejects(t *testing.T) {
	unsorted := [][]byte{[]byte("b\tx\na\ty\n")}
	if err := CheckSorted(unsorted, 2); err == nil {
		t.Fatal("unsorted output accepted")
	}
	short := [][]byte{[]byte("a\tx\n")}
	if err := CheckSorted(short, 2); err == nil {
		t.Fatal("short output accepted")
	}
	malformed := [][]byte{[]byte("nokey\n")}
	if err := CheckSorted(malformed, 1); err == nil {
		t.Fatal("malformed output accepted")
	}
}

func TestWordCountEndToEnd(t *testing.T) {
	c, err := cluster.NewEmulation(cluster.EmulationConfig{Nodes: 4, InterruptedRatio: 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	nn, err := dfs.NewNameNode(c)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := dfs.NewClient(nn, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	// 8-byte aligned tokens so block boundaries never split a word.
	data := bytes.Repeat([]byte("foo bar "), 64) // 512 bytes
	cl.BlockSize = 64
	if _, _, err := cl.CopyFromLocalReportContext(context.Background(), "wc/in", data, false); err != nil {
		t.Fatal(err)
	}
	eng, err := mapreduce.NewEngine(nn, mapreduce.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(WordCountJob("wc/in", "wc/out", 1), stats.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	out, err := cl.ReadFileContext(context.Background(), res.OutputFiles[0])
	if err != nil {
		t.Fatal(err)
	}
	counts, err := ParseCounts(out)
	if err != nil {
		t.Fatal(err)
	}
	if counts["foo"] != 64 || counts["bar"] != 64 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestParseCountsMalformed(t *testing.T) {
	if _, err := ParseCounts([]byte("bad-line\n")); err == nil {
		t.Fatal("malformed accepted")
	}
	if _, err := ParseCounts([]byte("a\tnotanumber\n")); err == nil {
		t.Fatal("non-numeric accepted")
	}
}
