package mapreduce

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/stats"
)

func newEngine(t *testing.T, nodes int, ratio float64) (*dfs.NameNode, *dfs.Client, *Engine) {
	t.Helper()
	c, err := cluster.NewEmulation(cluster.EmulationConfig{Nodes: nodes, InterruptedRatio: ratio}, nil)
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
	eng, err := NewEngine(nn, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return nn, cl, eng
}

// identityJob passes lines through keyed by themselves.
func identityJob(input, output string, reducers int) Job {
	return Job{
		Name:   "identity",
		Input:  input,
		Output: output,
		Mapper: MapperFunc(func(block []byte, emit func(string, []byte)) error {
			for _, line := range bytes.Split(block, []byte{'\n'}) {
				if len(line) > 0 {
					emit(string(line), nil)
				}
			}
			return nil
		}),
		Reducers: reducers,
	}
}

func TestMapOnlyJob(t *testing.T) {
	_, cl, eng := newEngine(t, 4, 0)
	// 8-byte lines, block size 64 → boundaries align.
	var in bytes.Buffer
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&in, "line%03d\n", i)
	}
	cl.BlockSize = 64
	if _, _, err := cl.CopyFromLocalReportContext(context.Background(), "in", in.Bytes(), false); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(identityJob("in", "out", 2), stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.MapOutputRecords != 64 || res.OutputRecords != 64 {
		t.Fatalf("records: map=%d out=%d", res.MapOutputRecords, res.OutputRecords)
	}
	if len(res.OutputFiles) != 2 {
		t.Fatalf("output files: %v", res.OutputFiles)
	}
	// All lines present across parts.
	seen := map[string]bool{}
	for _, f := range res.OutputFiles {
		data, err := cl.ReadFileContext(context.Background(), f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			if len(line) == 0 {
				continue
			}
			seen[strings.TrimSuffix(string(line), "\t")] = true
		}
	}
	if len(seen) != 64 {
		t.Fatalf("distinct output lines = %d, want 64", len(seen))
	}
	if res.Map.Elapsed <= 0 || res.TotalElapsed < res.Map.Elapsed {
		t.Fatalf("timing: %+v", res)
	}
}

func TestReduceJobSums(t *testing.T) {
	_, cl, eng := newEngine(t, 4, 0)
	// Data: "a a b a b c" style with aligned 2-byte tokens.
	data := bytes.Repeat([]byte("a b a c "), 32) // 256 bytes
	cl.BlockSize = 64
	if _, _, err := cl.CopyFromLocalReportContext(context.Background(), "in", data, false); err != nil {
		t.Fatal(err)
	}
	job := Job{
		Name:   "count",
		Input:  "in",
		Output: "out",
		Mapper: MapperFunc(func(block []byte, emit func(string, []byte)) error {
			for _, f := range strings.Fields(string(block)) {
				emit(f, []byte("1"))
			}
			return nil
		}),
		Reducer: ReducerFunc(func(key string, values [][]byte, emit func(string, []byte)) error {
			emit(key, []byte(strconv.Itoa(len(values))))
			return nil
		}),
		Reducers: 1,
	}
	res, err := eng.Run(job, stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	out, err := cl.ReadFileContext(context.Background(), res.OutputFiles[0])
	if err != nil {
		t.Fatal(err)
	}
	want := "a\t64\nb\t32\nc\t32\n"
	if string(out) != want {
		t.Fatalf("output = %q, want %q", out, want)
	}
}

func TestJobWithInterruptionsStillCorrect(t *testing.T) {
	// Half the nodes are volatile; the job must still produce exactly
	// correct output (re-execution is transparent).
	_, cl, eng := newEngine(t, 8, 0.5)
	var in bytes.Buffer
	for i := 0; i < 128; i++ {
		fmt.Fprintf(&in, "rec%04d\n", i)
	}
	cl.BlockSize = 64 // 8-byte records, 16 blocks
	if _, _, err := cl.CopyFromLocalReportContext(context.Background(), "in", in.Bytes(), true); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(identityJob("in", "out", 2), stats.NewRNG(31))
	if err != nil {
		t.Fatal(err)
	}
	if res.OutputRecords != 128 {
		t.Fatalf("records = %d, want 128", res.OutputRecords)
	}
	total := 0
	for _, f := range res.OutputFiles {
		data, err := cl.ReadFileContext(context.Background(), f)
		if err != nil {
			t.Fatal(err)
		}
		total += bytes.Count(data, []byte{'\n'})
	}
	if total != 128 {
		t.Fatalf("lines = %d, want 128", total)
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() (*Result, string) {
		_, cl, eng := newEngine(t, 8, 0.5)
		var in bytes.Buffer
		for i := 0; i < 64; i++ {
			fmt.Fprintf(&in, "rec%04d\n", i)
		}
		cl.BlockSize = 64
		if _, _, err := cl.CopyFromLocalReportContext(context.Background(), "in", in.Bytes(), false); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(identityJob("in", "out", 2), stats.NewRNG(77))
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, f := range res.OutputFiles {
			data, err := cl.ReadFileContext(context.Background(), f)
			if err != nil {
				t.Fatal(err)
			}
			sb.Write(data)
		}
		return res, sb.String()
	}
	r1, o1 := run()
	r2, o2 := run()
	if r1.Map != r2.Map || o1 != o2 {
		t.Fatal("job execution not deterministic under fixed seeds")
	}
}

func TestRunValidation(t *testing.T) {
	_, cl, eng := newEngine(t, 4, 0)
	if _, _, err := cl.CopyFromLocalReportContext(context.Background(), "in", []byte("x\n"), false); err != nil {
		t.Fatal(err)
	}
	g := stats.NewRNG(1)
	if _, err := eng.Run(Job{Input: "in", Output: "o"}, g); !errors.Is(err, ErrNilMapper) {
		t.Fatalf("err = %v", err)
	}
	job := identityJob("in", "", 1)
	if _, err := eng.Run(job, g); !errors.Is(err, ErrNoOutput) {
		t.Fatalf("err = %v", err)
	}
	job = identityJob("missing", "o", 1)
	if _, err := eng.Run(job, g); !errors.Is(err, dfs.ErrFileNotFound) {
		t.Fatalf("err = %v", err)
	}
	job = identityJob("in", "o", 1)
	if _, err := eng.Run(job, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
	if _, err := NewEngine(nil, EngineConfig{}); !errors.Is(err, ErrNilNameNode) {
		t.Fatalf("err = %v", err)
	}
}

func TestMapperErrorPropagates(t *testing.T) {
	_, cl, eng := newEngine(t, 4, 0)
	if _, _, err := cl.CopyFromLocalReportContext(context.Background(), "in", []byte("x\n"), false); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	job := Job{
		Name:   "bad",
		Input:  "in",
		Output: "o",
		Mapper: MapperFunc(func([]byte, func(string, []byte)) error { return boom }),
	}
	if _, err := eng.Run(job, stats.NewRNG(1)); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestReducerErrorPropagates(t *testing.T) {
	_, cl, eng := newEngine(t, 4, 0)
	if _, _, err := cl.CopyFromLocalReportContext(context.Background(), "in", []byte("x\n"), false); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	job := identityJob("in", "o", 1)
	job.Reducer = ReducerFunc(func(string, [][]byte, func(string, []byte)) error { return boom })
	if _, err := eng.Run(job, stats.NewRNG(1)); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestHashPartitionStableAndBounded(t *testing.T) {
	for _, key := range []string{"", "a", "hello", "世界"} {
		p1 := HashPartition(key, 7)
		p2 := HashPartition(key, 7)
		if p1 != p2 || p1 < 0 || p1 >= 7 {
			t.Fatalf("partition(%q) = %d, %d", key, p1, p2)
		}
	}
}

func TestPartitionerRouting(t *testing.T) {
	// Custom partitioner sending everything to partition 1 of 3.
	_, cl, eng := newEngine(t, 4, 0)
	if _, _, err := cl.CopyFromLocalReportContext(context.Background(), "in", []byte("a\nb\nc\n"), false); err != nil {
		t.Fatal(err)
	}
	job := identityJob("in", "out", 3)
	job.Partition = func(string, int) int { return 1 }
	res, err := eng.Run(job, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.OutputFiles[1] != "out/part-00001" {
		t.Fatalf("files = %v", res.OutputFiles)
	}
	p0, err := cl.ReadFileContext(context.Background(), res.OutputFiles[0])
	if err != nil {
		t.Fatal(err)
	}
	p1, err := cl.ReadFileContext(context.Background(), res.OutputFiles[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(p0) != 0 || len(p1) == 0 {
		t.Fatalf("routing wrong: p0=%d bytes p1=%d bytes", len(p0), len(p1))
	}
}

// liveProbe is a fault injector that records, at every read of its
// node, whether the node looked up, and then emulates the node
// rejoining while that read is in flight.
type liveProbe struct {
	dn     *dfs.DataNode
	seenUp []bool
}

func (p *liveProbe) FailOp(_ cluster.NodeID, op dfs.Op, _ dfs.BlockID) error {
	if op == dfs.OpGet {
		p.seenUp = append(p.seenUp, p.dn.Up())
		p.dn.SetUp(true)
	}
	return nil
}

func (p *liveProbe) CorruptRead(_ cluster.NodeID, _ dfs.BlockID, data []byte) []byte {
	return data
}

func TestMapReadLeavesLivenessAlone(t *testing.T) {
	// The map phase reads a down holder's stored bytes. It must neither
	// show that node as up to anyone else while it reads, nor undo a
	// rejoin that lands mid-read.
	nn, cl, eng := newEngine(t, 4, 0)
	cl.BlockSize = 64
	cl.Replication = 1
	var in bytes.Buffer
	for i := 0; i < 32; i++ {
		fmt.Fprintf(&in, "line%03d\n", i)
	}
	if _, _, err := cl.CopyFromLocalReportContext(context.Background(), "in", in.Bytes(), false); err != nil {
		t.Fatal(err)
	}
	fm, err := nn.Stat("in")
	if err != nil {
		t.Fatal(err)
	}
	dn, err := nn.DataNode(fm.Blocks[0].Replicas[0])
	if err != nil {
		t.Fatal(err)
	}
	dn.SetUp(false)
	probe := &liveProbe{dn: dn}
	dn.SetFaults(probe)

	res, err := eng.Run(identityJob("in", "out", 1), stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.MapOutputRecords != 32 {
		t.Fatalf("map records = %d, want 32", res.MapOutputRecords)
	}
	if len(probe.seenUp) == 0 {
		t.Fatal("the map phase never read the down holder")
	}
	if probe.seenUp[0] {
		t.Fatal("the down holder looked up while the map phase read it")
	}
	if !dn.Up() {
		t.Fatal("a rejoin during the map phase's read was undone")
	}
}
