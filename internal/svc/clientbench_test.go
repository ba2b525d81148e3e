package svc

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/stats"
)

// benchPutGet times one svc.Client putting a file and getting it back,
// b.N times over a fresh loopback cluster of six DataNodes with 1 MiB
// blocks and the ADAPT distributor — the path an adapt-fs user takes.
// Each direction is timed on its own: the reported MiB/s and p50 are
// per direction, ns/op and B/s are the put+get pair. Files are deleted
// engine-direct outside the timer, so memory stays at one file.
func benchPutGet(b *testing.B, fileBytes, replication int) {
	c, err := cluster.NewEmulation(cluster.EmulationConfig{Nodes: 6, InterruptedRatio: 0.5, Shuffle: true}, stats.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	lc, err := StartLocalCluster(c, stats.NewRNG(2), nil, NameNodeConfig{BlockSize: 1 << 20, Replication: replication})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	defer func() { _ = lc.Close(ctx) }()
	cl := lc.Client("shell")
	defer cl.Close()

	data := make([]byte, fileBytes)
	g := stats.NewRNG(3)
	for i := range data {
		data[i] = byte(g.Uint64())
	}
	// One untimed pair dials every connection the client keeps.
	if _, _, err := cl.CopyFromLocal(ctx, "warm", data, true); err != nil {
		b.Fatal(err)
	}
	if _, err := cl.ReadFile(ctx, "warm"); err != nil {
		b.Fatal(err)
	}

	puts, gets := make([]time.Duration, 0, b.N), make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.SetBytes(2 * int64(fileBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("f%d", i)
		t0 := time.Now()
		if _, _, err := cl.CopyFromLocal(ctx, name, data, true); err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		got, err := cl.ReadFile(ctx, name)
		t2 := time.Now()
		if err != nil {
			b.Fatal(err)
		}
		puts, gets = append(puts, t1.Sub(t0)), append(gets, t2.Sub(t1))
		b.StopTimer()
		if !bytes.Equal(got, data) {
			b.Fatal("read bytes differ from written")
		}
		if err := lc.Engine().DeleteContext(ctx, name); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	report := func(dir string, lat []time.Duration) {
		var sum time.Duration
		for _, d := range lat {
			sum += d
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		b.ReportMetric(float64(fileBytes)*float64(len(lat))/(1<<20)/sum.Seconds(), dir+"_MiB/s")
		b.ReportMetric(float64(lat[len(lat)/2])/1e6, dir+"_p50_ms")
	}
	report("put", puts)
	report("get", gets)
}

// BenchmarkClientPutGet has the shape of the repo benchmark's bulk_io
// workload (6 DataNodes, RF 3, 4 MiB files in 1 MiB blocks) on one
// client, so `go test -bench 'ClientPutGet$' -cpuprofile` shows where
// a put and a get spend their CPU. EXPERIMENTS.md keeps its top-10
// before and after the client-direct data path.
func BenchmarkClientPutGet(b *testing.B) { benchPutGet(b, 4<<20, 3) }

// BenchmarkClientPutGetBySize is the same pair per file size and
// replication factor: a change to the replica path routinely helps one
// direction and costs the other, and helps large files differently
// from small ones, so each cell reports put and get separately.
func BenchmarkClientPutGetBySize(b *testing.B) {
	for _, size := range []struct {
		name  string
		bytes int
	}{{"4KiB", 4 << 10}, {"1MiB", 1 << 20}, {"4MiB", 4 << 20}} {
		for _, rf := range []int{1, 3} {
			b.Run(fmt.Sprintf("%s/rf%d", size.name, rf), func(b *testing.B) { benchPutGet(b, size.bytes, rf) })
		}
	}
}

// TestPutGetCopyBudget pins what a put and a get cost in copies: a
// 4 MiB put+get pair through svc.Client (RF 3, 1 MiB blocks) allocates
// at most 1.5× the file size, with hedged reads off and on. The floor
// is 1×, the file the get returns: the writer's block buffer and the
// three replicas each DataNode receives in place are drawn from the
// replica pool, which the previous pair's delete refilled, and the get
// assembles the file in place, the hedged ladder too when no hedge
// fires. A replica or block buffer allocated fresh instead of drawn,
// chunk frames read into a slice of their own and copied out again, a
// replica copied on its way into or out of the store, or a hedged fetch
// read into a buffer of its own and appended would break the budget.
// Under -race the pool drops a random quarter of what it is given, so
// the budget there is 4.5×, what a pair cost before replicas were
// recycled.
func TestPutGetCopyBudget(t *testing.T) {
	for _, hedge := range []bool{false, true} {
		t.Run(fmt.Sprintf("hedge=%v", hedge), func(t *testing.T) { copyBudget(t, hedge) })
	}
}

func copyBudget(t *testing.T, hedge bool) {
	c, err := cluster.New(make([]cluster.Node, 4))
	if err != nil {
		t.Fatal(err)
	}
	// A threshold floored at a minute: reads take the hedged ladder
	// and no hedge ever fires.
	cfg := NameNodeConfig{BlockSize: 1 << 20, Replication: 3, HedgeReads: hedge, Hedge: HedgeConfig{MinDelay: time.Minute}}
	lc, err := StartLocalCluster(c, stats.NewRNG(2), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	defer func() { _ = lc.Close(ctx) }()
	cl := lc.Client("shell")
	defer cl.Close()

	data := payload(4 << 20)
	pair := func(name string) {
		if _, _, err := cl.CopyFromLocal(ctx, name, data, true); err != nil {
			t.Fatal(err)
		}
		got, err := cl.ReadFile(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("read bytes differ from written")
		}
		if err := lc.Engine().DeleteContext(ctx, name); err != nil {
			t.Fatal(err)
		}
	}
	pair("warm") // dials every connection the client and the relays keep

	const pairs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < pairs; i++ {
		pair(fmt.Sprintf("f%d", i))
	}
	runtime.ReadMemStats(&after)
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / pairs / float64(len(data))
	t.Logf("a put+get pair allocates %.2f× the file size", ratio)
	budget := 1.5
	if raceEnabled {
		budget = 4.5
	}
	if ratio > budget {
		t.Fatalf("a put+get pair allocates %.2f× the file size, budget %.1f×", ratio, budget)
	}
	if r := cl.resilience(); r.HedgedReads != 0 {
		t.Fatalf("%d reads hedged under a one-minute threshold", r.HedgedReads)
	}
}
