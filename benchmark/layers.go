package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/netsim"
	"github.com/adaptsim/adapt/internal/placement"
	"github.com/adaptsim/adapt/internal/shard"
	"github.com/adaptsim/adapt/internal/sim"
	"github.com/adaptsim/adapt/internal/stats"
	"github.com/adaptsim/adapt/internal/wal"
)

// Layer-alone drivers: each calls one layer's exported functions in a
// loop, with nothing else running, at the sizes the workload uses.
// They say what a layer costs by itself; the stack replays say what it
// costs in place.

// medianOf times fn reps times and returns the median in seconds.
func medianOf(reps int, fn func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		t0 := time.Now()
		fn()
		xs[i] = time.Since(t0).Seconds()
	}
	return median(xs)
}

// perCall times batches of calls and returns the median cost of one
// call in nanoseconds.
func perCall(batches, batch int, fn func(i int)) float64 {
	n := 0
	return medianOf(batches, func() {
		for j := 0; j < batch; j++ {
			fn(n)
			n++
		}
	}) * 1e9 / float64(batch)
}

// storeAlone times dfs.DataNode.Put and Get on one block of the
// workload's size, in microseconds.
func storeAlone(blockBytes int, g *stats.RNG) (putUS, getUS float64, err error) {
	dn := dfs.NewDataNode(0)
	block := makePayloads(g, 1, blockBytes)[0]
	const ids = 8 // keeps the store small while every put still copies
	putUS = perCall(25, ids, func(i int) {
		if perr := dn.Put(dfs.BlockID(i%ids), block); perr != nil {
			err = perr
		}
	}) / 1e3
	getUS = perCall(25, ids, func(i int) {
		if _, gerr := dn.Get(dfs.BlockID(i % ids)); gerr != nil {
			err = gerr
		}
	}) / 1e3
	return putUS, getUS, err
}

// walAlone times wal.Log.Append with real fsync on records of the size
// the NameNode was seen to write, in microseconds.
func walAlone(dir string, recBytes int) (appendUS float64, err error) {
	l, err := wal.Open(dir)
	if err != nil {
		return 0, err
	}
	rec := make([]byte, recBytes)
	appendUS = perCall(40, 5, func(int) {
		if _, aerr := l.Append(rec); aerr != nil && err == nil {
			err = aerr
		}
	}) / 1e3
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	return appendUS, err
}

// walRecordBytes opens the shard logs a NameNode left behind and
// returns the mean framed size of their records: the bytes one
// mutation adds to the WAL.
func walRecordBytes(root string, shards int) (float64, error) {
	dirs, err := wal.ShardDirs(root, shards)
	if err != nil {
		return 0, err
	}
	const frameHeader = 8 // length + CRC32, as internal/wal frames a record
	var bytes, recs float64
	for _, dir := range dirs {
		l, err := wal.Open(dir)
		if err != nil {
			return 0, err
		}
		rerr := l.Replay(func(_ uint64, rec []byte) error {
			bytes += float64(len(rec) + frameHeader)
			recs++
			return nil
		})
		if cerr := l.Close(); rerr == nil {
			rerr = cerr
		}
		if rerr != nil {
			return 0, rerr
		}
	}
	if recs == 0 {
		return 0, nil
	}
	return bytes / recs, nil
}

// shardAlone times a ring lookup and a quota reserve+release, in
// nanoseconds.
func shardAlone(c *cluster.Cluster, rf int) (lookupNS, reserveNS float64, err error) {
	ring, err := placement.BuildAvailabilityRing(c, simGamma, 64)
	if err != nil {
		return 0, 0, err
	}
	lookupNS = perCall(20, 1000, func(i int) {
		ring.Lookup(shard.BlockKey("bench/file", i), rf, nil)
	})
	q := shard.NewQuotas()
	q.Set(tenants[0], shard.Quota{MaxFiles: 1 << 40, MaxBytes: 1 << 50, MaxRF: 8})
	reserveNS = perCall(20, 1000, func(int) {
		if rerr := q.Reserve(tenants[0], 1, 4096, rf); rerr != nil {
			err = rerr
		}
		q.Release(tenants[0], 1, 4096)
	})
	return lookupNS, reserveNS, err
}

// placementAlone times the ADAPT table build and one replica draw of
// each policy when m blocks get k replicas on cluster c.
func placementAlone(c *cluster.Cluster, m, k int, g *stats.RNG, out map[string]float64) error {
	var err error
	reps := 200000/(m*k) + 1
	if reps > 200 {
		reps = 200
	}
	out["placement.adapt_build_us"] = medianOf(15, func() {
		if _, berr := placement.NewAdapt(c, simGamma); berr != nil {
			err = berr
		}
	}) * 1e6
	for _, strategy := range []string{"adapt", "random", "naive"} {
		pol, perr := simPolicy(strategy, c)
		if perr != nil {
			return perr
		}
		out["placement."+strategy+"_draw_ns"] = medianOf(reps, func() {
			if _, perr := placement.PlaceAll(pol, m, k, g); perr != nil {
				err = perr
			}
		}) * 1e9 / float64(m*k)
	}
	return err
}

// engineAlone times sim.Engine with pending timers held: every firing
// re-arms one timer, so each event is one push and one pop at that
// depth. It also times Timer.Cancel.
func engineAlone(pending int, g *stats.RNG) (eventNS, cancelNS float64, err error) {
	const events = 200000
	eng := sim.NewEngine()
	fired := 0
	var fire func()
	fire = func() {
		fired++
		if fired+pending <= events {
			if _, aerr := eng.After(1+g.Float64(), fire); aerr != nil {
				err = aerr
			}
		}
	}
	for i := 0; i < pending; i++ {
		if _, aerr := eng.After(g.Float64(), fire); aerr != nil {
			return 0, 0, aerr
		}
	}
	t0 := time.Now()
	if rerr := eng.Run(); rerr != nil {
		return 0, 0, rerr
	}
	eventNS = float64(time.Since(t0)) / float64(fired)

	timers := make([]*sim.Timer, 1000)
	cancels := make([]float64, 20)
	for rep := range cancels {
		eng = sim.NewEngine()
		for k := range timers {
			if timers[k], err = eng.After(float64(k), func() {}); err != nil {
				return 0, 0, err
			}
		}
		t0 := time.Now()
		for _, t := range timers {
			t.Cancel()
		}
		cancels[rep] = float64(time.Since(t0)) / float64(len(timers))
	}
	cancelNS = median(cancels)
	return eventNS, cancelNS, err
}

// netsimAlone times netsim.Network.Transfer between seeded node pairs.
func netsimAlone(nodes int, g *stats.RNG) (float64, error) {
	nw, err := netsim.New(netsim.FromMegabits(simMbps), nodes)
	if err != nil {
		return 0, err
	}
	pairs := make([][2]int, 4096)
	for i := range pairs {
		pairs[i] = [2]int{g.IntN(nodes), g.IntN(nodes)}
	}
	now := 0.0
	ns := perCall(20, 5000, func(i int) {
		p := pairs[i%len(pairs)]
		if _, _, terr := nw.Transfer(now, p[0], p[1], simBlockBytes); terr != nil {
			err = terr
		}
		now += 0.01
	})
	return ns, err
}

// procStart is the memory statistics a measurement starts from.
type procStart struct{ ms runtime.MemStats }

func startProc() *procStart {
	p := &procStart{}
	runtime.ReadMemStats(&p.ms)
	return p
}

// finish fills the proc.* metrics from what happened since start, over
// ops operations.
func (p *procStart) finish(ops int, out map[string]float64) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	if ops > 0 {
		out["proc.alloc_mb_per_op"] = float64(now.TotalAlloc-p.ms.TotalAlloc) / (1 << 20) / float64(ops)
	}
	out["proc.gc_cycles"] = float64(now.NumGC - p.ms.NumGC)
	out["proc.gc_pause_ms"] = float64(now.PauseTotalNs-p.ms.PauseTotalNs) / 1e6
	out["proc.num_cpu"] = float64(runtime.NumCPU())
	out["proc.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	out["proc.peak_rss_mb"] = peakRSSMB()
}

// peakRSSMB reads the process's resident-set high-water mark, 0 where
// the kernel does not say.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// fracOf returns part ÷ whole, 0 when there is no whole.
func fracOf(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}
