// Service subcommands: the networked ADAPT cluster (internal/svc)
// behind the same binary. serve-namenode and serve-datanode run real
// daemons with graceful SIGINT/SIGTERM shutdown; the client
// subcommands speak the frame protocol to a running NameNode; and
// local-demo boots a whole loopback cluster in-process — write,
// partition, failover read, heal, heartbeat-taught adapt, a repair scan
// collecting a partitioned delete's residue — as a CI smoke of the
// end-to-end path.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/adaptsim/adapt/internal/chaos"
	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/shard"
	"github.com/adaptsim/adapt/internal/stats"
	"github.com/adaptsim/adapt/internal/svc"
)

const serviceHelp = `adapt-fs service subcommands:

  serve-namenode  -listen ADDR -datanodes A,B,...  [-http ADDR] [-replicas N] [-block-size N] [-seed N]
                  [-wal-dir DIR] [-shards P]
                  [-suspect-after DUR] [-dead-after DUR] [-repair-interval DUR]
                  [-max-inflight N] [-queue-depth N] [-brownout-pct N]
                  [-breaker-threshold N] [-breaker-cooldown DUR] [-hedge-reads]
  serve-datanode  -id N -listen ADDR -namenode ADDR [-heartbeat DUR]
                  [-max-inflight N] [-queue-depth N] [-brownout-pct N]
  put             -namenode ADDR [-adapt] [-tenant T] LOCAL NAME
  get             -namenode ADDR [-tenant T] NAME [LOCAL]
  ls              -namenode ADDR
  stat            -namenode ADDR [-tenant T] NAME
  rm              -namenode ADDR [-tenant T] NAME
  adapt           -namenode ADDR [-tenant T] NAME
  rebalance       -namenode ADDR [-tenant T] NAME
  dist            -namenode ADDR [-tenant T] NAME
  estimates       -namenode ADDR
  fsck            -namenode ADDR   (JSON health report; exit 0 healthy, 1 under-replicated, 2 unavailable)
  local-demo      [-nodes N] [-blocks N] [-replicas N] [-seed N]

With -wal-dir the NameNode journals every namespace mutation before
acknowledging it and recovers the namespace on restart from the same
directory; kill -9 loses nothing acknowledged. With -shards P the
namespace is hash-partitioned into P independently locked and
journaled shards. The WAL directory records P: a restart may leave
-shards out (or pass 0) to take the recorded count, and any other
count is refused. -tenant T rewrites NAME to the "@T/NAME" form that
tenant quotas are accounted against.

With -max-inflight N the server admits at most N concurrent requests;
excess waits in a bounded queue of -queue-depth (default 4N) and is
shed with a typed, retryable overload error past that. -brownout-pct
sheds background traffic first once inflight crosses that percentage
of the limit. -breaker-threshold/-breaker-cooldown arm per-DataNode
circuit breakers on the NameNode's client side, and -hedge-reads
fires a backup read at a slow replica's p95. All overload decisions
surface as adapt_* counters on the -http /metrics endpoint.

Flag-only invocation (no subcommand) runs the in-memory placement or
-chaos demo; see adapt-fs -h.`

// runService dispatches one service subcommand.
func runService(cmd string, args []string) error {
	switch cmd {
	case "serve-namenode":
		return serveNameNode(args)
	case "serve-datanode":
		return serveDataNode(args)
	case "put", "get", "ls", "stat", "rm", "adapt", "rebalance", "dist", "estimates":
		return runShell(cmd, args)
	case "fsck":
		code, err := runFsck(args, os.Stdout)
		if err != nil {
			return err
		}
		if code != 0 {
			os.Exit(code)
		}
		return nil
	case "local-demo":
		return localDemo(args)
	case "help":
		fmt.Println(serviceHelp)
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q (try: adapt-fs help)", cmd)
	}
}

// signalContext returns a context cancelled on SIGINT/SIGTERM.
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

func serveNameNode(args []string) error {
	fs := flag.NewFlagSet("serve-namenode", flag.ContinueOnError)
	var (
		listen    = fs.String("listen", "127.0.0.1:9870", "frame-service listen address")
		httpAddr  = fs.String("http", "", "metrics/health HTTP listen address (empty = disabled)")
		datanodes = fs.String("datanodes", "", "comma-separated DataNode addresses, in node-id order")
		replicas  = fs.Int("replicas", 1, "replication degree for new files")
		blockSize = fs.Int64("block-size", 0, "block size for new files (0 = default)")
		seed      = fs.Uint64("seed", 1, "placement random seed")

		walDir       = fs.String("wal-dir", "", "durable namespace directory (empty = volatile); restart with the same directory to recover")
		shards       = fs.Int("shards", 0, "namespace shard count (0 = the count the WAL directory records, 1 for a new one)")
		suspectAfter = fs.Duration("suspect-after", 0, "heartbeat silence declaring a DataNode suspect (0 = default)")
		deadAfter    = fs.Duration("dead-after", 0, "heartbeat silence declaring a DataNode dead (0 = default)")
		repairEvery  = fs.Duration("repair-interval", 0, "auto-repair scan cadence (0 = default)")

		maxInflight = fs.Int("max-inflight", 0, "admission concurrency limit (0 = admission control disabled)")
		queueDepth  = fs.Int("queue-depth", 0, "bounded admission wait queue (0 = 4x max-inflight)")
		brownoutPct = fs.Int("brownout-pct", 0, "percent of max-inflight at which background traffic is shed (0 = default 75)")
		brkThresh   = fs.Int("breaker-threshold", 0, "consecutive DataNode failures opening its circuit breaker (0 = breakers disabled)")
		brkCooldown = fs.Duration("breaker-cooldown", 0, "open-breaker cooldown before a half-open probe (0 = default)")
		hedgeReads  = fs.Bool("hedge-reads", false, "fire a backup read at another replica when the first is slower than its p95")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	addrs := strings.Split(*datanodes, ",")
	if *datanodes == "" || len(addrs) == 0 {
		return fmt.Errorf("serve-namenode: -datanodes is required")
	}
	// The cluster starts with no availability knowledge: every (λ, μ)
	// the predictor uses is learned from the DataNodes' heartbeats and
	// the silences between them.
	c, err := cluster.New(make([]cluster.Node, len(addrs)))
	if err != nil {
		return err
	}
	nn, err := svc.NewNameNodeServer(c, addrs, stats.NewRNG(*seed), nil, svc.NameNodeConfig{
		BlockSize:   *blockSize,
		Replication: *replicas,
		WALDir:      *walDir,
		Shards:      *shards,
		Admission: svc.AdmissionConfig{
			MaxInflight: *maxInflight,
			Queue:       *queueDepth,
			BrownoutPct: *brownoutPct,
		},
		Breaker: svc.BreakerConfig{
			Threshold: *brkThresh,
			Cooldown:  *brkCooldown,
		},
		HedgeReads: *hedgeReads,
		Detector:   svc.DetectorConfig{SuspectAfter: *suspectAfter, DeadAfter: *deadAfter},
	})
	if err != nil {
		return err
	}
	if err := nn.Listen(*listen); err != nil {
		return err
	}
	fmt.Printf("namenode: serving %d datanodes on %s\n", len(addrs), nn.Addr())
	if *walDir != "" {
		fmt.Printf("namenode: durable namespace in %s (%d shards, %d files recovered, wal seq %d)\n",
			*walDir, nn.Engine().ShardCount(), len(nn.Engine().List()), nn.WALSeq())
	}
	// The failure detector and the auto-repair scheduler make the
	// master autonomous: silent DataNodes are declared dead and their
	// blocks re-replicated availability-aware without operator action.
	nn.StartFailureDetector()
	nn.StartAutoRepair(*repairEvery)
	var stopHTTP func(context.Context) error
	if *httpAddr != "" {
		bound, stop, err := nn.ListenHTTP(*httpAddr)
		if err != nil {
			return err
		}
		stopHTTP = stop
		fmt.Printf("namenode: /metrics and /healthz on http://%s\n", bound)
	}

	ctx, cancel := signalContext()
	defer cancel()
	<-ctx.Done()
	fmt.Println("namenode: draining")
	drain, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if stopHTTP != nil {
		_ = stopHTTP(drain)
	}
	return nn.Shutdown(drain)
}

func serveDataNode(args []string) error {
	fs := flag.NewFlagSet("serve-datanode", flag.ContinueOnError)
	var (
		id        = fs.Int("id", 0, "node id within the cluster")
		listen    = fs.String("listen", "127.0.0.1:9864", "block-service listen address")
		namenode  = fs.String("namenode", "127.0.0.1:9870", "NameNode address for heartbeats")
		heartbeat = fs.Duration("heartbeat", time.Second, "heartbeat interval (keep it a few times shorter than the NameNode's -suspect-after)")

		maxInflight = fs.Int("max-inflight", 0, "admission concurrency limit (0 = admission control disabled)")
		queueDepth  = fs.Int("queue-depth", 0, "bounded admission wait queue (0 = 4x max-inflight)")
		brownoutPct = fs.Int("brownout-pct", 0, "percent of max-inflight at which background traffic is shed (0 = default 75)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *heartbeat <= 0 {
		return fmt.Errorf("serve-datanode: -heartbeat must be positive, got %s", *heartbeat)
	}
	dn := svc.NewDataNodeServer(cluster.NodeID(*id), nil)
	dn.SetAdmission(svc.AdmissionConfig{
		MaxInflight: *maxInflight,
		Queue:       *queueDepth,
		BrownoutPct: *brownoutPct,
	})
	if err := dn.Listen(*listen); err != nil {
		return err
	}
	dn.ConnectNameNode(*namenode)
	dn.StartHeartbeats(*heartbeat)
	fmt.Printf("datanode %d: serving blocks on %s, heartbeating to %s every %s\n",
		*id, dn.Addr(), *namenode, *heartbeat)

	ctx, cancel := signalContext()
	defer cancel()
	<-ctx.Done()
	fmt.Printf("datanode %d: draining\n", *id)
	drain, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	return dn.Stop(drain)
}

// runShell runs one client subcommand against a live NameNode.
func runShell(cmd string, args []string) error {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	var (
		namenode = fs.String("namenode", "127.0.0.1:9870", "NameNode address")
		useAdapt = fs.Bool("adapt", false, "use availability-aware placement (put)")
		tenant   = fs.String("tenant", "", "tenant namespace: NAME becomes @TENANT/NAME, accounted against that tenant's quota")
		timeout  = fs.Duration("timeout", 30*time.Second, "operation deadline")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	qual := func(name string) string { return shard.Prefix(*tenant, name) }
	cl := svc.Dial(*namenode, "shell", nil)
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	need := func(n int, usage string) error {
		if len(rest) < n {
			return fmt.Errorf("%s: usage: adapt-fs %s", cmd, usage)
		}
		return nil
	}
	switch cmd {
	case "put":
		if err := need(2, "put [-adapt] LOCAL NAME"); err != nil {
			return err
		}
		data, err := os.ReadFile(rest[0])
		if err != nil {
			return err
		}
		fm, report, err := cl.CopyFromLocal(ctx, qual(rest[1]), data, *useAdapt)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s: %d blocks, min replication %d/%d\n",
			fm.Name, report.Blocks, report.MinReplication, report.TargetReplication)
	case "get":
		if err := need(1, "get NAME [LOCAL]"); err != nil {
			return err
		}
		data, err := cl.ReadFile(ctx, qual(rest[0]))
		if err != nil {
			return err
		}
		if len(rest) > 1 {
			return os.WriteFile(rest[1], data, 0o644)
		}
		_, err = os.Stdout.Write(data)
		return err
	case "ls":
		files, err := cl.List(ctx)
		if err != nil {
			return err
		}
		for _, f := range files {
			fmt.Println(f)
		}
	case "stat":
		if err := need(1, "stat NAME"); err != nil {
			return err
		}
		fm, err := cl.Stat(ctx, qual(rest[0]))
		if err != nil {
			return err
		}
		fmt.Printf("%s: %d bytes, %d blocks of %d, replication %d\n",
			fm.Name, fm.Size, len(fm.Blocks), fm.BlockSize, fm.Replication)
	case "rm":
		if err := need(1, "rm NAME"); err != nil {
			return err
		}
		return cl.Delete(ctx, qual(rest[0]))
	case "adapt", "rebalance":
		if err := need(1, cmd+" NAME"); err != nil {
			return err
		}
		var moved int
		var err error
		if cmd == "adapt" {
			moved, err = cl.Adapt(ctx, qual(rest[0]))
		} else {
			moved, err = cl.Rebalance(ctx, qual(rest[0]))
		}
		if err != nil {
			return err
		}
		fmt.Printf("moved %d block replicas\n", moved)
	case "dist":
		if err := need(1, "dist NAME"); err != nil {
			return err
		}
		counts, err := cl.BlockDistribution(ctx, qual(rest[0]))
		if err != nil {
			return err
		}
		for id, n := range counts {
			fmt.Printf("node %d: %d replicas\n", id, n)
		}
	case "estimates":
		est, err := cl.Estimates(ctx)
		if err != nil {
			return err
		}
		if len(est) == 0 {
			fmt.Println("no heartbeat observations yet")
		}
		ids := make([]cluster.NodeID, 0, len(est))
		for id := range est {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			av := est[id]
			fmt.Printf("node %d: lambda %.5f /s, mu %.2f s\n", id, av.Lambda, av.Mu)
		}
	}
	return nil
}

// runFsck queries a live NameNode's replication-health survey — every
// block's live-replica count against its file's target, by the
// NameNode's current liveness belief — prints the report as JSON, and
// returns the process exit code: 0 fully replicated, 1 some block
// under-replicated, 2 some block has no live replica at all.
func runFsck(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("fsck", flag.ContinueOnError)
	var (
		namenode = fs.String("namenode", "127.0.0.1:9870", "NameNode address")
		timeout  = fs.Duration("timeout", 30*time.Second, "operation deadline")
	)
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	cl := svc.Dial(*namenode, "fsck", nil)
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	rep, err := cl.Fsck(ctx)
	if err != nil {
		return 0, err
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return 0, err
	}
	fmt.Fprintln(out, string(buf))
	switch {
	case rep.Unavailable > 0:
		return 2, nil
	case rep.UnderReplicated > 0:
		return 1, nil
	}
	return 0, nil
}

// localDemo is the CI smoke: a real TCP cluster on loopback survives
// a partition, adapts from heartbeats, and collects what a delete
// could not reach, all inside one process.
func localDemo(args []string) error {
	fs := flag.NewFlagSet("local-demo", flag.ContinueOnError)
	var (
		nodes    = fs.Int("nodes", 4, "cluster size")
		blocks   = fs.Int("blocks", 8, "blocks to write")
		replicas = fs.Int("replicas", 2, "replication degree")
		seed     = fs.Uint64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nodes < 3 {
		return fmt.Errorf("local-demo: need at least 3 nodes")
	}

	nf, err := chaos.NewNetFaults(stats.NewRNG(*seed))
	if err != nil {
		return err
	}
	c, err := cluster.New(make([]cluster.Node, *nodes))
	if err != nil {
		return err
	}
	lc, err := svc.StartLocalCluster(c, stats.NewRNG(*seed), nf, svc.NameNodeConfig{
		BlockSize:   1024,
		Replication: *replicas,
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	defer func() { _ = lc.Close(ctx) }()

	fmt.Printf("local-demo: %d DataNodes + NameNode on loopback TCP (namenode %s)\n", *nodes, lc.NN.Addr())
	cl := lc.Client("shell")
	defer cl.Close()

	payload := make([]byte, *blocks*1024)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	if _, report, err := cl.CopyFromLocal(ctx, "/data", payload, false); err != nil {
		return err
	} else {
		fmt.Printf("put /data: %d blocks, min replication %d\n", report.Blocks, report.MinReplication)
	}

	counts, err := cl.BlockDistribution(ctx, "/data")
	if err != nil {
		return err
	}
	victim := -1
	for id, n := range counts {
		if n > 0 {
			victim = id
			break
		}
	}
	fmt.Printf("partitioning datanode-%d (holds %d replicas)\n", victim, counts[victim])
	nf.Partition(fmt.Sprintf("datanode-%d", victim))
	got, err := cl.ReadFile(ctx, "/data")
	if err != nil {
		return fmt.Errorf("read during partition: %w", err)
	}
	if !bytes.Equal(got, payload) {
		return fmt.Errorf("payload mismatch during partition")
	}
	fmt.Println("read during partition: intact (failover path)")
	nf.Heal(fmt.Sprintf("datanode-%d", victim))

	// Teach the predictor: interrupt the first two nodes a few times.
	// The NameNode sees each come back as a new incarnation and counts
	// an interruption; the beats in between are the up spans every
	// node needs for a finite estimate.
	for cycle := 0; cycle < 5; cycle++ {
		if err := lc.FlushHeartbeats(ctx); err != nil {
			return err
		}
		time.Sleep(20 * time.Millisecond)
		if err := lc.FlushHeartbeats(ctx); err != nil {
			return err
		}
		for _, up := range []bool{false, true} {
			for id := cluster.NodeID(0); id < 2; id++ {
				if err := lc.SetNodeUp(id, up); err != nil {
					return err
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if err := lc.FlushHeartbeats(ctx); err != nil {
		return err
	}
	est, err := cl.Estimates(ctx)
	if err != nil {
		return err
	}
	for id := cluster.NodeID(0); int(id) < *nodes; id++ {
		if learned := est[id].Lambda > 0; learned != (id < 2) {
			return fmt.Errorf("local-demo: heartbeats left node %d at λ=%g; want λ > 0 for exactly nodes 0 and 1", id, est[id].Lambda)
		}
	}
	moved, err := cl.Adapt(ctx, "/data")
	if err != nil {
		return err
	}
	after, err := cl.BlockDistribution(ctx, "/data")
	if err != nil {
		return err
	}
	fmt.Printf("adapt /data after heartbeats: moved %d replicas, distribution %v\n", moved, after)
	// The flaky pair must end up with fewer replicas per node than the
	// reliable rest (with 4 nodes: than the reliable pair).
	flaky, reliable := after[0]+after[1], 0
	for _, n := range after[2:] {
		reliable += n
	}
	if flaky*(*nodes-2) >= reliable*2 {
		return fmt.Errorf("local-demo: after adapt the flaky nodes 0-1 hold %d replicas against %d on the %d reliable ones", flaky, reliable, *nodes-2)
	}

	// A delete cannot reach a partitioned holder; the repair scan must
	// collect what it left once the holder is back.
	tmp, _, err := cl.CopyFromLocal(ctx, "/tmp", payload[:2*1024], false)
	if err != nil {
		return err
	}
	holder := fmt.Sprintf("datanode-%d", tmp.Blocks[0].Replicas[0])
	nf.Partition(holder)
	if err := cl.Delete(ctx, "/tmp"); err != nil {
		return err
	}
	nf.Heal(holder)
	if err := lc.FlushHeartbeats(ctx); err != nil {
		return err
	}
	lc.NN.RepairScan()
	for _, bm := range tmp.Blocks {
		for i, dn := range lc.DNs {
			if dn.Node().Has(bm.ID) {
				return fmt.Errorf("local-demo: datanode-%d still stores block %d of deleted /tmp after a repair scan", i, bm.ID)
			}
		}
	}
	fmt.Printf("rm /tmp with %s partitioned; repair scan collected its residue\n", holder)
	if err := cl.CheckConsistency(ctx); err != nil {
		return err
	}
	fmt.Println("consistency verified; graceful shutdown")
	return nil
}
