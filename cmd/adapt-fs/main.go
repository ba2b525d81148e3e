// Command adapt-fs demonstrates the prototype's HDFS client surface
// (§IV-A) on an in-memory cluster: it copies a file into the dfs with
// stock random placement, shows the per-group block distribution,
// then runs the new `adapt` shell command to redistribute the blocks
// availability-aware and shows the distribution again.
//
// Example:
//
//	adapt-fs -nodes 32 -blocks-per-node 20 -replicas 1
//
// With -chaos it instead runs a fault-injection demo: seeded churn
// (derived from each node's Table 2 availability) plus transient
// operation faults and read corruption batter the DFS while a client
// keeps reading and repairing; afterwards it verifies the file byte
// for byte and prints the resilience counters:
//
//	adapt-fs -chaos -nodes 32 -chaos-events 2000 -replicas 3
//
// Subcommands run the networked cluster (internal/svc) instead of the
// in-memory demo:
//
//	adapt-fs serve-datanode -id 0 -listen :9864 -namenode host:9870
//	adapt-fs serve-namenode -listen :9870 -http :9871 -datanodes a:9864,b:9864
//	adapt-fs put -namenode host:9870 -adapt local.bin /data
//	adapt-fs local-demo -nodes 4
//
// See `adapt-fs help` for the full list.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	adapt "github.com/adaptsim/adapt"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		if err := runService(args[0], args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "adapt-fs:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(args); err != nil {
		fmt.Fprintln(os.Stderr, "adapt-fs:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("adapt-fs", flag.ContinueOnError)
	var (
		nodes         = fs.Int("nodes", 32, "cluster size")
		blocksPerNode = fs.Int("blocks-per-node", 20, "blocks per node on average")
		ratio         = fs.Float64("interrupted-ratio", 0.5, "fraction of interrupted nodes")
		replicas      = fs.Int("replicas", 1, "replication degree")
		seed          = fs.Uint64("seed", 1, "random seed")

		chaosMode   = fs.Bool("chaos", false, "run the fault-injection demo instead of the placement demo")
		chaosEvents = fs.Int("chaos-events", 2000, "churn events to inject (with -chaos)")
		putFail     = fs.Float64("put-fail", 0.02, "transient Put failure probability (with -chaos)")
		getFail     = fs.Float64("get-fail", 0.02, "transient Get failure probability (with -chaos)")
		corrupt     = fs.Float64("corrupt", 0.01, "per-read bit-flip probability (with -chaos)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	g := adapt.NewRNG(*seed)
	c, err := adapt.NewEmulationCluster(adapt.EmulationClusterConfig{
		Nodes:            *nodes,
		InterruptedRatio: *ratio,
	}, g.Split())
	if err != nil {
		return err
	}
	nn, err := adapt.NewNameNode(c)
	if err != nil {
		return err
	}
	client, err := adapt.NewDFSClient(nn, g.Split())
	if err != nil {
		return err
	}
	client.Replication = *replicas
	client.BlockSize = 1024 // demo-sized blocks

	payload := make([]byte, *nodes**blocksPerNode*int(client.BlockSize))
	for i := range payload {
		payload[i] = byte(i)
	}

	fmt.Printf("cluster: %d nodes, %d interrupted (Table 2 groups)\n\n", c.Len(), c.InterruptedCount())

	ctx := context.Background()
	if *chaosMode {
		return runChaos(ctx, c, nn, client, g, payload, chaosOpts{
			events:  *chaosEvents,
			putFail: *putFail,
			getFail: *getFail,
			corrupt: *corrupt,
		})
	}

	fmt.Println("$ adapt-fs copyFromLocal data.bin /data (stock random placement)")
	if _, _, err := client.CopyFromLocalReportContext(ctx, "/data", payload, false); err != nil {
		return err
	}
	if err := printDistribution(nn, c, "/data"); err != nil {
		return err
	}

	fmt.Println("\n$ adapt-fs adapt /data (availability-aware redistribution)")
	moved, err := client.Adapt(ctx, "/data")
	if err != nil {
		return err
	}
	fmt.Printf("moved %d block replicas\n", moved)
	if err := printDistribution(nn, c, "/data"); err != nil {
		return err
	}

	fmt.Println("\n$ adapt-fs cp /data /data2 -adapt (copy with ADAPT placement)")
	if _, err := client.Cp(ctx, "/data", "/data2", true); err != nil {
		return err
	}
	return printDistribution(nn, c, "/data2")
}

type chaosOpts struct {
	events  int
	putFail float64
	getFail float64
	corrupt float64
}

// runChaos is the -chaos demo: write a file, batter the DFS with
// seeded churn and operation faults while reading and repairing it,
// then quiesce, heal, verify every byte, and report the resilience
// counters. The in-process NameNode observes no heartbeats, so it
// learns no availability here; local-demo shows that on the real
// path.
func runChaos(ctx context.Context, c *adapt.Cluster, nn *adapt.NameNode, client *adapt.DFSClient, g *adapt.RNG, payload []byte, opts chaosOpts) error {
	faults, err := adapt.NewOpFaults(g.Split())
	if err != nil {
		return err
	}
	faults.PutFailProb = opts.putFail
	faults.GetFailProb = opts.getFail
	faults.CorruptProb = opts.corrupt
	faults.Counters = nn.Resilience()
	nn.SetFaultInjector(faults)

	fmt.Println("$ adapt-fs copyFromLocal data.bin /data (ADAPT placement, faults armed)")
	if _, report, err := client.CopyFromLocalReportContext(ctx, "/data", payload, true); err != nil {
		return err
	} else if report.Degraded() {
		fmt.Printf("degraded write: min replication %d/%d over %d blocks\n",
			report.MinReplication, report.TargetReplication, report.Blocks)
	} else {
		fmt.Printf("wrote %d blocks at full replication %d\n", report.Blocks, report.TargetReplication)
	}

	engine, err := adapt.NewChaosEngine(adapt.ChaosConfig{Cluster: c, Target: nn}, g.Split())
	if err != nil {
		return err
	}

	fmt.Printf("\ninjecting %d churn events (put-fail %.0f%%, get-fail %.0f%%, corrupt %.0f%%)\n",
		opts.events, 100*opts.putFail, 100*opts.getFail, 100*opts.corrupt)
	applied := 0
	batch := opts.events/10 + 1
	for applied < opts.events {
		n, err := engine.Run(min(batch, opts.events-applied))
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
		applied += n
		// Keep the client busy mid-churn: reads may fail transiently,
		// repair passes put replicas back as nodes rejoin.
		if _, err := client.ReadFileContext(ctx, "/data"); err != nil && !adapt.IsTransient(err) {
			return err
		}
		if _, err := client.MaintainReplication(ctx, "/data", true); err != nil && !adapt.IsTransient(err) {
			return err
		}
	}
	if err := engine.Quiesce(); err != nil {
		return err
	}
	nn.SetFaultInjector(nil)

	// Heal back to target replication and verify nothing was lost.
	for {
		rep, err := client.MaintainReplication(ctx, "/data", true)
		if err != nil {
			return err
		}
		if rep.Unrepairable > 0 {
			return fmt.Errorf("chaos demo: %d unrepairable blocks with every node up", rep.Unrepairable)
		}
		if rep.Repaired == 0 {
			break
		}
	}
	if err := nn.CheckConsistency(ctx); err != nil {
		return err
	}
	got, err := client.ReadFileContext(ctx, "/data")
	if err != nil {
		return err
	}
	if !bytes.Equal(got, payload) {
		return fmt.Errorf("chaos demo: payload mismatch after churn")
	}
	fmt.Printf("survived %d events over %.0f virtual seconds; payload verified intact\n",
		applied, engine.Now())
	fmt.Printf("resilience: %s\n", nn.Resilience().Snapshot())
	return nil
}

// printDistribution summarizes block counts per availability group.
func printDistribution(nn *adapt.NameNode, c *adapt.Cluster, name string) error {
	counts, err := nn.BlockDistribution(name)
	if err != nil {
		return err
	}
	groupTotals := map[int]int{}
	groupNodes := map[int]int{}
	for i, n := range c.Nodes() {
		groupTotals[n.Group] += counts[i]
		groupNodes[n.Group]++
	}
	fmt.Printf("%-28s %8s %8s %14s\n", "group", "nodes", "blocks", "blocks/node")
	order := []int{-1, 0, 1, 2, 3}
	labels := map[int]string{
		-1: "reliable",
		0:  "group 1 (MTBI 10s, mu 4s)",
		1:  "group 2 (MTBI 10s, mu 8s)",
		2:  "group 3 (MTBI 20s, mu 4s)",
		3:  "group 4 (MTBI 20s, mu 8s)",
	}
	for _, gid := range order {
		n := groupNodes[gid]
		if n == 0 {
			continue
		}
		fmt.Printf("%-28s %8d %8d %14.1f\n",
			labels[gid], n, groupTotals[gid], float64(groupTotals[gid])/float64(n))
	}
	return nil
}
