// Extensions: the paper's §VI–VII future-work directions, implemented
// and measured side by side —
//
//  1. availability-aware job scheduling (model-gated steal decisions),
//  2. availability-aware reduce placement,
//  3. HDFS-style replication maintenance with availability-aware
//     repair targets.
//
// Run with:
//
//	go run ./examples/extensions
package main

import (
	"context"
	"fmt"
	"log"

	adapt "github.com/adaptsim/adapt"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	g := adapt.NewRNG(29)
	cluster, err := adapt.NewEmulationCluster(adapt.EmulationClusterConfig{
		Nodes:            48,
		InterruptedRatio: 0.5,
		Shuffle:          true,
	}, g.Split())
	if err != nil {
		return err
	}

	// 1. Availability-aware scheduling: same random placement, two
	// JobTracker strategies.
	fmt.Println("1) availability-aware job scheduling (random placement, 1 replica)")
	for _, sched := range []adapt.SchedulerPolicy{
		adapt.SchedulerLocalityFirst, adapt.SchedulerAvailabilityAware,
	} {
		agg, err := adapt.RunTrials(adapt.Scenario{
			Config:   adapt.SimConfig{Cluster: cluster, Scheduler: sched},
			Policy:   adapt.NewRandomPolicy(cluster),
			Blocks:   48 * 20,
			Replicas: 1,
		}, 5, g.Split())
		if err != nil {
			return err
		}
		fmt.Printf("   %-20s elapsed %7.1f s, locality %5.1f%%\n",
			sched, agg.Elapsed.Mean(), 100*agg.Locality.Mean())
	}

	// 2. Availability-aware reduce placement on a real job.
	fmt.Println("\n2) availability-aware reduce placement (wordcount, 4 reducers)")
	nn, err := adapt.NewNameNode(cluster)
	if err != nil {
		return err
	}
	client, err := adapt.NewDFSClient(nn, g.Split())
	if err != nil {
		return err
	}
	client.BlockSize = 512
	words := make([]byte, 0, 4096*9)
	for i := 0; i < 4096; i++ {
		words = append(words, fmt.Sprintf("word%03d ", i%50)...)
	}
	if _, _, err := client.CopyFromLocalReportContext(ctx, "wc/in", words, true); err != nil {
		return err
	}
	for _, mode := range []adapt.ReducerPlacement{
		adapt.ReducersRandom, adapt.ReducersAvailabilityAware,
	} {
		eng, err := adapt.NewMREngine(nn, adapt.MREngineConfig{
			ReducerMode:         mode,
			SimulatedBlockBytes: 64 * 1024 * 1024,
		})
		if err != nil {
			return err
		}
		out := fmt.Sprintf("wc/out-%s", mode)
		res, err := eng.Run(adapt.WordCountJob("wc/in", out, 4), g.Split())
		if err != nil {
			return err
		}
		fmt.Printf("   %-20s reduce %7.1f s on hosts %v\n",
			mode, res.ReduceElapsed, res.ReducerHosts)
	}

	// 3. Replication maintenance after losing a node.
	fmt.Println("\n3) replication maintenance (2 replicas, one node lost)")
	client2, err := adapt.NewDFSClient(nn, g.Split())
	if err != nil {
		return err
	}
	client2.Replication = 2
	client2.BlockSize = 1024
	payload := make([]byte, 480*1024)
	if _, _, err := client2.CopyFromLocalReportContext(ctx, "/durable", payload, true); err != nil {
		return err
	}
	dist, err := nn.BlockDistribution("/durable")
	if err != nil {
		return err
	}
	victim := adapt.NodeID(0)
	for i, c := range dist {
		if c > 0 {
			victim = adapt.NodeID(i)
			break
		}
	}
	dn, err := nn.DataNode(victim)
	if err != nil {
		return err
	}
	dn.SetUp(false)
	fmt.Printf("   node %d down, held %d replicas\n", victim, dist[victim])
	report, err := client2.MaintainReplication(ctx, "/durable", true)
	if err != nil {
		return err
	}
	fmt.Printf("   repair: %d healthy, %d repaired, %d unrepairable\n",
		report.Healthy, report.Repaired, report.Unrepairable)
	return nil
}
