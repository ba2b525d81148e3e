// Rebalance: the prototype's new `adapt` shell command (§IV-A). A
// file written with stock random placement is redistributed
// availability-aware in place, and the same MapReduce map phase is
// simulated before and after to show the effect — without writing a
// single extra replica.
//
// Run with:
//
//	go run ./examples/rebalance
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
	g := adapt.NewRNG(19)

	cluster, err := adapt.NewEmulationCluster(adapt.EmulationClusterConfig{
		Nodes:            48,
		InterruptedRatio: 0.5,
		Shuffle:          true,
	}, g.Split())
	if err != nil {
		return err
	}
	nn, err := adapt.NewNameNode(cluster)
	if err != nil {
		return err
	}
	client, err := adapt.NewDFSClient(nn, g.Split())
	if err != nil {
		return err
	}
	client.BlockSize = 4096

	// Write 960 blocks with stock random placement.
	const blocks = 48 * 20
	payload := make([]byte, blocks*int(client.BlockSize))
	if _, _, err := client.CopyFromLocalReportContext(ctx, "/warehouse/events", payload, false); err != nil {
		return err
	}

	before, err := simulateFile(nn, cluster, "/warehouse/events", g.Split())
	if err != nil {
		return err
	}
	fmt.Printf("before adapt: map phase %7.1f s, locality %5.1f%%\n",
		before.Elapsed, 100*before.Locality())

	// The `adapt` command: redistribute in place.
	moved, err := client.Adapt(ctx, "/warehouse/events")
	if err != nil {
		return err
	}
	fmt.Printf("adapt moved %d of %d block replicas\n", moved, blocks)

	after, err := simulateFile(nn, cluster, "/warehouse/events", g.Split())
	if err != nil {
		return err
	}
	fmt.Printf("after adapt:  map phase %7.1f s, locality %5.1f%%\n",
		after.Elapsed, 100*after.Locality())
	fmt.Printf("improvement:  %.1f%% with the same storage footprint\n",
		100*(1-after.Elapsed/before.Elapsed))
	return nil
}

// simulateFile runs the map phase over the file's current block
// locations.
func simulateFile(nn *adapt.NameNode, cluster *adapt.Cluster, name string, g *adapt.RNG) (adapt.RunResult, error) {
	meta, err := nn.Stat(name)
	if err != nil {
		return adapt.RunResult{}, err
	}
	asn := &adapt.Assignment{Nodes: cluster.Len()}
	for _, bm := range meta.Blocks {
		asn.Replicas = append(asn.Replicas, bm.Replicas)
	}
	return adapt.RunSimulation(adapt.SimConfig{Cluster: cluster, Assignment: asn}, g)
}
