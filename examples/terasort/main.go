// Terasort: the paper's benchmark (§V-A) run end-to-end on the mini
// MapReduce engine — TeraGen data is written into the dfs with ADAPT
// placement, sorted with a range partitioner, and validated, while
// the simulated non-dedicated cluster injects interruptions
// throughout.
//
// Run with:
//
//	go run ./examples/terasort
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
	g := adapt.NewRNG(7)

	cluster, err := adapt.NewEmulationCluster(adapt.EmulationClusterConfig{
		Nodes:            16,
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

	// TeraGen: 20,000 hundred-byte records (~2 MB), 100 records per
	// block so every node averages ~12 blocks.
	const records = 20000
	data, err := adapt.TeraGen(records, g.Split())
	if err != nil {
		return err
	}
	client.BlockSize = 100 * 100 // record-aligned blocks
	useAdapt := true
	if _, _, err := client.CopyFromLocalReportContext(ctx, "tera/in", data, useAdapt); err != nil {
		return err
	}
	meta, err := nn.Stat("tera/in")
	if err != nil {
		return err
	}
	fmt.Printf("teragen: %d records (%d bytes) in %d blocks, ADAPT placement\n",
		records, len(data), len(meta.Blocks))

	// Range partitioner boundaries from input sampling, as the real
	// terasort does.
	const reducers = 4
	bounds, err := adapt.SampleBoundaries(data, reducers, 0, g.Split())
	if err != nil {
		return err
	}
	job, err := adapt.TeraSortJob("tera/in", "tera/out", reducers, bounds)
	if err != nil {
		return err
	}

	engine, err := adapt.NewMREngine(nn, adapt.MREngineConfig{
		// demo-sized blocks, production-scale timing
		SimulatedBlockBytes: 64 * 1024 * 1024,
	})
	if err != nil {
		return err
	}
	res, err := engine.Run(job, g.Split())
	if err != nil {
		return err
	}

	fmt.Printf("map phase: %.1f s simulated, locality %.1f%%, %d interruptions, %d blocks migrated\n",
		res.Map.Elapsed, 100*res.Map.Locality(), res.Map.Interruptions, res.Map.MigratedBlocks)
	fmt.Printf("reduce:    %.1f s simulated across %d partitions\n", res.ReduceElapsed, reducers)

	// Validate: the concatenated part files must be globally sorted
	// with every record present.
	parts := make([][]byte, 0, len(res.OutputFiles))
	for _, f := range res.OutputFiles {
		p, err := client.ReadFileContext(ctx, f)
		if err != nil {
			return err
		}
		parts = append(parts, p)
	}
	if err := adapt.CheckSorted(parts, records); err != nil {
		return fmt.Errorf("validation failed: %w", err)
	}
	fmt.Printf("validated: output globally sorted, %d records intact\n", records)
	return nil
}
