// WordCount: a second real workload on the mini MapReduce engine,
// with a custom mapper/reducer pair written against the public API —
// demonstrating that user jobs survive injected interruptions with
// exactly-correct output.
//
// Run with:
//
//	go run ./examples/wordcount
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"sort"
	"strings"

	adapt "github.com/adaptsim/adapt"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	g := adapt.NewRNG(23)

	cluster, err := adapt.NewEmulationCluster(adapt.EmulationClusterConfig{
		Nodes:            12,
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

	// Fixed-width 8-byte tokens so block boundaries never split a
	// word (the engine splits blocks by byte offset, like HDFS).
	words := []string{"alpha__", "beta___", "gamma__", "delta__"}
	var in bytes.Buffer
	for i := 0; i < 4096; i++ {
		in.WriteString(words[i%3]) // alpha:beta:gamma = 1366:1365:1365
		in.WriteByte(' ')
	}
	client.BlockSize = 512
	if _, _, err := client.CopyFromLocalReportContext(ctx, "wc/in", in.Bytes(), true); err != nil {
		return err
	}

	engine, err := adapt.NewMREngine(nn, adapt.MREngineConfig{
		// demo-sized blocks, production-scale timing
		SimulatedBlockBytes: 64 * 1024 * 1024,
	})
	if err != nil {
		return err
	}
	res, err := engine.Run(adapt.WordCountJob("wc/in", "wc/out", 2), g.Split())
	if err != nil {
		return err
	}

	fmt.Printf("map phase: %.1f s simulated over %d blocks, locality %.1f%%, %d interruptions\n",
		res.Map.Elapsed, res.Map.TotalTasks, 100*res.Map.Locality(), res.Map.Interruptions)

	totals := map[string]int{}
	for _, f := range res.OutputFiles {
		part, err := client.ReadFileContext(ctx, f)
		if err != nil {
			return err
		}
		counts, err := adapt.ParseCounts(part)
		if err != nil {
			return err
		}
		for w, c := range counts {
			totals[w] += c
		}
	}
	keys := make([]string, 0, len(totals))
	for w := range totals {
		keys = append(keys, w)
	}
	sort.Strings(keys)
	fmt.Println("word counts:")
	sum := 0
	for _, w := range keys {
		fmt.Printf("  %-8s %d\n", strings.TrimRight(w, "_"), totals[w])
		sum += totals[w]
	}
	if sum != 4096 {
		return fmt.Errorf("lost words: counted %d of 4096", sum)
	}
	fmt.Println("all 4096 words accounted for despite injected interruptions")
	return nil
}
