package hadoopsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"

	"github.com/adaptsim/adapt/internal/metrics"
)

// Golden runs: every cell of the behaviour matrix, run to completion
// at 64–512 hosts with a Journal attached, reduced to two digests —
// the whole event stream (time bits, kind, node, task) and every
// RunResult value at full precision. testdata/golden.json was
// recorded before the scheduling indexes existed; any drift in event
// order, timing or accounting fails here without the benchmark.
//
//	go test ./internal/hadoopsim -run TestGoldenRuns -update
//
// rewrites the file and is only legitimate for a change that means to
// alter simulated behaviour.

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current simulator")

const goldenPath = "testdata/golden.json"

type goldenDigest struct {
	Journal string `json:"journal"`
	Result  string `json:"result"`
	Events  int    `json:"events"`
}

func digestJournal(j *Journal) string {
	h := sha256.New()
	var buf [8 + 1 + 4 + 4]byte
	for _, e := range j.Events {
		binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(e.Time))
		buf[8] = byte(e.Kind)
		binary.LittleEndian.PutUint32(buf[9:], uint32(int32(e.Node)))
		binary.LittleEndian.PutUint32(buf[13:], uint32(int32(e.Task)))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func resultString(r metrics.RunResult) string {
	b := r.Breakdown
	return fmt.Sprintf("%x|%d|%d|%x|%x|%x|%x|%x|%d|%d|%d|%d|%d|%x",
		r.Elapsed, r.LocalTasks, r.TotalTasks, b.Base, b.Rework, b.Recovery, b.Migration, b.Misc,
		r.MigratedBlocks, r.Interruptions, r.SpeculativeTasks, r.AttemptsLaunched, r.AttemptsCancelled,
		r.WastedSeconds)
}

func digestString(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// runGoldenCell executes one matrix cell at golden size.
func runGoldenCell(t *testing.T, c matrixCell) goldenDigest {
	t.Helper()
	j := &Journal{}
	var result string
	if c.jobs > 0 {
		mj, g := c.multi(t, false)
		mj.Base.Journal = j
		res, err := RunMultiJob(mj, g)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		result = resultString(res.Cluster)
		for _, job := range res.Jobs {
			result += fmt.Sprintf("|%s:%x:%x:%d", job.Name, job.Submitted, job.Finished, job.LocalTasks)
		}
	} else {
		cfg, g := c.single(t, false)
		cfg.Journal = j
		res, err := Run(cfg, g)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		result = resultString(res)
	}
	return goldenDigest{Journal: digestJournal(j), Result: digestString(result), Events: len(j.Events)}
}

func TestGoldenRuns(t *testing.T) {
	cells := matrixCells()
	got := make(map[string]goldenDigest, len(cells))
	for _, c := range cells {
		got[c.name] = runGoldenCell(t, c)
	}
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cells)", goldenPath, len(got))
		return
	}
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	var want map[string]goldenDigest
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d cells, the matrix has %d", goldenPath, len(want), len(got))
	}
	for _, c := range cells {
		w, ok := want[c.name]
		switch {
		case !ok:
			t.Errorf("%s: not in %s", c.name, goldenPath)
		case w != got[c.name]:
			t.Errorf("%s drifted:\n got %+v\nwant %+v", c.name, got[c.name], w)
		}
	}
}
