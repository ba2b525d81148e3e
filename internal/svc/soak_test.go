package svc

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/adaptsim/adapt/internal/chaos"
	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/model"
	"github.com/adaptsim/adapt/internal/stats"
)

// TestEstimatesConvergeFromHeartbeatsAlone is the predictor-loop
// soak: M/G/1 churn with known (λ, μ) interrupts the DataNodes in
// virtual time with no chaos Observer attached, and the NameNode —
// whose cluster view starts with no availability information at all —
// must recover the injected parameters to within 20% purely from the
// heartbeats it receives and the silences between them, then place an
// ADAPT-distributed file accordingly. The churn runs twice, on fresh
// clusters with the same seeds, and must give bit-identical estimates:
// no wall-clock read reaches the estimator.
func TestEstimatesConvergeFromHeartbeatsAlone(t *testing.T) {
	// The ground-truth cluster drives the churn generator; the
	// NameNode is booted from an availability-stripped copy so every
	// (λ, μ) it learns can only have come from what it observed.
	truth, err := cluster.NewEmulation(cluster.EmulationConfig{
		Nodes:            4,
		InterruptedRatio: 0.5,
	}, stats.NewRNG(21))
	if err != nil {
		t.Fatal(err)
	}
	if truth.InterruptedCount() != 2 {
		t.Fatalf("interrupted = %d, want 2", truth.InterruptedCount())
	}
	lc, est := churnOnVirtualClock(t, truth)
	t.Logf("learned %v", est)
	if _, again := churnOnVirtualClock(t, truth); !reflect.DeepEqual(est, again) {
		t.Fatalf("the same churn learned different estimates:\n%v\n%v", est, again)
	}
	for id := cluster.NodeID(0); int(id) < truth.Len(); id++ {
		want := truth.Node(id).Availability
		got := est[id]
		if want.Dedicated() {
			if got.Lambda != 0 {
				t.Errorf("node %d: dedicated node estimated λ=%g", id, got.Lambda)
			}
			continue
		}
		if relErr(got.Lambda, want.Lambda) > 0.20 {
			t.Errorf("node %d: λ̂=%g vs λ=%g (%.1f%% off)", id, got.Lambda, want.Lambda, 100*relErr(got.Lambda, want.Lambda))
		}
		if relErr(got.Mu, want.Mu) > 0.20 {
			t.Errorf("node %d: μ̂=%g vs μ=%g (%.1f%% off)", id, got.Mu, want.Mu, 100*relErr(got.Mu, want.Mu))
		}
	}

	// The learned weights must steer ADAPT placement: a fresh file
	// distributed with the availability-aware policy puts more
	// replicas on the reliable half of the cluster.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cl := lc.Client("shell")
	defer cl.Close()
	data := make([]byte, 12*1024)
	if _, _, err := cl.CopyFromLocal(ctx, "soak", data, true); err != nil {
		t.Fatal(err)
	}
	counts, err := cl.BlockDistribution(ctx, "soak")
	if err != nil {
		t.Fatal(err)
	}
	flaky, reliable := 0, 0
	for id := 0; id < truth.Len(); id++ {
		if truth.Node(cluster.NodeID(id)).Interrupted() {
			flaky += counts[id]
		} else {
			reliable += counts[id]
		}
	}
	if reliable <= flaky {
		t.Fatalf("ADAPT placement ignored learned weights: flaky=%d reliable=%d (%v)", flaky, reliable, counts)
	}
}

// heldFlips is the soak's chaos Target: it holds each liveness flip
// the engine makes until the soak has heartbeated up to the flip's
// instant.
type heldFlips []flip

type flip struct {
	id cluster.NodeID
	up bool
}

func (h *heldFlips) SetNodeUp(id cluster.NodeID, up bool) error {
	*h = append(*h, flip{id, up})
	return nil
}

// churnOnVirtualClock boots a cluster that knows nothing of truth, on a
// virtual clock, and drives 4000 events of truth's churn against it.
// Every live DataNode beats at least every two seconds of virtual time,
// under the default 3 s SuspectAfter, and at each churn instant, so the spans the NameNode measures are the
// injected ones; an interrupted node is silent, and comes back as a new
// incarnation that beats at once. It returns the cluster, quiesced,
// with the estimates its NameNode learned.
func churnOnVirtualClock(t *testing.T, truth *cluster.Cluster) (*LocalCluster, map[cluster.NodeID]model.Availability) {
	t.Helper()
	stripped, err := cluster.New(make([]cluster.Node, truth.Len()))
	if err != nil {
		t.Fatal(err)
	}
	lc, err := StartLocalCluster(stripped, stats.NewRNG(22), nil, NameNodeConfig{
		BlockSize: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = lc.Close(ctx)
	})
	clk := newFakeClock()
	setClock(lc, clk.now)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var flips heldFlips
	eng, err := chaos.New(chaos.Config{Cluster: truth, Target: &flips}, stats.NewRNG(23))
	if err != nil {
		t.Fatal(err)
	}
	flush := func() {
		if err := lc.FlushHeartbeats(ctx); err != nil {
			t.Fatal(err)
		}
	}
	at := 0.0 // virtual seconds since the churn began
	beatUntil := func(to float64) {
		for next := math.Min(at+2, to); ; next = math.Min(at+2, to) {
			clk.advance(time.Duration((next - at) * float64(time.Second)))
			at = next
			flush()
			if at == to {
				return
			}
		}
	}
	apply := func() {
		for _, f := range flips {
			if err := lc.SetNodeUp(f.id, f.up); err != nil {
				t.Fatal(err)
			}
			if f.up {
				if err := lc.DNs[f.id].FlushHeartbeat(ctx); err != nil {
					t.Fatal(err)
				}
			}
		}
		flips = flips[:0]
	}

	flush() // the baseline beats
	for i := 0; i < 4000; i++ {
		ev, ok, err := eng.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("churn schedule exhausted early")
		}
		beatUntil(ev.Time)
		apply()
	}
	if err := eng.Quiesce(); err != nil {
		t.Fatal(err)
	}
	beatUntil(eng.Now())
	apply()
	return lc, lc.NN.Estimates()
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / want
}

// TestStaleHeartbeatRejected: a replayed or older sequence number must
// be refused, so a delayed duplicate is not counted as a beat.
func TestStaleHeartbeatRejected(t *testing.T) {
	stripped, err := cluster.New(make([]cluster.Node, 2))
	if err != nil {
		t.Fatal(err)
	}
	lc, err := StartLocalCluster(stripped, stats.NewRNG(31), nil, NameNodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = lc.Close(ctx)
	})

	if err := lc.NN.foldHeartbeat(heartbeatParams{Node: 0, Seq: 3}); err != nil {
		t.Fatal(err)
	}
	err = lc.NN.foldHeartbeat(heartbeatParams{Node: 0, Seq: 3})
	if !errors.Is(err, ErrStaleHeartbeat) {
		t.Fatalf("replayed seq accepted: %v", err)
	}
	err = lc.NN.foldHeartbeat(heartbeatParams{Node: 0, Seq: 2})
	if !errors.Is(err, ErrStaleHeartbeat) {
		t.Fatalf("older seq accepted: %v", err)
	}
	if err := lc.NN.foldHeartbeat(heartbeatParams{Node: 0, Seq: 4}); err != nil {
		t.Fatal(err)
	}
	if err := lc.NN.foldHeartbeat(heartbeatParams{Node: 99, Seq: 1}); !errors.Is(err, ErrUnknownDataNode) {
		t.Fatalf("unknown node accepted: %v", err)
	}
}
