package dfs

import (
	"fmt"
	"sync"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/metrics"
)

// DynamicRFConfig tunes the availability- and popularity-driven
// dynamic replication controller. Each file's replication target is
// recomputed on every MaintainReplication pass from two signals:
//
//   - read heat: an exponentially-decayed count of block reads since
//     the last pass (popularity — hot files earn extra replicas so
//     more map tasks can run data-local);
//   - cluster volatility: the mean gamma-normalized expected task
//     time E[T](γ)/γ across nodes (availability — a volatile cluster,
//     one at or above dynRFVolatility, loses replicas faster, so every
//     file earns one more).
//
// The proposal starts at MinRF and gains one step per satisfied
// signal (volatile cluster, hot file, very hot file), clamped to
// [MinRF, MaxRF]. The applied target follows the proposal through a
// hysteresis gate: the same proposal must repeat for Hysteresis
// consecutive passes before the target moves, and it moves by one
// replica per pass — so a flapping signal can never thrash the
// repair path. Read heat decays by dynRFDecay per pass, not per
// wallclock second, keeping the controller a pure function of the
// observed operation sequence (deterministic replay).
type DynamicRFConfig struct {
	// MinRF is the hard floor: no file's target ever drops below it
	// (default 2).
	MinRF int
	// MaxRF caps the target (default 5).
	MaxRF int
	// HotReads is the decayed read count at which a file counts as
	// hot; four times it counts as very hot (default 3).
	HotReads float64
	// Hysteresis is the number of consecutive passes a changed
	// proposal must persist before the applied target moves one step
	// (default 2).
	Hysteresis int
}

// Dynamic replication constants.
const (
	// dynRFVolatility is the mean E[T](γ)/γ ratio at or above which the
	// cluster counts as volatile (1.0 is a failure-free cluster).
	dynRFVolatility = 1.5
	// dynRFDecay multiplies each file's read heat once per pass.
	dynRFDecay = 0.5
)

func (c DynamicRFConfig) withDefaults() DynamicRFConfig {
	if c.MinRF == 0 {
		c.MinRF = 2
	}
	if c.MaxRF == 0 {
		c.MaxRF = 5
	}
	if c.HotReads == 0 {
		c.HotReads = 3
	}
	if c.Hysteresis == 0 {
		c.Hysteresis = 2
	}
	return c
}

func (c DynamicRFConfig) validate() error {
	if c.MinRF < 1 {
		return fmt.Errorf("%w: dynamic RF floor must be at least 1, got %d", ErrBadConfig, c.MinRF)
	}
	if c.MaxRF < c.MinRF {
		return fmt.Errorf("%w: dynamic RF ceiling %d below floor %d", ErrBadConfig, c.MaxRF, c.MinRF)
	}
	if c.HotReads <= 0 {
		return fmt.Errorf("%w: dynamic RF hot-read threshold must be positive, got %g", ErrBadConfig, c.HotReads)
	}
	if c.Hysteresis < 1 {
		return fmt.Errorf("%w: dynamic RF hysteresis must be at least 1, got %d", ErrBadConfig, c.Hysteresis)
	}
	return nil
}

// fileRF is one file's controller state.
type fileRF struct {
	heat     float64 // decayed read count
	applied  int     // current target the repair path enforces
	proposal int     // last differing proposal seen
	streak   int     // consecutive passes the proposal persisted
}

// dynRF is the controller instance attached to a NameNode.
type dynRF struct {
	cfg      DynamicRFConfig
	counters *metrics.ResilienceCounters

	mu    sync.Mutex
	files map[string]*fileRF
}

func newDynRF(cfg DynamicRFConfig, counters *metrics.ResilienceCounters) *dynRF {
	return &dynRF{cfg: cfg, counters: counters, files: make(map[string]*fileRF)}
}

// observeRead bumps a file's read heat by blocks block reads; called
// from the block read path.
func (d *dynRF) observeRead(name string, blocks int) {
	if name == "" {
		return
	}
	d.mu.Lock()
	d.state(name, 0).heat += float64(blocks)
	d.mu.Unlock()
}

// state returns the file's controller state, creating it with the
// declared replication (clamped into the controller's band) on first
// sight.
func (d *dynRF) state(name string, declared int) *fileRF {
	st, ok := d.files[name]
	if !ok {
		st = &fileRF{applied: clampRF(declared, d.cfg.MinRF, d.cfg.MaxRF)}
		d.files[name] = st
	}
	return st
}

// step advances the controller one maintenance pass for the file and
// returns the replication target the repair path should enforce now.
func (d *dynRF) step(name string, declared int, vol float64) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.state(name, declared)

	prop := d.cfg.MinRF
	if vol >= dynRFVolatility {
		prop++
	}
	if st.heat >= d.cfg.HotReads {
		prop++
	}
	if st.heat >= 4*d.cfg.HotReads {
		prop++
	}
	prop = clampRF(prop, d.cfg.MinRF, d.cfg.MaxRF)
	st.heat *= dynRFDecay

	if prop == st.applied {
		st.streak = 0
		return st.applied
	}
	if prop == st.proposal {
		st.streak++
	} else {
		st.proposal = prop
		st.streak = 1
	}
	if st.streak < d.cfg.Hysteresis {
		return st.applied
	}
	// The proposal has persisted: move one step toward it and demand
	// renewed agreement before the next step.
	st.streak = 0
	if prop > st.applied {
		st.applied++
		d.counters.RFRaises.Add(1)
	} else {
		st.applied--
		d.counters.RFLowers.Add(1)
	}
	return st.applied
}

// forget drops a deleted file's state.
func (d *dynRF) forget(name string) {
	d.mu.Lock()
	delete(d.files, name)
	d.mu.Unlock()
}

// volatility returns the cluster's mean gamma-normalized expected
// task time, the controller's availability signal. Per-node ratios
// are capped at 10 so a single unstable host (diverging E[T]) cannot
// saturate the mean.
func (d *dynRF) volatility(cl *cluster.Cluster) float64 {
	n := cl.Len()
	if n == 0 {
		return 1
	}
	var sum float64
	for i := 0; i < n; i++ {
		et := cl.Node(cluster.NodeID(i)).Availability.ExpectedTaskTime(defaultGamma)
		ratio := et / defaultGamma
		if !(ratio <= 10) { // also catches NaN/+Inf from unstable hosts
			ratio = 10
		}
		sum += ratio
	}
	return sum / float64(n)
}

func clampRF(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// EnableDynamicRF attaches the dynamic replication controller: block
// reads feed per-file popularity, and every MaintainReplication pass
// derives its target replication from the controller instead of the
// file's static Replication field (repairing up or pruning surplus
// down through the same write-ahead path). Enabling replaces any
// previous controller and its accumulated state.
func (nn *NameNode) EnableDynamicRF(cfg DynamicRFConfig) error {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return err
	}
	nn.dynamic.Store(newDynRF(cfg, nn.io.counters))
	return nil
}
