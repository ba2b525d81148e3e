package svc

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/adaptsim/adapt/internal/cluster"
)

// NodeState is the failure detector's belief about one DataNode.
type NodeState int

// Detector states. A node is Alive while heartbeats arrive on time,
// Suspect once a beat is overdue (possibly a transient loss), and
// Dead once the silence exceeds
// the dead deadline, at which point the node's store is marked down
// and the repair scheduler is kicked. Any later heartbeat revives the
// node straight to Alive.
const (
	NodeAlive NodeState = iota
	NodeSuspect
	NodeDead
)

func (st NodeState) String() string {
	switch st {
	case NodeAlive:
		return "alive"
	case NodeSuspect:
		return "suspect"
	case NodeDead:
		return "dead"
	default:
		return "unknown"
	}
}

// DetectorConfig tunes the heartbeat failure detector and, through
// SuspectAfter, what the heartbeat fold counts as an interruption
// (NameNodeConfig.Detector). Zero values take the defaults noted per
// field.
type DetectorConfig struct {
	// SuspectAfter is the heartbeat age promoting Alive → Suspect
	// (default 3s; set it a few beat intervals out).
	SuspectAfter time.Duration
	// DeadAfter is the age promoting → Dead (default 10s, or three
	// times SuspectAfter once SuspectAfter reaches 10s). A non-zero
	// DeadAfter must exceed SuspectAfter.
	DeadAfter time.Duration
}

// detectorInterval is the failure detector's check cadence.
const detectorInterval = time.Second

// errBadDetector marks a DetectorConfig NewNameNodeServer refuses.
var errBadDetector = errors.New("svc: bad detector config")

// defaults fills the zero thresholds and rejects a DeadAfter at or
// below SuspectAfter.
func (cfg *DetectorConfig) defaults() error {
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 3 * time.Second
	}
	if cfg.DeadAfter == 0 {
		cfg.DeadAfter = 10 * time.Second
		if cfg.DeadAfter <= cfg.SuspectAfter {
			cfg.DeadAfter = 3 * cfg.SuspectAfter
		}
	}
	if cfg.DeadAfter <= cfg.SuspectAfter {
		return fmt.Errorf("%w: dead-after %s must exceed suspect-after %s", errBadDetector, cfg.DeadAfter, cfg.SuspectAfter)
	}
	return nil
}

// StartFailureDetector begins promoting silent DataNodes
// Alive → Suspect → Dead on heartbeat age, with the thresholds of
// NameNodeConfig.Detector. Nodes that have never heartbeated are not
// judged (the cluster may still be booting). Call at most once;
// Shutdown/Crash stops the loop.
func (s *NameNodeServer) StartFailureDetector() {
	s.loops.Add(1)
	go func() {
		defer s.loops.Done()
		t := time.NewTicker(detectorInterval)
		defer t.Stop()
		for {
			select {
			case <-s.stopCh:
				return
			case <-t.C:
				s.TickDetector()
			}
		}
	}()
}

// TickDetector runs one detector sweep at the server clock's current
// instant — exported so tests on a virtual clock can drive promotions
// without waiting out wall clocks.
func (s *NameNodeServer) TickDetector() {
	cfg, now := s.detector, s.now()
	var died []cluster.NodeID
	s.hbMu.Lock()
	ids := make([]cluster.NodeID, 0, len(s.hb))
	for id := range s.hb {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		st := s.hb[id]
		age := now.Sub(st.lastBeat)
		next := NodeAlive
		switch {
		case age >= cfg.DeadAfter:
			next = NodeDead
		case age >= cfg.SuspectAfter:
			next = NodeSuspect
		}
		if next == NodeDead && st.state != NodeDead {
			died = append(died, id)
		}
		st.state = next
	}
	s.hbMu.Unlock()
	for _, id := range died {
		// The belief flip: placements, reads, and fsck all stop
		// counting this node's replicas as live.
		s.stores[id].SetUp(false)
		s.nn.Resilience().NodesDeclaredDead.Add(1)
	}
	if len(died) > 0 {
		s.kickRepair()
	}
}

// DetectorStates returns the current per-node belief for every node
// that has ever heartbeated.
func (s *NameNodeServer) DetectorStates() map[cluster.NodeID]NodeState {
	s.hbMu.Lock()
	defer s.hbMu.Unlock()
	out := make(map[cluster.NodeID]NodeState, len(s.hb))
	for id, st := range s.hb {
		out[id] = st.state
	}
	return out
}
