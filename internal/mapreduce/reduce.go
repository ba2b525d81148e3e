package mapreduce

import (
	"sort"

	"github.com/adaptsim/adapt/internal/cluster"
)

// ReducerPlacement selects which nodes host the reduce tasks.
type ReducerPlacement int

const (
	// ReducersRandom places reducers on uniformly random nodes (stock
	// Hadoop, and the paper's baseline — §IV-C: "There is no immediate
	// relationship between the data placement strategy and the reduce
	// phase").
	ReducersRandom ReducerPlacement = iota + 1
	// ReducersAvailabilityAware implements the paper's future-work
	// direction ("optimize the reduce phase performance"): reducers
	// run on the nodes with the best model-expected task times, so a
	// long-running reduce is not parked on a host that will spend
	// half the shuffle window down.
	ReducersAvailabilityAware
)

func (p ReducerPlacement) String() string {
	switch p {
	case ReducersRandom:
		return "random"
	case ReducersAvailabilityAware:
		return "availability-aware"
	default:
		return "unknown"
	}
}

// placeReducers chooses one host per reduce partition of a job run on
// cluster snapshot cl.
func placeReducers(cl *cluster.Cluster, reducers int, placementMode ReducerPlacement, g interface{ IntN(int) int }) []cluster.NodeID {
	n := cl.Len()
	out := make([]cluster.NodeID, reducers)
	switch placementMode {
	case ReducersAvailabilityAware:
		// Rank nodes by slowdown factor (ascending); assign reducers
		// round-robin over the best ceil(reducers/n) tier.
		type ranked struct {
			id       cluster.NodeID
			slowdown float64
		}
		rs := make([]ranked, n)
		for i := 0; i < n; i++ {
			node := cl.Node(cluster.NodeID(i))
			rs[i] = ranked{
				id:       cluster.NodeID(i),
				slowdown: node.Availability.SlowdownFactor(1),
			}
		}
		sort.SliceStable(rs, func(a, b int) bool { return rs[a].slowdown < rs[b].slowdown })
		for r := 0; r < reducers; r++ {
			out[r] = rs[r%n].id
		}
	default:
		for r := 0; r < reducers; r++ {
			out[r] = cluster.NodeID(g.IntN(n))
		}
	}
	return out
}
