package hadoopsim

import (
	"fmt"
	"math"
	"sort"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/metrics"
	"github.com/adaptsim/adapt/internal/placement"
	"github.com/adaptsim/adapt/internal/sim"
	"github.com/adaptsim/adapt/internal/stats"
)

// JobSpec describes one job in a multi-job workload: its input size,
// replication, placement policy, and submission time. Each job's
// blocks are placed (and its map tasks become schedulable) when it is
// submitted, mirroring copyFromLocal-then-run usage.
type JobSpec struct {
	Name     string
	Blocks   int
	Replicas int
	// Arrival is the submission time in seconds (0 = at start).
	Arrival float64
	// Policy places the job's blocks at submission. When nil the
	// workload-level default is used.
	Policy placement.Policy
}

// MultiJobConfig drives a multi-job simulation: the shared cluster and
// simulator knobs plus the job list. The embedded Config's Assignment
// field is ignored (each job brings its own placement).
type MultiJobConfig struct {
	// Base supplies cluster, network, scheduler, and fault knobs.
	Base Config
	// Jobs is the workload; order is irrelevant (arrivals sort it).
	Jobs []JobSpec
	// DefaultPolicy places blocks for jobs without their own policy.
	DefaultPolicy placement.Policy
}

// JobResult reports one job of a multi-job run.
type JobResult struct {
	Name      string
	Submitted float64
	Finished  float64
	// Elapsed = Finished − Submitted (includes queueing behind other
	// jobs).
	Elapsed    float64
	Tasks      int
	LocalTasks int
}

// Locality returns the job's data locality.
func (r JobResult) Locality() float64 {
	if r.Tasks == 0 {
		return math.NaN()
	}
	return float64(r.LocalTasks) / float64(r.Tasks)
}

// MultiJobResult is the outcome of a multi-job run.
type MultiJobResult struct {
	Jobs []JobResult
	// Makespan is the completion time of the last job.
	Makespan float64
	// Cluster carries the global counters and overhead breakdown over
	// the whole run (base = Σ over all jobs' tasks × γ).
	Cluster metrics.RunResult
}

// RunMultiJob simulates a FIFO multi-job workload on a shared
// non-dedicated cluster. Placement happens per job at submission
// time; earlier jobs' tasks naturally sit ahead in the node queues
// (Hadoop's default FIFO scheduler).
func RunMultiJob(cfg MultiJobConfig, g *stats.RNG) (*MultiJobResult, error) {
	s, err := newMultiJobSimulator(cfg, g)
	if err != nil {
		return nil, err
	}
	defer s.release()
	s.startMulti()
	res, err := s.drive()
	if err != nil {
		return nil, err
	}

	out := &MultiJobResult{Cluster: res}
	for ji := range s.jobs {
		js := &s.jobs[ji]
		out.Jobs = append(out.Jobs, JobResult{
			Name:       js.name,
			Submitted:  js.arrival,
			Finished:   js.finished,
			Elapsed:    js.finished - js.arrival,
			Tasks:      js.numTasks,
			LocalTasks: js.localDone,
		})
		if js.finished > out.Makespan {
			out.Makespan = js.finished
		}
	}
	return out, nil
}

// newMultiJobSimulator places every job's blocks and builds one
// simulator over the union of their tasks, each tagged with its job.
func newMultiJobSimulator(cfg MultiJobConfig, g *stats.RNG) (*simulator, error) {
	if g == nil {
		return nil, ErrNilRNG
	}
	if len(cfg.Jobs) == 0 {
		return nil, fmt.Errorf("hadoopsim: multi-job workload needs at least one job")
	}
	base := cfg.Base.withDefaults()
	if base.Cluster == nil || base.Cluster.Len() == 0 {
		return nil, ErrNilCluster
	}

	// Sort jobs by arrival (stable on name for determinism).
	jobs := make([]JobSpec, len(cfg.Jobs))
	copy(jobs, cfg.Jobs)
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].Arrival < jobs[j].Arrival })

	// Place every job's blocks up front (placement is a submission-
	// time decision and does not depend on simulation state).
	total := 0
	assignments := make([]*placement.Assignment, len(jobs))
	for i, job := range jobs {
		if job.Blocks <= 0 {
			return nil, fmt.Errorf("hadoopsim: job %q has no blocks", job.Name)
		}
		if job.Arrival < 0 || math.IsNaN(job.Arrival) {
			return nil, fmt.Errorf("hadoopsim: job %q has invalid arrival %g", job.Name, job.Arrival)
		}
		pol := job.Policy
		if pol == nil {
			pol = cfg.DefaultPolicy
		}
		if pol == nil {
			return nil, fmt.Errorf("hadoopsim: job %q has no placement policy", job.Name)
		}
		k := job.Replicas
		if k == 0 {
			k = 1
		}
		asn, err := placement.PlaceAll(pol, job.Blocks, k, g.Split())
		if err != nil {
			return nil, fmt.Errorf("hadoopsim: job %q: %w", job.Name, err)
		}
		assignments[i] = asn
		total += job.Blocks
	}

	// Build a single simulator over the union of all tasks, but with
	// per-job submission times.
	union := &placement.Assignment{Nodes: base.Cluster.Len()}
	union.Replicas = make([][]cluster.NodeID, 0, total)
	for _, asn := range assignments {
		union.Replicas = append(union.Replicas, asn.Replicas...)
	}
	base.Assignment = union
	if err := base.validate(); err != nil {
		return nil, err
	}
	s, err := newSimulator(base, g.Split())
	if err != nil {
		return nil, err
	}

	// Tag tasks with jobs; each job's tasks are submitted at its
	// arrival.
	s.jobs = make([]jobState, len(jobs))
	taskIdx := 0
	for ji, job := range jobs {
		js := &s.jobs[ji]
		js.s = s
		js.name = job.Name
		js.arrival = job.Arrival
		js.firstTask = taskIdx
		js.numTasks = job.Blocks
		js.remaining = job.Blocks
		for t := 0; t < job.Blocks; t++ {
			s.tasks[taskIdx].job = ji
			taskIdx++
		}
	}
	return s, nil
}

// jobState is the live per-job bookkeeping inside the simulator.
type jobState struct {
	s         *simulator
	name      string
	arrival   float64
	firstTask int
	numTasks  int
	remaining int
	localDone int
	finished  float64
	// submission fires at arrival; the job is its handler.
	submission sim.Timer
}

// Fire submits the job: it enqueues the job's tasks (its data has just
// been ingested) and wakes idle nodes.
func (js *jobState) Fire() {
	s := js.s
	s.submit(js.firstTask, js.numTasks)
	s.kickIdle()
	// Holders that were never parked (e.g. at time zero before any
	// assignment) still need a nudge.
	for b := js.firstTask; b < js.firstTask+js.numTasks; b++ {
		for _, h := range s.tasks[b].holders {
			s.tryAssign(h)
		}
	}
}

// startMulti arms the fault processes and schedules the job
// submissions; drive does the rest.
func (s *simulator) startMulti() {
	for i := range s.nodes {
		s.armNextInterruption(i)
	}
	for ji := range s.jobs {
		js := &s.jobs[ji]
		s.arm(&js.submission, js.arrival, js)
	}
}
