package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own side of the call. Spans of one operation share Op across the
// stacks the traced run replays it on.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0: no parent
	Op     uint64  `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"` // since the recorder was made
	End    float64 `json:"end_us"`
}

func (s span) dur() float64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is the untraced state.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records one finished span and returns its id (0 on a nil
// recorder).
func (r *recorder) add(name string, op uint64, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: float64(start.Sub(r.t0)) / 1e3,
		End:   float64(end.Sub(r.t0)) / 1e3,
	})
	return id
}

// nestReplays makes each span named child a child of the span named
// parent that carries the same Op. The two were measured on different
// stacks at different times, so the child's interval is moved to begin
// where its parent begins: the parent's self time is then what the
// shorter stack does not account for.
func nestReplays(spans []span, parent, child string) {
	byOp := make(map[uint64]int)
	for i, s := range spans {
		if s.Name == parent {
			byOp[s.Op] = i
		}
	}
	for i := range spans {
		c := &spans[i]
		if c.Name != child {
			continue
		}
		pi, ok := byOp[c.Op]
		if !ok {
			continue
		}
		shift := spans[pi].Start - c.Start
		c.Parent = spans[pi].ID
		c.Start += shift
		c.End += shift
	}
}

// covered returns, per span id, how much of the span's own interval
// its children cover. Overlapping children count once.
func covered(spans []span) map[int]float64 {
	kids := make(map[int][]span)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]float64, len(kids))
	for id, cs := range kids {
		p := byID[id]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var sum float64
		edge := p.Start
		for _, c := range cs {
			lo, hi := c.Start, c.End
			if lo < edge {
				lo = edge
			}
			if hi > p.End {
				hi = p.End
			}
			if hi > lo {
				sum += hi - lo
				edge = hi
			}
		}
		out[id] = sum
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of that interval its child spans cover.
func selfTimes(spans []span) map[int]float64 {
	cov := covered(spans)
	out := make(map[int]float64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - cov[s.ID]
	}
	return out
}

// layerSelfMS is the typical self time of the spans with this name, in
// milliseconds: their median duration minus the median duration of
// their children. Two medians rather than the median of per-span
// differences, because a replayed child is a different execution of
// the operation and the per-span difference carries the noise of both;
// and unclipped, so that a shorter stack that was not in fact shorter
// shows as a negative number, not as a zero. ok is false when no span
// has the name.
func layerSelfMS(spans []span, name string) (ms float64, ok bool) {
	kids := make(map[int]float64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] += s.dur()
		}
	}
	var durs, covs []float64
	for _, s := range spans {
		if s.Name == name {
			durs = append(durs, s.dur())
			covs = append(covs, kids[s.ID])
		}
	}
	return (median(durs) - median(covs)) / 1e3, len(durs) > 0
}

// writeSpans writes the run's spans as one JSON document; an empty
// path keeps them unwritten.
func writeSpans(path string, spans []span) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
