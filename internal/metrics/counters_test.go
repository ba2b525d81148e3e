package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestResilienceCountersConcurrent(t *testing.T) {
	var c ResilienceCounters
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.ReadRetries.Add(1)
				c.ReadFailovers.Add(1)
				c.ChecksumFailures.Add(1)
				c.InjectedLatencyNanos.Add(int64(time.Microsecond))
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.ReadRetries != workers*per || s.ReadFailovers != workers*per || s.ChecksumFailures != workers*per {
		t.Fatalf("lost updates: %+v", s)
	}
	if want := time.Duration(workers*per) * time.Microsecond; s.InjectedLatency != want {
		t.Fatalf("latency = %s, want %s", s.InjectedLatency, want)
	}
}

func TestResilienceCountersResetAndString(t *testing.T) {
	var c ResilienceCounters
	c.DegradedWrites.Add(3)
	c.NodeDownErrors.Add(7)
	if got := c.Snapshot(); got.DegradedWrites != 3 || got.NodeDownErrors != 7 {
		t.Fatalf("snapshot = %+v", got)
	}
	str := c.Snapshot().String()
	if !strings.Contains(str, "degraded=3") || !strings.Contains(str, "down-errors=7") {
		t.Fatalf("String() = %q", str)
	}
}
