package wal

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

// BenchmarkAppend times one durable append (frame, write, fsync) of a
// 256-byte record, about the size of the durable NameNode's create
// record.
//
//   - alone: one goroutine appends.
//   - polled: another goroutine meanwhile calls RecordsSinceSnapshot
//     in a loop, as the NameNode's checkpoint cadence reads every shard
//     log after every mutation; poll-ns is that call's mean latency
//     and max-poll-us its slowest.
func BenchmarkAppend(b *testing.B) {
	rec := bytes.Repeat([]byte("r"), 256)
	run := func(b *testing.B, poll bool) {
		l, err := Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		var (
			stop           = make(chan struct{})
			wg             sync.WaitGroup
			polls          int64
			spent, slowest time.Duration
		)
		if poll {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					start := time.Now()
					_ = l.RecordsSinceSnapshot()
					d := time.Since(start)
					polls++
					spent += d
					slowest = max(slowest, d)
				}
			}()
		}
		b.SetBytes(int64(len(rec)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := l.Append(rec); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		close(stop)
		wg.Wait()
		if polls > 0 {
			b.ReportMetric(float64(spent.Nanoseconds())/float64(polls), "poll-ns")
			b.ReportMetric(float64(slowest.Microseconds()), "max-poll-us")
		}
	}
	b.Run("alone", func(b *testing.B) { run(b, false) })
	b.Run("polled", func(b *testing.B) { run(b, true) })
}
