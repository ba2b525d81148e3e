// Package workload provides the benchmark applications the paper's
// evaluation runs — primarily Terasort (§V-A) — plus WordCount and
// Grep as additional realistic MapReduce workloads for the examples
// and tests. All generators are deterministic under a seed.
package workload

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/adaptsim/adapt/internal/mapreduce"
	"github.com/adaptsim/adapt/internal/stats"
)

// Terasort record geometry: 100-byte records with a 10-byte printable
// key, mirroring the Hadoop terasort package the paper benchmarks.
const (
	TeraKeyLen    = 10
	TeraRecordLen = 100
)

// teraAlphabet is the printable key alphabet.
const teraAlphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"

// TeraGen produces n 100-byte records with uniformly random 10-byte
// printable keys, each record newline-terminated ("key rowid filler").
func TeraGen(n int, g *stats.RNG) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("workload: record count must be non-negative, got %d", n)
	}
	if g == nil {
		return nil, errors.New("workload: rng must not be nil")
	}
	var buf bytes.Buffer
	buf.Grow(n * TeraRecordLen)
	// layout: key(10) + ' ' + rowid(10) + ' ' + filler + '\n' = 100
	filler := strings.Repeat("X", TeraRecordLen-TeraKeyLen-1-10-1-1)
	for i := 0; i < n; i++ {
		for k := 0; k < TeraKeyLen; k++ {
			buf.WriteByte(teraAlphabet[g.IntN(len(teraAlphabet))])
		}
		buf.WriteByte(' ')
		// zero-padded row id keeps records fixed-width
		fmt.Fprintf(&buf, "%010d", i)
		buf.WriteByte(' ')
		buf.WriteString(filler)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// TeraKeys extracts the keys of a terasort data set in order.
func TeraKeys(data []byte) []string {
	var keys []string
	for off := 0; off+TeraRecordLen <= len(data); off += TeraRecordLen {
		keys = append(keys, string(data[off:off+TeraKeyLen]))
	}
	return keys
}

// teraMapper emits (key, record) per 100-byte record.
type teraMapper struct{}

// Map implements mapreduce.Mapper.
func (teraMapper) Map(block []byte, emit func(key string, value []byte)) error {
	for off := 0; off+TeraRecordLen <= len(block); off += TeraRecordLen {
		rec := block[off : off+TeraRecordLen]
		emit(string(rec[:TeraKeyLen]), rec[:TeraRecordLen-1]) // drop trailing newline
	}
	return nil
}

// teraReducer re-emits records; the framework's per-partition key sort
// plus the range partitioner yields a globally sorted output.
type teraReducer struct{}

// Reduce implements mapreduce.Reducer.
func (teraReducer) Reduce(key string, values [][]byte, emit func(key string, value []byte)) error {
	for _, v := range values {
		emit(key, v)
	}
	return nil
}

// RangePartitioner buckets keys by sorted boundary keys so that the
// concatenation of reduce outputs is globally ordered — the terasort
// trick.
func RangePartitioner(boundaries []string) mapreduce.Partitioner {
	bs := make([]string, len(boundaries))
	copy(bs, boundaries)
	sort.Strings(bs)
	return func(key string, n int) int {
		idx := sort.SearchStrings(bs, key)
		if idx >= n {
			idx = n - 1
		}
		return idx
	}
}

// SampleBoundaries draws sample keys from the data and returns n-1
// boundary keys for n partitions (terasort's input sampler).
func SampleBoundaries(data []byte, parts, samples int, g *stats.RNG) ([]string, error) {
	if parts < 1 {
		return nil, fmt.Errorf("workload: need at least one partition, got %d", parts)
	}
	if parts == 1 {
		return nil, nil
	}
	keys := TeraKeys(data)
	if len(keys) == 0 {
		return nil, errors.New("workload: cannot sample an empty data set")
	}
	if samples <= 0 {
		samples = 100 * parts
	}
	picked := make([]string, 0, samples)
	for i := 0; i < samples; i++ {
		picked = append(picked, keys[g.IntN(len(keys))])
	}
	sort.Strings(picked)
	out := make([]string, 0, parts-1)
	for i := 1; i < parts; i++ {
		out = append(out, picked[i*len(picked)/parts])
	}
	return out, nil
}

// TeraSortJob assembles the terasort job over dfs input/output names.
// boundaries must have reducers-1 entries (from SampleBoundaries) or
// be nil when reducers == 1.
func TeraSortJob(input, output string, reducers int, boundaries []string) (mapreduce.Job, error) {
	if reducers < 1 {
		return mapreduce.Job{}, fmt.Errorf("workload: terasort needs >= 1 reducers, got %d", reducers)
	}
	if len(boundaries) != reducers-1 {
		return mapreduce.Job{}, fmt.Errorf("workload: terasort with %d reducers needs %d boundaries, got %d",
			reducers, reducers-1, len(boundaries))
	}
	var part mapreduce.Partitioner
	if reducers > 1 {
		part = RangePartitioner(boundaries)
	}
	return mapreduce.Job{
		Name:      "terasort",
		Input:     input,
		Output:    output,
		Mapper:    teraMapper{},
		Reducer:   teraReducer{},
		Reducers:  reducers,
		Partition: part,
	}, nil
}

// CheckSorted verifies that the concatenated reduce outputs are in
// non-decreasing key order and contain the expected record count.
func CheckSorted(parts [][]byte, wantRecords int) error {
	records := 0
	prev := ""
	for pi, part := range parts {
		for _, line := range bytes.Split(part, []byte{'\n'}) {
			if len(line) == 0 {
				continue
			}
			tab := bytes.IndexByte(line, '\t')
			if tab < 0 {
				return fmt.Errorf("workload: malformed output line %q", line)
			}
			key := string(line[:tab])
			if key < prev {
				return fmt.Errorf("workload: part %d: key %q < previous %q", pi, key, prev)
			}
			prev = key
			records++
		}
	}
	if records != wantRecords {
		return fmt.Errorf("workload: output has %d records, want %d", records, wantRecords)
	}
	return nil
}

// WordCountJob counts whitespace-separated words.
func WordCountJob(input, output string, reducers int) mapreduce.Job {
	return mapreduce.Job{
		Name:   "wordcount",
		Input:  input,
		Output: output,
		Mapper: mapreduce.MapperFunc(func(block []byte, emit func(string, []byte)) error {
			for _, w := range strings.Fields(string(block)) {
				emit(w, []byte("1"))
			}
			return nil
		}),
		Reducer: mapreduce.ReducerFunc(func(key string, values [][]byte, emit func(string, []byte)) error {
			total := 0
			for _, v := range values {
				n, err := strconv.Atoi(string(v))
				if err != nil {
					return fmt.Errorf("workload: wordcount value %q: %w", v, err)
				}
				total += n
			}
			emit(key, []byte(strconv.Itoa(total)))
			return nil
		}),
		Reducers: reducers,
	}
}

// ParseCounts parses wordcount output ("word\tcount" lines) into a
// map.
func ParseCounts(part []byte) (map[string]int, error) {
	out := make(map[string]int)
	for _, line := range bytes.Split(part, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		tab := bytes.IndexByte(line, '\t')
		if tab < 0 {
			return nil, fmt.Errorf("workload: malformed count line %q", line)
		}
		n, err := strconv.Atoi(string(line[tab+1:]))
		if err != nil {
			return nil, fmt.Errorf("workload: count line %q: %w", line, err)
		}
		out[string(line[:tab])] = n
	}
	return out, nil
}
