package svc

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/model"
	"github.com/adaptsim/adapt/internal/shard"
)

// rawValue is params bytes sent as they are, for tests that send what
// no codec writes.
type rawValue []byte

func (v rawValue) appendWire(b []byte) []byte { return append(b, v...) }

// codec is a pointer to an RPC value: it encodes and decodes.
type codec interface {
	wireValue
	valueReader
}

// valueSamples is one value of every params and result type of the
// nn.* and dn.* methods, and of every transport payload, each field —
// and each field of every nested value, list element and map entry —
// non-zero.
func valueSamples() []codec {
	meta := dfs.FileMeta{Name: "/logs/a", Size: 300, BlockSize: 256, Replication: 2, Blocks: []dfs.BlockMeta{
		{ID: 7, File: "/logs/a", Index: 1, Size: 256, Replicas: []cluster.NodeID{3, 1}, Checksum: 0xdeadbeef},
		{ID: 1 << 40, File: "/logs/other", Index: -2, Size: 44, Replicas: []cluster.NodeID{-1}, Checksum: 1},
	}}
	return []codec{
		&allocateParams{Name: "/f", Size: 1 << 33, Adapt: true},
		&allocateResult{Alloc: dfs.Allocation{Name: "/f", Size: 9, BlockSize: 4, Replication: 3,
			Blocks: []dfs.AllocatedBlock{{ID: 5, Holders: []cluster.NodeID{2, 8, 4}}, {ID: 6, Holders: []cluster.NodeID{1}}},
			Seed:   1<<63 + 5}, Down: []cluster.NodeID{4, 9}},
		&completeParams{Name: "/logs/a", Blocks: meta.Blocks,
			Report: dfs.WriteReport{Blocks: 1, TargetReplication: 2, MinReplication: 3, DegradedBlocks: 4, Failovers: 5, Retries: 6}},
		&nameParams{Name: "/ünïcode name"},
		&locateResult{Meta: meta, Down: []cluster.NodeID{1}},
		(*fileMeta)(&meta),
		&clusterResult{DataNodes: []string{"127.0.0.1:1", "[::1]:2"}, Breaker: BreakerConfig{Threshold: 3, Cooldown: 750 * time.Millisecond},
			Hedge:      HedgeConfig{Quantile: 0.95, Multiplier: 2.5, MinDelay: 20 * time.Millisecond, Window: 128, MinSamples: 16},
			HedgeReads: true},
		&heartbeatParams{Node: 3, Epoch: 1<<63 | 9, Seq: 12},
		&listResult{Files: []string{"/a", "/b/c"}},
		&movedResult{Moved: 17},
		&distResult{Counts: []int{4, 1, 9}},
		&estimatesResult{Estimates: map[cluster.NodeID]model.Availability{
			9: {Lambda: 1e-4, Mu: 120}, 2: {Lambda: 0.5, Mu: 3.25}, 5: {Lambda: 2, Mu: 1}}},
		&healthReport{Files: 1, Blocks: 2, UnderReplicated: 3, Unavailable: 4,
			Details: []dfs.FileHealth{{Name: "/a", Blocks: 5, UnderReplicated: 6, Unavailable: 7}}, Shards: 4,
			Tenants: []shard.TenantUsage{{Tenant: "t1", Quota: shard.Quota{MaxFiles: 10, MaxBytes: 1 << 30, MaxRF: 3},
				Usage: shard.Usage{Files: 2, Bytes: 4096}}}},
		&getParams{Block: 1<<40 + 3},
		&storedResult{Size: 4096, Sum: 0xcafe, OK: true},
		&blocksResult{Blocks: []dfs.BlockID{3, 1 << 50}},
		// The transport's own payloads.
		&callHeader{DeadlineMS: 1500, From: "shell", Method: "nn.locate"},
		&openWrite{Block: 1 << 40, Size: 4096, DeadlineMS: 750, From: "dn1",
			Chain: []chainEntry{{Node: 2, Addr: "127.0.0.1:9002"}, {Node: -1, Addr: "[::1]:9005"}}},
		&openRead{Block: 9, DeadlineMS: 20, From: "shell"},
		&readHdr{Size: 1 << 20},
		&ackList{{Node: 3, OK: true, failure: failure{Transient: true, Code: "node_down", Msg: "dfs: node 3 down"}},
			{Node: 1 << 40, OK: true, failure: failure{Transient: true, Code: "c", Msg: "ü"}}},
		&failure{Transient: true, Code: "file_not_found", Msg: "dfs: file not found: \"/f\""},
		// The journal's own: a record's relocation (its creates and
		// deletes are the fileMeta and nameParams above) and a
		// checkpoint.
		&relocation{Name: "/logs/a", Blocks: meta.Blocks},
		&namespaceImage{&meta, {Name: "/logs/b", Size: 1, BlockSize: 2, Replication: 3, Blocks: meta.Blocks[1:]}},
	}
}

// requireNonZero fails t for the first zero value under v: a field, a
// list element or a map entry, or an empty list or map.
func requireNonZero(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			t.Fatalf("%s is nil", path)
		}
		requireNonZero(t, path, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			requireNonZero(t, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
	case reflect.Slice:
		if v.Len() == 0 {
			t.Fatalf("%s is empty", path)
		}
		for i := 0; i < v.Len(); i++ {
			requireNonZero(t, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Map:
		if v.Len() == 0 {
			t.Fatalf("%s is empty", path)
		}
		for it := v.MapRange(); it.Next(); {
			requireNonZero(t, fmt.Sprintf("%s[%v] key", path, it.Key()), it.Key())
			requireNonZero(t, fmt.Sprintf("%s[%v]", path, it.Key()), it.Value())
		}
	default:
		if v.IsZero() {
			t.Fatalf("%s is zero", path)
		}
	}
}

// fresh returns a zero value of c's type.
func fresh(c codec) codec {
	return reflect.New(reflect.TypeOf(c).Elem()).Interface().(codec)
}

// TestValuesRoundTrip: every RPC value survives its codec field for
// field. Each sample has every field set, so a field added to a value
// without a codec fails here. Its encoding is a function of the value
// (the estimate map's order too); every strict prefix of it and the
// encoding with a byte appended are refused.
func TestValuesRoundTrip(t *testing.T) {
	for _, v := range valueSamples() {
		name := fmt.Sprintf("%T", v)
		requireNonZero(t, name, reflect.ValueOf(v))
		enc := v.appendWire(nil)
		for i := 0; i < 8; i++ {
			if again := v.appendWire(nil); !bytes.Equal(again, enc) {
				t.Fatalf("%s encodes two ways: %x and %x", name, enc, again)
			}
		}
		got := fresh(v)
		if !decodeValue(enc, got) {
			t.Fatalf("%s: its own %d-byte encoding does not decode", name, len(enc))
		}
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("%s round trip:\n got %+v\nwant %+v", name, got, v)
		}
		for n := range enc {
			if decodeValue(enc[:n], fresh(v)) {
				t.Fatalf("%s: a %d-byte prefix of its %d-byte encoding decodes", name, n, len(enc))
			}
		}
		if decodeValue(append(enc, 0), fresh(v)) {
			t.Fatalf("%s: a trailing byte was accepted", name)
		}
	}
}

// TestValueDecodersRefuseNonCanonical: bytes no encoder writes are
// refused, so a decoded value re-encodes to the bytes it came from.
func TestValueDecodersRefuseNonCanonical(t *testing.T) {
	entry := func(b []byte, n cluster.NodeID) []byte { return appendFloat(appendFloat(appendNode(b, n), 1), 2) }
	for name, tc := range map[string]struct {
		p []byte
		v codec
	}{
		"bool byte 2":                  {append(appendInt(appendText(nil, "f"), 1), 2), &allocateParams{}},
		"estimates out of order":       {entry(entry(appendUint32(nil, 2), 5), 2), &estimatesResult{}},
		"estimates with a repeat":      {entry(entry(appendUint32(nil, 2), 5), 5), &estimatesResult{}},
		"a count past the bytes left":  {append(appendUint32(nil, 3), make([]byte, 23)...), &blocksResult{}},
		"a length past the bytes left": {append(appendUint32(nil, 5), "four"...), &nameParams{}},
		"a name that is not UTF-8":     {appendText(nil, "/a\xff"), &nameParams{}},
		"a status byte 2":              {append(appendNode(appendUint32(nil, 1), 4), 2, 0, 0, 0, 0, 0, 0, 0, 0, 0), &ackList{}},
		"a transient byte 2":           {append([]byte{2}, make([]byte, 8)...), &failure{}},
		"a chain past maxChainLen":     {openWrite{Block: 1, Chain: make([]chainEntry, maxChainLen+1)}.appendWire(nil), &openWrite{}},
		"an ack list past a chain's":   {make(ackList, maxChainLen+2).appendWire(nil), &ackList{}},
		"a negative block size":        {openWrite{Block: 1, Size: -1}.appendWire(nil), &openWrite{}},
		"a negative read size":         {readHdr{Size: -1}.appendWire(nil), &readHdr{}},
		"an endpoint not UTF-8":        {callHeader{From: "dn\xff", Method: "nn.list"}.appendWire(nil), &callHeader{}},
		"an address not UTF-8":         {openWrite{Chain: []chainEntry{{Node: 1, Addr: "\xc3"}}}.appendWire(nil), &openWrite{}},
	} {
		if decodeValue(tc.p, tc.v) {
			t.Errorf("%s: %x decoded to %+v", name, tc.p, tc.v)
		}
	}
	if !decodeValue(entry(entry(appendUint32(nil, 2), 2), 5), &estimatesResult{}) {
		t.Fatal("estimates in ascending order were refused")
	}
	var files listResult
	if !decodeValue(appendUint32(nil, 0), &files) || files.Files != nil {
		t.Fatalf("an empty list decoded to %#v, want nil", files.Files)
	}
}

// TestDecodeAllocs: a decode allocates the strings and lists of the
// value it reads and nothing else, no reader of its own on the heap:
// for an nn.locate result, and for a journal create record as a
// replay folds it.
func TestDecodeAllocs(t *testing.T) {
	var loc *locateResult
	for _, v := range valueSamples() {
		if l, ok := v.(*locateResult); ok {
			loc = l
		}
	}
	meta, enc := loc.Meta, loc.appendWire(nil)
	// The name, the block list and the down list, and each block's file
	// name and replica list.
	want := float64(3 + 2*len(meta.Blocks))
	if got := testing.AllocsPerRun(100, func() {
		var v locateResult
		if !decodeValue(enc, &v) {
			panic("a locateResult's own encoding does not decode")
		}
	}); got > want {
		t.Errorf("decoding a locateResult allocates %.0f times, want at most %.0f", got, want)
	}
	rec := journalRecord(recordCreate, (*fileMeta)(&meta))
	table := map[string]*dfs.FileMeta{meta.Name: nil}
	// The FileMeta the table keeps, its name and its block list, and
	// each block's file name and replica list.
	want = float64(3 + 2*len(meta.Blocks))
	if got := testing.AllocsPerRun(100, func() {
		if !foldRecord(table, rec) {
			panic("a create record does not fold")
		}
	}); got > want {
		t.Errorf("folding a create record allocates %.0f times, want at most %.0f", got, want)
	}
}

// FuzzDecodeValues feeds arbitrary bytes to every RPC value's decoder.
// None may panic or allocate more than a small multiple of its input,
// and whatever decodes must re-encode to the same bytes.
func FuzzDecodeValues(f *testing.F) {
	types := valueSamples()
	for _, v := range types {
		f.Add(v.appendWire(nil))
	}
	f.Add([]byte{})
	f.Add([]byte(`{"name":"/f"}`))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		bound := 1024 + 8*uint64(len(data))
		for _, sample := range types {
			// The heap counter is the process's: a decode measured over
			// the bound is measured again, and its least count is its
			// own, since the same bytes decode the same way.
			var v codec
			var ok bool
			grew := uint64(math.MaxUint64)
			for try := 0; try < 3 && grew > bound; try++ {
				v = fresh(sample)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				ok = decodeValue(data, v)
				runtime.ReadMemStats(&after)
				grew = min(grew, after.TotalAlloc-before.TotalAlloc)
			}
			if grew > bound {
				t.Fatalf("%T: decoding %d bytes allocated %d", v, len(data), grew)
			}
			if ok {
				if again := v.appendWire(nil); !bytes.Equal(again, data) {
					t.Fatalf("%T: %x decoded, and re-encodes as %x", v, data, again)
				}
			}
		}
	})
}
