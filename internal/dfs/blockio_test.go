package dfs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/adaptsim/adapt/internal/cluster"
)

// refusingStore is an in-memory store that answers every Put and Get
// with refuse while it is non-nil — a DataNode whose admission gate is
// shut (ErrOverload), whose wire is cut (ErrNodeDown), or whose disk is
// bad (anything else).
type refusingStore struct {
	localStore
	refuse error
}

func (s *refusingStore) Put(ctx context.Context, id BlockID, data []byte) (uint32, error) {
	if s.refuse != nil {
		return 0, fmt.Errorf("store %d: %w", s.dn.id, s.refuse)
	}
	return s.localStore.Put(ctx, id, data)
}

func (s *refusingStore) Get(ctx context.Context, id BlockID, dst []byte) (GetResult, error) {
	if s.refuse != nil {
		return GetResult{}, fmt.Errorf("store %d: %w", s.dn.id, s.refuse)
	}
	return s.localStore.Get(ctx, id, dst)
}

// TestShedBlocksAreOverloadNotOutage: a block every answering DataNode
// shed is ErrOverload — typed, immediate, the caller's to back off from —
// on the write loop and on both read ladders; down nodes beside the
// shedding ones do not change that, any other refusal does.
func TestShedBlocksAreOverloadNotOutage(t *testing.T) {
	stores := make([]*refusingStore, 3)
	ifaces := make([]BlockStore, 3)
	for i := range stores {
		stores[i] = &refusingStore{localStore: localStore{NewDataNode(cluster.NodeID(i))}}
		ifaces[i] = stores[i]
	}
	io := NewBlockIO(ifaces)
	ctx := context.Background()
	data := []byte("one block")
	alloc := func(id BlockID) *Allocation {
		return &Allocation{Name: "f", Size: int64(len(data)), BlockSize: 64, Replication: 2,
			Blocks: []AllocatedBlock{{ID: id, Holders: []cluster.NodeID{0, 1}}}}
	}
	if _, err := io.WriteBlocks(ctx, alloc(1), bytes.NewReader(data), RetryPolicy{}, nil); err != nil {
		t.Fatal(err)
	}
	stored := BlockMeta{ID: 1, File: "f", Size: int64(len(data)), Replicas: []cluster.NodeID{0, 1}, Checksum: Checksum(data)}
	retry := DefaultRetryPolicy()

	cases := []struct {
		name      string
		refusals  [3]error
		write     error // what a write nobody accepts is
		read      error // what a read nobody serves is
		noRetries bool
	}{
		{"every node sheds", [3]error{ErrOverload, ErrOverload, ErrOverload}, ErrOverload, ErrOverload, true},
		{"one down, the rest shed", [3]error{ErrNodeDown, ErrOverload, ErrOverload}, ErrOverload, ErrOverload, true},
		{"every node down", [3]error{ErrNodeDown, ErrNodeDown, ErrNodeDown}, ErrNoLiveNodes, ErrNoReplica, false},
		{"one sheds, one is broken", [3]error{ErrOverload, ErrInconsistent, ErrOverload}, ErrNoLiveNodes, ErrNoReplica, false},
	}
	for _, tc := range cases {
		for i, s := range stores {
			s.refuse = tc.refusals[i]
		}
		for _, hedged := range []bool{false, true} {
			io.hedge.Store(nil)
			if hedged {
				if err := io.SetHedge(HedgeConfig{}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := io.ReadBlock(ctx, stored); !errors.Is(err, tc.read) {
				t.Errorf("%s: read (hedged=%v): err = %v, want %v", tc.name, hedged, err, tc.read)
			}
		}
		io.hedge.Store(nil)
		before := io.Resilience().Snapshot()
		_, err := io.WriteBlocks(ctx, alloc(2), bytes.NewReader(data), retry, nil)
		if !errors.Is(err, tc.write) || !IsTransient(err) {
			t.Errorf("%s: write: err = %v, want transient %v", tc.name, err, tc.write)
		}
		_, err = io.ReadFile(ctx, "f", func(context.Context) (*FileMeta, error) {
			return &FileMeta{Name: "f", Size: int64(len(data)), Blocks: []BlockMeta{stored}}, nil
		}, retry)
		if !errors.Is(err, tc.read) {
			t.Errorf("%s: read file: err = %v, want %v", tc.name, err, tc.read)
		}
		after := io.Resilience().Snapshot()
		retried := after.WriteRetries+after.ReadRetries > before.WriteRetries+before.ReadRetries
		if retried == tc.noRetries {
			t.Errorf("%s: retried = %v, want %v: a shed is the caller's to back off from, an outage is waited out", tc.name, retried, !tc.noRetries)
		}
	}
}

// TestReadFileRefusesInconsistentSizes: a reader allocates the whole
// file at the size its block map states, and a networked reader's block
// map came off the wire. A map whose sizes cannot be true is refused
// with ErrInconsistent before anything is allocated or read: no panic,
// no petabyte allocation, no retry.
func TestReadFileRefusesInconsistentSizes(t *testing.T) {
	dn := NewDataNode(0)
	io := NewBlockIO([]BlockStore{localStore{dn}})
	data := []byte("one block")
	if err := dn.Put(1, data); err != nil {
		t.Fatal(err)
	}
	block := BlockMeta{ID: 1, File: "f", Size: int64(len(data)), Replicas: []cluster.NodeID{0}, Checksum: Checksum(data)}
	withSize := func(size int64) BlockMeta { b := block; b.Size = size; return b }
	for _, tc := range []struct {
		name string
		fm   FileMeta
	}{
		{"negative file size", FileMeta{Size: -1, Blocks: []BlockMeta{block}}},
		{"petabyte file size", FileMeta{Size: 1 << 50, Blocks: []BlockMeta{block}}},
		{"negative block size", FileMeta{Size: int64(len(data)), Blocks: []BlockMeta{block, withSize(-1), withSize(1)}}},
		{"blocks hold more than the file", FileMeta{Size: int64(len(data)), Blocks: []BlockMeta{block, block}}},
		{"blocks hold less than the file", FileMeta{Size: 2 * int64(len(data)), Blocks: []BlockMeta{block}}},
		{"block sizes overflow", FileMeta{Size: int64(len(data)), Blocks: []BlockMeta{block, withSize(math.MaxInt64)}}},
		{"too many blocks", FileMeta{Size: 0, Blocks: make([]BlockMeta, MaxFileBlocks+1)}},
	} {
		fm := tc.fm
		fm.Name = "f"
		got, err := io.ReadFile(context.Background(), "f", func(context.Context) (*FileMeta, error) { return &fm, nil }, DefaultRetryPolicy())
		if !errors.Is(err, ErrInconsistent) || got != nil {
			t.Errorf("%s: got %d bytes, err = %v; want ErrInconsistent", tc.name, len(got), err)
		}
	}
	if snap := io.Resilience().Snapshot(); snap.ReadRetries != 0 {
		t.Errorf("%d read retries: an impossible block map is not transient", snap.ReadRetries)
	}
	// The consistent map reads back.
	got, err := io.ReadFile(context.Background(), "f", func(context.Context) (*FileMeta, error) {
		return &FileMeta{Name: "f", Size: int64(len(data)), Blocks: []BlockMeta{block}}, nil
	}, RetryPolicy{})
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("consistent map: %q, %v", got, err)
	}
}
