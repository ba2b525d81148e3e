package dfs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
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

func (s *refusingStore) Put(ctx context.Context, id BlockID, data []byte) error {
	if s.refuse != nil {
		return fmt.Errorf("store %d: %w", s.ID(), s.refuse)
	}
	return s.localStore.Put(ctx, id, data)
}

func (s *refusingStore) Get(ctx context.Context, id BlockID) ([]byte, error) {
	if s.refuse != nil {
		return nil, fmt.Errorf("store %d: %w", s.ID(), s.refuse)
	}
	return s.localStore.Get(ctx, id)
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
	stored := BlockMeta{ID: 1, File: "f", Replicas: []cluster.NodeID{0, 1}, Checksum: crc32.ChecksumIEEE(data)}
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
			io.DisableHedge()
			if hedged {
				if err := io.SetHedge(HedgeConfig{}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := io.ReadBlock(ctx, stored); !errors.Is(err, tc.read) {
				t.Errorf("%s: read (hedged=%v): err = %v, want %v", tc.name, hedged, err, tc.read)
			}
		}
		io.DisableHedge()
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
