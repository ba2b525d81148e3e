package dfs

import (
	"math/bits"
	"sync"
)

// Replica memory is recycled rather than left to the GC: a buffer whose
// last reference drops — a replica deleted or replaced once its last
// pin is released, a write stream torn before commit, a store emptied
// at shutdown, a writer's block buffer after its file — backs the next
// replica of its size. The size classes are the powers of two, and only
// a buffer whose length is exactly a class size is recycled: a short
// tail block is allocated at its own size and left to the GC, so a
// stored byte never costs two. Each class is a sync.Pool, which the GC
// drains of whatever nobody draws again.

// maxReplicaClass is the largest class, 1 GiB; a larger buffer is never
// recycled.
const maxReplicaClass = 30

var replicaBufs [maxReplicaClass + 1]sync.Pool

// replicaClass returns the class of an n-byte buffer, or -1 when n is
// not exactly a class size.
func replicaClass(n int) int {
	if n <= 0 || n&(n-1) != 0 {
		return -1
	}
	if c := bits.TrailingZeros(uint(n)); c <= maxReplicaClass {
		return c
	}
	return -1
}

// NewReplicaBuf returns an n-byte buffer for block bytes, a recycled one
// when its class has one. A recycled buffer still holds the bytes of
// the block it last carried: the caller writes all n before anything
// reads them.
func NewReplicaBuf(n int) []byte {
	if c := replicaClass(n); c >= 0 {
		if v := replicaBufs[c].Get(); v != nil {
			return *v.(*[]byte)
		}
	}
	return make([]byte, n)
}

// RecycleReplicaBuf hands b back for a later NewReplicaBuf. The caller
// must hold the last reference to b's bytes: nothing may read or write
// them afterwards. Only b's own bytes change hands: a slice whose
// capacity runs past its length may share its tail with live memory,
// so it is left to the GC.
func RecycleReplicaBuf(b []byte) {
	if len(b) != cap(b) {
		return
	}
	if c := replicaClass(len(b)); c >= 0 {
		replicaBufs[c].Put(&b)
	}
}
