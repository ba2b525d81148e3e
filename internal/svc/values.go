package svc

import (
	"encoding/binary"
	"math"
	"slices"
	"time"
	"unicode/utf8"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/model"
	"github.com/adaptsim/adapt/internal/shard"
)

// Values in the wire's binary layout. Every payload but a chunk's is a
// wireValue, which appends its own layout to a payload, and its pointer
// a valueReader, which reads it back: the transport's own (wire.go) and
// the params and result of every nn.* and dn.* method. typed and
// streamPool.call take nothing else, so a method whose values have no
// codec does not compile. The NameNode's journal is written in the same
// layout and read by the same decodeValue: a record is a kind byte and
// a fileMeta, nameParams or relocation, a checkpoint a namespaceImage
// (durable.go).
//
// The layout is big-endian: every Go int and int64 as 8 bytes (node
// and block ids too), a bool as one byte 0 or 1, a float64 as its IEEE
// 754 bits, a time.Duration as int64 nanoseconds, a string as a uint32
// length and its UTF-8 bytes (file names have no bound of their own),
// a list as a uint32 count and its elements, and a map as the list of
// its entries in ascending key order. Decoders are total over []byte:
// a count is checked against the bytes left before anything is
// allocated for it, and a payload that is not exactly one value —
// short, with trailing bytes, a bool byte above 1, a string not UTF-8,
// map keys out of order — is refused. An empty list or map decodes as
// nil, so whatever decodes re-encodes to the same bytes.

// wireValue is a params or result value of an RPC.
type wireValue interface {
	appendWire(b []byte) []byte
}

// valueReader reads a wireValue's layout into the value it points at.
type valueReader interface {
	readWire(r *binReader)
}

// binReader walks a payload with sticky bounds checking.
type binReader struct {
	b   []byte
	off int
	bad bool
}

// zeros is what a read past the payload's end decodes.
var zeros [8]byte

// take returns the next n bytes; a reader that has run out returns
// zeros and stays bad.
func (r *binReader) take(n int) []byte {
	if r.bad || n > len(r.b)-r.off {
		r.bad = true
		return zeros[:]
	}
	r.off += n
	return r.b[r.off-n : r.off]
}

// decodeValue reads p into v and reports whether p held exactly one
// well-formed value: no read past its end and no byte after it. It
// stays small enough to inline, so that a call
// with a value of known type reads it without moving it to the heap.
func decodeValue(p []byte, v valueReader) bool {
	r := binReader{b: p}
	v.readWire(&r)
	return !r.bad && r.off == len(p)
}

// ---- primitives ----

func appendUint32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func appendUint64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

func appendInt(b []byte, v int64) []byte { return appendUint64(b, uint64(v)) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendFloat(b []byte, v float64) []byte { return appendUint64(b, math.Float64bits(v)) }

func appendText(b []byte, s string) []byte {
	b = appendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// appendList appends xs's count, then each element.
func appendList[T any](b []byte, xs []T, each func([]byte, T) []byte) []byte {
	b = appendUint32(b, uint32(len(xs)))
	for _, x := range xs {
		b = each(b, x)
	}
	return b
}

func (r *binReader) byte() byte                     { return r.take(1)[0] }
func (r *binReader) u32() uint32                    { return binary.BigEndian.Uint32(r.take(4)) }
func (r *binReader) u64() uint64                    { return binary.BigEndian.Uint64(r.take(8)) }
func (r *binReader) int() int                       { return int(r.u64()) }
func (r *binReader) i64() int64                     { return int64(r.u64()) }
func (r *binReader) f64() float64                   { return math.Float64frombits(r.u64()) }
func (r *binReader) dur() time.Duration             { return time.Duration(r.u64()) }
func (r *binReader) node() cluster.NodeID           { return cluster.NodeID(r.u64()) }
func (r *binReader) blockID() dfs.BlockID           { return dfs.BlockID(r.u64()) }
func appendNode(b []byte, n cluster.NodeID) []byte  { return appendInt(b, int64(n)) }
func appendBlockID(b []byte, id dfs.BlockID) []byte { return appendInt(b, int64(id)) }

// flag reads a bool; a byte other than 0 or 1 is malformed.
func (r *binReader) flag() bool {
	v := r.byte()
	if v > 1 {
		r.bad = true
	}
	return v == 1
}

// text reads a uint32-length string. One that is not UTF-8 is
// malformed: names leave the program as JSON too, in adapt-fs fsck's
// HealthReport, which would print such a name as another, so the
// namespace takes only names every surface carries whole.
func (r *binReader) text() string {
	if b := r.take(int(r.u32())); !r.bad && utf8.Valid(b) {
		return string(b)
	}
	r.bad = true
	return ""
}

// count reads a list's count, refusing one whose elements, at least
// size bytes each, could not fit in what is left.
func (r *binReader) count(size int) int {
	n := int(r.u32())
	if n > (len(r.b)-r.off)/size {
		r.bad = true
		return 0
	}
	return n
}

// readList reads a list of elements at least size bytes long each; an
// empty one is nil. each reads one element from r, which it binds (a
// method value such as r.node, or a closure over r): handed r as an
// argument through a func value, r would leak to the heap, and so
// would every reader a decodeValue declares.
func readList[T any](r *binReader, size int, each func() T) []T {
	n := r.count(size)
	if n == 0 {
		return nil
	}
	xs := make([]T, n)
	for i := range xs {
		xs[i] = each()
	}
	return xs
}

// ---- engine values ----

func appendBlockMeta(b []byte, bm dfs.BlockMeta) []byte {
	b = appendBlockID(b, bm.ID)
	b = appendText(b, bm.File)
	b = appendInt(b, int64(bm.Index))
	b = appendInt(b, bm.Size)
	b = appendList(b, bm.Replicas, appendNode)
	return appendUint32(b, bm.Checksum)
}

// blockMetaSize is the least a BlockMeta encodes to.
const blockMetaSize = 8 + 4 + 8 + 8 + 4 + 4

func (r *binReader) blockMeta() dfs.BlockMeta {
	return dfs.BlockMeta{ID: r.blockID(), File: r.text(), Index: r.int(), Size: r.i64(),
		Replicas: readList(r, 8, r.node), Checksum: r.u32()}
}

func appendFileMeta(b []byte, fm *dfs.FileMeta) []byte {
	b = appendText(b, fm.Name)
	b = appendInt(b, fm.Size)
	b = appendInt(b, fm.BlockSize)
	b = appendInt(b, int64(fm.Replication))
	return appendList(b, fm.Blocks, appendBlockMeta)
}

func (r *binReader) fileMeta() dfs.FileMeta {
	fm := dfs.FileMeta{Name: r.text(), Size: r.i64(), BlockSize: r.i64(), Replication: r.int()}
	fm.Blocks = readList(r, blockMetaSize, r.blockMeta)
	return fm
}

// fileMetaSize is the least a FileMeta encodes to.
const fileMetaSize = 4 + 8 + 8 + 8 + 4

func appendAllocation(b []byte, a *dfs.Allocation) []byte {
	b = appendText(b, a.Name)
	b = appendInt(b, a.Size)
	b = appendInt(b, a.BlockSize)
	b = appendInt(b, int64(a.Replication))
	b = appendList(b, a.Blocks, func(b []byte, ab dfs.AllocatedBlock) []byte {
		return appendList(appendBlockID(b, ab.ID), ab.Holders, appendNode)
	})
	return appendUint64(b, a.Seed)
}

func (r *binReader) allocation() dfs.Allocation {
	return dfs.Allocation{Name: r.text(), Size: r.i64(), BlockSize: r.i64(), Replication: r.int(),
		Blocks: readList(r, 8+4, func() dfs.AllocatedBlock {
			return dfs.AllocatedBlock{ID: r.blockID(), Holders: readList(r, 8, r.node)}
		}),
		Seed: r.u64()}
}

func appendWriteReport(b []byte, w dfs.WriteReport) []byte {
	for _, v := range [...]int{w.Blocks, w.TargetReplication, w.MinReplication, w.DegradedBlocks, w.Failovers, w.Retries} {
		b = appendInt(b, int64(v))
	}
	return b
}

func (r *binReader) writeReport() dfs.WriteReport {
	return dfs.WriteReport{Blocks: r.int(), TargetReplication: r.int(), MinReplication: r.int(),
		DegradedBlocks: r.int(), Failovers: r.int(), Retries: r.int()}
}

func appendNodes(b []byte, ns []cluster.NodeID) []byte { return appendList(b, ns, appendNode) }
func (r *binReader) nodes() []cluster.NodeID           { return readList(r, 8, r.node) }

func appendTexts(b []byte, ss []string) []byte { return appendList(b, ss, appendText) }
func (r *binReader) texts() []string           { return readList(r, 4, r.text) }

// ---- the RPCs' values ----

// empty is the value of a method that takes or returns nothing.
type empty struct{}

func (empty) appendWire(b []byte) []byte { return b }
func (*empty) readWire(*binReader)       {}

func (p allocateParams) appendWire(b []byte) []byte {
	return appendBool(appendInt(appendText(b, p.Name), p.Size), p.Adapt)
}
func (p *allocateParams) readWire(r *binReader) {
	p.Name, p.Size, p.Adapt = r.text(), r.i64(), r.flag()
}

func (v allocateResult) appendWire(b []byte) []byte {
	return appendNodes(appendAllocation(b, &v.Alloc), v.Down)
}
func (v *allocateResult) readWire(r *binReader) { v.Alloc, v.Down = r.allocation(), r.nodes() }

func (p completeParams) appendWire(b []byte) []byte {
	b = appendList(appendText(b, p.Name), p.Blocks, appendBlockMeta)
	return appendWriteReport(b, p.Report)
}
func (p *completeParams) readWire(r *binReader) {
	p.Name = r.text()
	p.Blocks = readList(r, blockMetaSize, r.blockMeta)
	p.Report = r.writeReport()
}

func (p nameParams) appendWire(b []byte) []byte { return appendText(b, p.Name) }
func (p *nameParams) readWire(r *binReader)     { p.Name = r.text() }

func (v locateResult) appendWire(b []byte) []byte {
	return appendNodes(appendFileMeta(b, &v.Meta), v.Down)
}
func (v *locateResult) readWire(r *binReader) { v.Meta, v.Down = r.fileMeta(), r.nodes() }

// fileMeta is dfs.FileMeta as the value of nn.stat and nn.complete.
type fileMeta dfs.FileMeta

func (v *fileMeta) appendWire(b []byte) []byte { return appendFileMeta(b, (*dfs.FileMeta)(v)) }
func (v *fileMeta) readWire(r *binReader)      { *v = fileMeta(r.fileMeta()) }

func (v clusterResult) appendWire(b []byte) []byte {
	b = appendTexts(b, v.DataNodes)
	b = appendInt(appendInt(b, int64(v.Breaker.Threshold)), int64(v.Breaker.Cooldown))
	h := v.Hedge
	b = appendFloat(appendFloat(b, h.Quantile), h.Multiplier)
	b = appendInt(appendInt(appendInt(b, int64(h.MinDelay)), int64(h.Window)), int64(h.MinSamples))
	return appendBool(b, v.HedgeReads)
}
func (v *clusterResult) readWire(r *binReader) {
	v.DataNodes = r.texts()
	v.Breaker = BreakerConfig{Threshold: r.int(), Cooldown: r.dur()}
	v.Hedge = HedgeConfig{Quantile: r.f64(), Multiplier: r.f64(), MinDelay: r.dur(), Window: r.int(), MinSamples: r.int()}
	v.HedgeReads = r.flag()
}

func (p heartbeatParams) appendWire(b []byte) []byte {
	return appendUint64(appendUint64(appendNode(b, p.Node), p.Epoch), p.Seq)
}
func (p *heartbeatParams) readWire(r *binReader) { p.Node, p.Epoch, p.Seq = r.node(), r.u64(), r.u64() }

func (v listResult) appendWire(b []byte) []byte { return appendTexts(b, v.Files) }
func (v *listResult) readWire(r *binReader)     { v.Files = r.texts() }

func (v movedResult) appendWire(b []byte) []byte { return appendInt(b, int64(v.Moved)) }
func (v *movedResult) readWire(r *binReader)     { v.Moved = r.int() }

func (v distResult) appendWire(b []byte) []byte {
	return appendList(b, v.Counts, func(b []byte, n int) []byte { return appendInt(b, int64(n)) })
}
func (v *distResult) readWire(r *binReader) { v.Counts = readList(r, 8, r.int) }

// estimatesResult's map goes out in ascending node order, and a decoder
// refuses any other.
func (v estimatesResult) appendWire(b []byte) []byte {
	nodes := make([]cluster.NodeID, 0, len(v.Estimates))
	for n := range v.Estimates {
		nodes = append(nodes, n)
	}
	slices.Sort(nodes)
	b = appendUint32(b, uint32(len(nodes)))
	for _, n := range nodes {
		a := v.Estimates[n]
		b = appendFloat(appendFloat(appendNode(b, n), a.Lambda), a.Mu)
	}
	return b
}
func (v *estimatesResult) readWire(r *binReader) {
	n := r.count(8 + 8 + 8)
	v.Estimates = nil
	if n == 0 {
		return
	}
	v.Estimates = make(map[cluster.NodeID]model.Availability, n)
	var last cluster.NodeID
	for i := 0; i < n; i++ {
		node := r.node()
		if i > 0 && node <= last {
			r.bad = true
		}
		last = node
		v.Estimates[node] = model.Availability{Lambda: r.f64(), Mu: r.f64()}
	}
}

// healthReport is dfs.HealthReport as the value of nn.fsck.
type healthReport dfs.HealthReport

func (v *healthReport) appendWire(b []byte) []byte {
	for _, n := range [...]int{v.Files, v.Blocks, v.UnderReplicated, v.Unavailable} {
		b = appendInt(b, int64(n))
	}
	b = appendList(b, v.Details, func(b []byte, fh dfs.FileHealth) []byte {
		b = appendText(b, fh.Name)
		return appendInt(appendInt(appendInt(b, int64(fh.Blocks)), int64(fh.UnderReplicated)), int64(fh.Unavailable))
	})
	b = appendInt(b, int64(v.Shards))
	return appendList(b, v.Tenants, func(b []byte, tu shard.TenantUsage) []byte {
		b = appendInt(appendInt(appendText(b, tu.Tenant), tu.Quota.MaxFiles), tu.Quota.MaxBytes)
		return appendInt(appendInt(appendInt(b, int64(tu.Quota.MaxRF)), tu.Usage.Files), tu.Usage.Bytes)
	})
}
func (v *healthReport) readWire(r *binReader) {
	*v = healthReport{Files: r.int(), Blocks: r.int(), UnderReplicated: r.int(), Unavailable: r.int(),
		Details: readList(r, 4+3*8, func() dfs.FileHealth {
			return dfs.FileHealth{Name: r.text(), Blocks: r.int(), UnderReplicated: r.int(), Unavailable: r.int()}
		}),
		Shards: r.int(),
		Tenants: readList(r, 4+5*8, func() shard.TenantUsage {
			return shard.TenantUsage{Tenant: r.text(),
				Quota: shard.Quota{MaxFiles: r.i64(), MaxBytes: r.i64(), MaxRF: r.int()},
				Usage: shard.Usage{Files: r.i64(), Bytes: r.i64()}}
		})}
}

func (p getParams) appendWire(b []byte) []byte { return appendBlockID(b, p.Block) }
func (p *getParams) readWire(r *binReader)     { p.Block = r.blockID() }

func (v storedResult) appendWire(b []byte) []byte {
	return appendBool(appendUint32(appendInt(b, v.Size), v.Sum), v.OK)
}
func (v *storedResult) readWire(r *binReader) { v.Size, v.Sum, v.OK = r.i64(), r.u32(), r.flag() }

func (v blocksResult) appendWire(b []byte) []byte { return appendList(b, v.Blocks, appendBlockID) }
func (v *blocksResult) readWire(r *binReader)     { v.Blocks = readList(r, 8, r.blockID) }

// relocation is a file's new block map, the value of a journal record
// that changes one.
type relocation struct {
	Name   string
	Blocks []dfs.BlockMeta
}

func (v relocation) appendWire(b []byte) []byte {
	return appendList(appendText(b, v.Name), v.Blocks, appendBlockMeta)
}
func (v *relocation) readWire(r *binReader) {
	v.Name, v.Blocks = r.text(), readList(r, blockMetaSize, r.blockMeta)
}

// namespaceImage is one shard's files, sorted by name: the value of a
// journal checkpoint.
type namespaceImage []*dfs.FileMeta

func (v namespaceImage) appendWire(b []byte) []byte { return appendList(b, v, appendFileMeta) }
func (v *namespaceImage) readWire(r *binReader) {
	*v = readList(r, fileMetaSize, func() *dfs.FileMeta { fm := r.fileMeta(); return &fm })
}
