package dfs

import "hash/crc32"

// Block bytes carry one checksum end to end: CRC32C (Castagnoli), the
// HDFS data-transfer choice, hardware-accelerated on amd64 and arm64.
// A block's bytes are summed once where they enter the system, chunk by
// chunk; each replica keeps its chunks' sums beside the bytes, and a
// block's sum is folded from its chunks' sums by CombineChecksum
// without touching the bytes again.

// ChunkSize is the chunk grid an in-process write sums a replica on,
// and the chunk a networked writer streams a block in: large enough to
// amortize syscalls, small enough that pooled buffers stay
// cache-friendly and partitions abort streams fast.
const ChunkSize = 256 << 10

// crcTable is the Castagnoli table.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C of b.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, crcTable) }

// ExtendChecksum returns the CRC32C of A‖b given sum = CRC32C(A).
func ExtendChecksum(sum uint32, b []byte) uint32 { return crc32.Update(sum, crcTable, b) }

// ChunkSum is the length and CRC32C of one chunk of a replica, on the
// boundaries the replica was written in.
type ChunkSum struct {
	Len uint32
	Sum uint32
}

// appendChunkSums appends the sums of data cut on the ChunkSize grid:
// one for each whole or tail chunk, and one empty chunk for empty data,
// so every replica has at least one.
func appendChunkSums(sums []ChunkSum, data []byte) []ChunkSum {
	for off := 0; ; off += ChunkSize {
		end := min(off+ChunkSize, len(data))
		sums = append(sums, ChunkSum{Len: uint32(end - off), Sum: Checksum(data[off:end])})
		if end == len(data) {
			return sums
		}
	}
}

// foldChunkSums returns the CRC32C of the bytes sums describes.
func foldChunkSums(sums []ChunkSum) uint32 {
	var sum uint32
	for _, cs := range sums {
		sum = CombineChecksum(sum, cs.Sum, int64(cs.Len))
	}
	return sum
}

// CombineChecksum returns the CRC32C of A‖B given sumA = CRC32C(A),
// sumB = CRC32C(B) and the length of B, in time logarithmic in lenB
// (zlib's crc32_combine). Folding chunk sums from zero, the sum of
// nothing, yields the sum of the chunks' concatenation.
func CombineChecksum(sumA, sumB uint32, lenB int64) uint32 {
	if sumA == 0 {
		return sumB // the shift of zero is zero: the first chunk's fold is free
	}
	return multModP(xPow8N(uint64(lenB)), sumA) ^ sumB
}

// The arithmetic is over GF(2) polynomials modulo the Castagnoli
// polynomial, in the reflected bit order the CRC uses: bit 31 holds x^0.
const castagnoliReversed = 0x82f63b78

// multModP returns a·b modulo the polynomial. It stops at a's last
// set bit.
func multModP(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; m != 0 && a&(m<<1-1) != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
		}
		if b&1 != 0 {
			b = b>>1 ^ castagnoliReversed
		} else {
			b >>= 1
		}
	}
	return p
}

// x2n holds x^(2^k) modulo the polynomial, for every k xPow8N reaches:
// the 64 bits of a byte count, shifted by 3 to count bits.
var x2n = func() (t [64 + 3]uint32) {
	p := uint32(1) << 30 // x^1
	for k := range t {
		t[k] = p
		p = multModP(p, p)
	}
	return t
}()

// xPow8N returns x^(8n) modulo the polynomial: the operator that shifts
// a CRC past n zero bytes.
func xPow8N(n uint64) uint32 {
	p := uint32(1) << 31 // x^0
	for k := 3; n != 0; k, n = k+1, n>>1 {
		if n&1 != 0 {
			p = multModP(x2n[k], p)
		}
	}
	return p
}
