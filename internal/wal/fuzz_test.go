package wal

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"github.com/adaptsim/adapt/internal/shard"
)

// fuzzRecords are the records every FuzzWALSegment log is built from.
var fuzzRecords = []string{"rec-1", "rec-2", "rec-3", "rec-4"}

// damage returns seg with data laid over it: byte i of the result is
// seg[i] XOR data[i], and the result is len(data) long, so the fuzzer
// truncates, extends and flips bits of a real segment. A zero mask of
// the segment's length leaves it intact.
func damage(seg, data []byte) []byte {
	out := make([]byte, len(data))
	copy(out, seg)
	for i, b := range data {
		out[i] ^= b
	}
	return out
}

// memDir is a log directory's files in memory (name → bytes); its read
// is the segment source walkChain takes.
type memDir map[string][]byte

func (d memDir) read(name string) ([]byte, error) {
	b, ok := d[name]
	if !ok {
		return nil, os.ErrNotExist
	}
	return b, nil
}

// readDir reads every file of dir.
func readDir(f *testing.F, dir string) memDir {
	f.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	out := make(memDir, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// FuzzWALSegment damages one segment of a real log and walks the chain
// it is part of, in memory, as Open and Replay do from the files. The
// fuzzed bytes are laid over the segment (see damage), so the fuzzer
// explores what a crash or a bad disk can leave behind.
//
//   - As the final segment: the walk must succeed and yield a prefix of
//     the written records, in order, and nothing else, ending at the
//     sequence of its last record; the valid length it reports, where
//     Open cuts the segment, must walk to the same records. This holds
//     for two baselines of the same four records: the segment Close
//     leaves (exactly its frames) and the one Crash leaves (its
//     preallocated zero fill behind them, as after SIGKILL). The
//     crashed one keeps at least its own length, so the fill stays
//     behind whatever the fuzzer lays over it.
//   - As a non-final segment (records 1-4, followed by a segment a
//     snapshot at 2 rotated to): any change must fail the walk with
//     ErrCorrupt, since those records were acknowledged.
func FuzzWALSegment(f *testing.F) {
	// One log of the four records in a single, final segment.
	tailDir := f.TempDir()
	l, err := Open(tailDir)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range fuzzRecords {
		if _, err := l.Append([]byte(r)); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	tail := readDir(f, tailDir)
	seg := tail[segName(0)]

	// The same four records abandoned by Crash: the zero fill stays.
	crashDir := f.TempDir()
	if l, err = Open(crashDir); err != nil {
		f.Fatal(err)
	}
	for _, r := range fuzzRecords {
		if _, err := l.Append([]byte(r)); err != nil {
			f.Fatal(err)
		}
	}
	l.Crash()
	crashed := readDir(f, crashDir)[segName(0)]
	if len(crashed) != segmentStretch || !bytes.HasPrefix(crashed, seg) {
		f.Fatalf("crashed segment: %d bytes, want the closed segment's bytes and zeros to %d", len(crashed), segmentStretch)
	}

	// The same four records in a non-final segment: a snapshot at 2
	// rotates to seg-4 without pruning seg-0, and two more records
	// land in seg-4.
	chainDir := f.TempDir()
	l, err = Open(chainDir)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range fuzzRecords {
		if _, err := l.Append([]byte(r)); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.SaveSnapshot([]byte("state@2"), 2); err != nil {
		f.Fatal(err)
	}
	for _, r := range []string{"rec-5", "rec-6"} {
		if _, err := l.Append([]byte(r)); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	chain := readDir(f, chainDir)
	snaps, chainSegs, err := listDir(chainDir)
	if err != nil {
		f.Fatal(err)
	}
	snapSeq := newestSnapshot(chainDir, snaps)
	if len(chain) != 3 || len(chainSegs) != 2 || snapSeq != 2 || string(chain[segName(0)]) != string(seg) {
		f.Fatalf("chain layout: %d files, snapshot at %d, want seg-0 (same bytes as the lone segment), seg-4 and snap-2", len(chain), snapSeq)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		damaged := damage(seg, data)
		walkFinal(t, damaged)
		mask := data
		if len(mask) < len(crashed) {
			mask = append(mask[:len(mask):len(mask)], make([]byte, len(crashed)-len(mask))...)
		}
		walkFinal(t, damage(crashed, mask))

		if string(damaged) == string(seg) {
			return
		}
		files := memDir{segName(0): damaged}
		for name, b := range chain {
			if name != segName(0) {
				files[name] = b
			}
		}
		if _, _, err := walkChain(files.read, chainSegs, snapSeq, nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("walk with a damaged non-final segment = %v, want ErrCorrupt", err)
		}
	})
}

// walkFinal walks a log whose only segment is seg and requires its
// records to be a prefix of fuzzRecords, in order, the walk to end at
// the last of them, and seg cut to the valid length the walk reports
// to walk to the same place.
func walkFinal(t *testing.T, seg []byte) {
	t.Helper()
	segs := []seqFile{{seq: 0, name: segName(0)}}
	var got []string
	seq, validLen, err := walkChain(memDir{segName(0): seg}.read, segs, 0, func(seq uint64, rec []byte) error {
		got = append(got, strconv.FormatUint(seq, 10)+":"+string(rec))
		return nil
	})
	if err != nil {
		t.Fatalf("walk of a damaged final segment: %v", err)
	}
	if len(got) > len(fuzzRecords) {
		t.Fatalf("walked %d records, only %d were written: %q", len(got), len(fuzzRecords), got)
	}
	for i, g := range got {
		if want := strconv.Itoa(i+1) + ":" + fuzzRecords[i]; g != want {
			t.Fatalf("walked record %d = %q, want %q (walk %q)", i, g, want, got)
		}
	}
	if seq != uint64(len(got)) {
		t.Fatalf("walk ended at seq %d after %d records", seq, len(got))
	}
	cutSeq, cutLen, err := walkChain(memDir{segName(0): seg[:validLen]}.read, segs, 0, nil)
	if err != nil || cutSeq != seq || cutLen != validLen {
		t.Fatalf("segment cut to %d bytes walks to seq %d, length %d, %v; want seq %d", validLen, cutSeq, cutLen, err, seq)
	}
}

// FuzzLoadMark feeds arbitrary bytes to the one number-file parser as
// a mark and as a SHARDS manifest, the two one-number files a root
// holds beside its logs, each at the range its reader asks for
// (LoadMark any uint64, readManifest 1..shard.MaxShards). Neither parse
// panics, and each either refuses the bytes as ErrCorrupt or accepts a
// value that the bytes its writer records read back as unchanged; a
// manifest it accepts names at least one shard.
func FuzzLoadMark(f *testing.F) {
	f.Add([]byte("4096\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range []struct {
			name   string
			lo, hi uint64
		}{{"MARK", 0, math.MaxUint64}, {manifestName, 1, shard.MaxShards}} {
			v, err := parseNumber(c.name, data, c.lo, c.hi)
			switch {
			case err != nil:
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s %q: err = %v, want ErrCorrupt", c.name, data, err)
				}
			case c.name == manifestName && v < 1:
				t.Fatalf("manifest %q accepted as %d shards", data, v)
			default:
				if got, err := parseNumber(c.name, formatNumber(v), c.lo, c.hi); err != nil || got != v {
					t.Fatalf("%s %q read as %d, written again it reads %d, %v", c.name, data, v, got, err)
				}
			}
		}
	})
}
