package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"testing"
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

// writeDir writes files (name → bytes) into a fresh directory.
func writeDir(t *testing.T, files map[string][]byte) string {
	t.Helper()
	dir := t.TempDir()
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// readDir reads every file of dir (name → bytes).
func readDir(f *testing.F, dir string) map[string][]byte {
	f.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	out := make(map[string][]byte, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// FuzzWALSegment damages one segment of a real log and opens it. The
// fuzzed bytes are laid over the segment (see damage), so the fuzzer
// explores what a crash or a bad disk can leave behind.
//
//   - As the final segment: Open must succeed and the replay must be a
//     prefix of the written records, in order, and nothing else, with
//     Seq at its end. This holds for two baselines of the same four
//     records: the segment Close leaves (exactly its frames) and the
//     one Crash leaves (its preallocated zero fill behind them, as
//     after SIGKILL). The crashed one keeps at least its own length,
//     so the fill stays behind whatever the fuzzer lays over it.
//   - As a non-final segment (records 1-4, followed by a segment a
//     snapshot at 2 rotated to): any change must fail Open with
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
	if len(chain) != 3 || string(chain[segName(0)]) != string(seg) {
		f.Fatalf("chain layout: %d files, want seg-0 (same bytes as the lone segment), seg-4 and snap-2", len(chain))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		damaged := damage(seg, data)
		openFinal(t, damaged)
		mask := data
		if len(mask) < len(crashed) {
			mask = append(mask[:len(mask):len(mask)], make([]byte, len(crashed)-len(mask))...)
		}
		openFinal(t, damage(crashed, mask))

		if string(damaged) == string(seg) {
			return
		}
		files := map[string][]byte{segName(0): damaged}
		for name, b := range chain {
			if name != segName(0) {
				files[name] = b
			}
		}
		if _, err := Open(writeDir(t, files)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("open with a damaged non-final segment = %v, want ErrCorrupt", err)
		}
	})
}

// openFinal opens a log whose only segment is seg and requires its
// replay to be a prefix of fuzzRecords, in order, with Seq at its end.
func openFinal(t *testing.T, seg []byte) {
	t.Helper()
	l, err := Open(writeDir(t, map[string][]byte{segName(0): seg}))
	if err != nil {
		t.Fatalf("open with a damaged final segment: %v", err)
	}
	defer l.Close()
	var got []string
	if err := l.Replay(func(seq uint64, rec []byte) error {
		got = append(got, strconv.FormatUint(seq, 10)+":"+string(rec))
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(got) > len(fuzzRecords) {
		t.Fatalf("replayed %d records, only %d were written: %q", len(got), len(fuzzRecords), got)
	}
	for i, g := range got {
		if want := strconv.Itoa(i+1) + ":" + fuzzRecords[i]; g != want {
			t.Fatalf("replayed record %d = %q, want %q (replay %q)", i, g, want, got)
		}
	}
	if l.Seq() != uint64(len(got)) {
		t.Fatalf("seq %d after replaying %d records", l.Seq(), len(got))
	}
}

// FuzzLoadMark lays arbitrary bytes down as a mark file and as a SHARDS
// manifest, the two one-number files a root holds beside its logs, and
// reads them back. Neither read panics, and each either refuses the
// bytes as ErrCorrupt or accepts a value its own writer records and
// reads back unchanged; a manifest it accepts names at least one
// shard.
func FuzzLoadMark(f *testing.F) {
	f.Add([]byte("4096\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := writeDir(t, map[string][]byte{"MARK": data, manifestName: data})

		v, err := LoadMark(dir, "MARK")
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("mark %q: err = %v, want ErrCorrupt", data, err)
			}
		} else {
			if err := SaveMark(dir, "MARK", v); err != nil {
				t.Fatal(err)
			}
			if got, err := LoadMark(dir, "MARK"); err != nil || got != v {
				t.Fatalf("mark %q read as %d, saved again it reads %d, %v", data, v, got, err)
			}
		}

		count, ok, err := readManifest(dir)
		switch {
		case err != nil:
			if ok || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("manifest %q: ok %v, err = %v, want ErrCorrupt", data, ok, err)
			}
		case !ok:
			t.Fatalf("manifest %q exists and read as absent", data)
		case count < 1:
			t.Fatalf("manifest %q accepted as %d shards", data, count)
		default:
			if err := writeManifest(dir, count); err != nil {
				t.Fatal(err)
			}
			if got, ok, err := readManifest(dir); err != nil || !ok || got != count {
				t.Fatalf("manifest %q read as %d, written again it reads %d, %v, %v", data, count, got, ok, err)
			}
		}
	})
}
