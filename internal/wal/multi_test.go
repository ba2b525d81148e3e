package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/adaptsim/adapt/internal/shard"
)

// rootLayout lists what lies directly under root: "name/" for a
// directory, "name" for a file.
func rootLayout(t *testing.T, root string) []string {
	t.Helper()
	ents, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() {
			name += "/"
		}
		out = append(out, name)
	}
	return out
}

// TestShardDirsOneLayoutForEveryCount: a new root at any count holds
// SHARDS and shard-NNN/ and nothing else, 0 making a one-shard root,
// and no log file ever lies directly under it.
func TestShardDirsOneLayoutForEveryCount(t *testing.T) {
	for _, p := range []int{0, 1, 4} {
		root := t.TempDir()
		dirs, err := ShardDirs(root, p)
		if err != nil {
			t.Fatal(err)
		}
		want := max(p, 1)
		if len(dirs) != want {
			t.Fatalf("P %d: %d dirs, want %d", p, len(dirs), want)
		}
		layout := []string{manifestName}
		for i := 0; i < want; i++ {
			if d := filepath.Join(root, fmt.Sprintf("shard-%03d", i)); dirs[i] != d {
				t.Fatalf("P %d: dirs[%d] = %s, want %s", p, i, dirs[i], d)
			}
			layout = append(layout, fmt.Sprintf("shard-%03d/", i))
		}
		if got := rootLayout(t, root); !equal(got, layout) {
			t.Fatalf("P %d: root holds %v, want %v", p, got, layout)
		}
		if n, ok, err := readManifest(root); err != nil || !ok || n != want {
			t.Fatalf("P %d: manifest = %d, %v, %v; want %d", p, n, ok, err, want)
		}
		l, err := Open(dirs[0])
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, l, "x")
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if got := rootLayout(t, root); !equal(got, layout) {
			t.Fatalf("P %d: after an append root holds %v, want %v", p, got, layout)
		}
	}
}

func TestShardDirsCreatesAndReopens(t *testing.T) {
	root := t.TempDir()
	dirs, err := ShardDirs(root, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 4 {
		t.Fatalf("got %d dirs, want 4", len(dirs))
	}
	if want := filepath.Join(root, "shard-002"); dirs[2] != want {
		t.Fatalf("dirs[2] = %s, want %s", dirs[2], want)
	}
	// Each shard dir is an independent, openable log.
	for _, d := range dirs {
		l, err := Open(d)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Reopening with the same count, or with 0, is fine.
	for _, p := range []int{4, 0} {
		again, err := ShardDirs(root, p)
		if err != nil {
			t.Fatal(err)
		}
		if !equal(again, dirs) {
			t.Fatalf("reopen at %d: dirs = %v, want %v", p, again, dirs)
		}
	}
}

func TestShardDirsRefusesReshard(t *testing.T) {
	root := t.TempDir()
	if _, err := ShardDirs(root, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := ShardDirs(root, 8); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("4->8 reshard err = %v, want ErrShardMismatch", err)
	}
	if _, err := ShardDirs(root, 1); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("4->1 reshard err = %v, want ErrShardMismatch", err)
	}
}

// TestShardDirsRefusesPreManifestRoot: a root with no manifest that
// holds a flat log, a shard-000/, or both (a layout from before every
// root had a manifest) is ErrCorrupt at every count, and no file or
// directory under it changes.
func TestShardDirsRefusesPreManifestRoot(t *testing.T) {
	writeLog := func(dir string) {
		l, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, l, "r1", "r2", "r3")
		if err := l.SaveSnapshot([]byte("state@2"), 2); err != nil {
			t.Fatal(err)
		}
		appendN(t, l, "r4")
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	layouts := map[string]func(root string){
		"flat":      writeLog,
		"shard-000": func(root string) { writeLog(filepath.Join(root, "shard-000")) },
		"both": func(root string) {
			writeLog(root)
			writeLog(filepath.Join(root, "shard-000"))
		},
	}
	for name, lay := range layouts {
		root := t.TempDir()
		lay(root)
		if err := SaveMark(root, "BLOCKIDS", 4096); err != nil {
			t.Fatal(err)
		}
		before := readTree(t, root)
		for _, p := range []int{0, 1, 4} {
			if _, err := ShardDirs(root, p); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s root, P %d: err = %v, want ErrCorrupt", name, p, err)
			}
			if after := readTree(t, root); fmt.Sprint(after) != fmt.Sprint(before) {
				t.Fatalf("%s root, P %d: refused open changed the root:\nbefore %v\nafter  %v", name, p, before, after)
			}
		}
	}
}

// readTree reads every file under root, keyed by its path below root,
// and lists every directory below it, keyed "path/".
func readTree(t *testing.T, root string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || path == root {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			out[rel+"/"] = ""
			return nil
		}
		b, err := os.ReadFile(path)
		out[rel] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestShardDirsReadsManifestInRange: a manifest is read by the one
// number-file parser, a decimal in 1..shard.MaxShards with white space
// around it; anything else, a sign included, is ErrCorrupt and is not
// overwritten.
func TestShardDirsReadsManifestInRange(t *testing.T) {
	for content, want := range map[string]int{
		" 4 \n": 4, "256\n": shard.MaxShards,
		"0\n": 0, "257\n": 0, "+4\n": 0, "-1\n": 0, "4 shards\n": 0, "": 0,
	} {
		root := t.TempDir()
		if err := os.WriteFile(filepath.Join(root, manifestName), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		dirs, err := ShardDirs(root, 0)
		if want == 0 {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("manifest %q: err = %v, want ErrCorrupt", content, err)
			}
			if b, _ := os.ReadFile(filepath.Join(root, manifestName)); string(b) != content {
				t.Fatalf("manifest %q rewritten as %q", content, b)
			}
			continue
		}
		if err != nil || len(dirs) != want {
			t.Fatalf("manifest %q: %d dirs, %v; want %d", content, len(dirs), err, want)
		}
	}
}

func TestShardDirsRejectsBadCount(t *testing.T) {
	for _, p := range []int{-1, shard.MaxShards + 1} {
		root := filepath.Join(t.TempDir(), "wal")
		if _, err := ShardDirs(root, p); !errors.Is(err, shard.ErrBadShardCount) {
			t.Fatalf("shards=%d: err = %v, want ErrBadShardCount", p, err)
		}
		if _, err := os.Stat(root); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("shards=%d created the root: %v", p, err)
		}
	}
}

// TestMarkSurvivesReopenBesideTheLog: a mark is durable on return,
// reads back as the last value saved, is 0 where none was, refuses
// garbage as corruption, and disturbs neither the manifest it sits
// beside nor the log in shard-000/.
func TestMarkSurvivesReopenBesideTheLog(t *testing.T) {
	root := t.TempDir()
	if v, err := LoadMark(root, "MARK"); err != nil || v != 0 {
		t.Fatalf("mark never saved: %d, %v; want 0", v, err)
	}
	dirs, err := ShardDirs(root, 1)
	if err != nil {
		t.Fatal(err)
	}
	log, err := Open(dirs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append([]byte("rec")); err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint64{4096, 1 << 40} {
		if err := SaveMark(root, "MARK", v); err != nil {
			t.Fatal(err)
		}
		if got, err := LoadMark(root, "MARK"); err != nil || got != v {
			t.Fatalf("mark = %d, %v; want %d", got, err, v)
		}
	}
	log.Crash()
	if log, err = Open(dirs[0]); err != nil || log.Seq() != 1 {
		t.Fatalf("log beside a mark reopened at seq %d: %v", log.Seq(), err)
	}
	_ = log.Close()
	if again, err := ShardDirs(root, 1); err != nil || !equal(again, dirs) {
		t.Fatalf("root with a mark beside its manifest reopened as %v, %v; want %v", again, err, dirs)
	}
	if got, want := rootLayout(t, root), []string{"MARK", manifestName, "shard-000/"}; !equal(got, want) {
		t.Fatalf("root holds %v, want %v", got, want)
	}
	if err := os.WriteFile(filepath.Join(root, "MARK"), []byte("not a number\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadMark(root, "MARK"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("garbled mark: err = %v, want ErrCorrupt", err)
	}
}
