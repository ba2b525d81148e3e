package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadCSV feeds ReadCSV arbitrary bytes. It must never panic, and
// whatever it accepts must survive a round trip: WriteCSV of the parsed
// set succeeds, and reading that output back yields the same set.
func FuzzReadCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		set, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, set); err != nil {
			t.Fatalf("WriteCSV of a set ReadCSV accepted: %v", err)
		}
		again, err := ReadCSV(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("ReadCSV of WriteCSV's output %q: %v", buf.Bytes(), err)
		}
		if !reflect.DeepEqual(set, again) {
			t.Fatalf("round trip changed the set:\n got %+v\nwant %+v\nvia %q", again, set, buf.Bytes())
		}
	})
}
