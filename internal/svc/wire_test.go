package svc

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"github.com/adaptsim/adapt/internal/dfs"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := request{
		ID:         7,
		From:       "shell",
		Method:     "nn.locate",
		DeadlineMS: 1500,
		Params:     json.RawMessage(`{"name":"f"}`),
	}
	if err := writeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out request
	if err := readFrame(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || out.From != in.From || out.Method != in.Method || out.DeadlineMS != in.DeadlineMS {
		t.Fatalf("roundtrip mismatch: %+v != %+v", out, in)
	}
	if string(out.Params) != string(in.Params) {
		t.Fatalf("params %q != %q", out.Params, in.Params)
	}
}

// TestReadFrameRejectsOversize: a header announcing more than the
// control bound — one byte over, or the 100 MiB a base64 block used to
// need — is refused before any pooled buffer is taken for it, on the
// decoder and on a live JSON port.
func TestReadFrameRejectsOversize(t *testing.T) {
	for _, n := range []uint32{MaxControlFrame + 1, 100 << 20} {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], n)
		taken, start := frameBufs.gets.Load(), frameBufs.balance()
		var out request
		if err := readFrame(bytes.NewReader(hdr[:]), &out); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("%d-byte frame: err = %v, want ErrFrameTooLarge", n, err)
		}
		if got := frameBufs.gets.Load(); got != taken || frameBufs.balance() != start {
			t.Fatalf("%d-byte frame: pool gets %d -> %d, balance %d -> %d; want untouched", n, taken, got, start, frameBufs.balance())
		}
	}

	lc := testCluster(t, 1, nil)
	nc, err := net.Dial("tcp", lc.NN.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100<<20)
	if _, err := nc.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Read(hdr[:]); !errors.Is(err, io.EOF) {
		t.Fatalf("namenode kept a connection announcing a 100 MiB frame: read err = %v, want EOF", err)
	}
}

func TestReadFrameRejectsGarbage(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, "not an envelope"); err != nil {
		t.Fatal(err)
	}
	var out request
	if err := readFrame(&buf, &out); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v, want ErrBadFrame", err)
	}
}

// TestErrorsCrossTheWire is the error-taxonomy contract: a dfs
// sentinel encoded on one side must, after decode, still satisfy
// errors.Is against the same sentinel and keep its transient
// classification.
func TestErrorsCrossTheWire(t *testing.T) {
	cases := []struct {
		err       error
		transient bool
	}{
		{fmt.Errorf("wrapped: %w", dfs.ErrFileNotFound), false},
		{fmt.Errorf("dfs: node 3 rejected put: %w", dfs.ErrNodeDown), true},
		{fmt.Errorf("dfs: block 9: %w", dfs.ErrChecksum), true},
		{fmt.Errorf("deep: %w", fmt.Errorf("mid: %w", dfs.ErrFileExists)), false},
		{fmt.Errorf("beat: %w", ErrStaleHeartbeat), false},
		{fmt.Errorf("drain: %w", ErrShuttingDown), false},
		{context.DeadlineExceeded, false},
	}
	for _, tc := range cases {
		var resp response
		encodeError(&resp, tc.err)
		got := decodeError(&resp)
		if got == nil {
			t.Fatalf("decodeError(%v) = nil", tc.err)
		}
		// The decoded error must match the deepest registered sentinel.
		target := tc.err
		for errors.Unwrap(target) != nil {
			target = errors.Unwrap(target)
		}
		if !errors.Is(got, target) {
			t.Errorf("decoded %v does not match sentinel %v", got, target)
		}
		if dfs.IsTransient(got) != tc.transient {
			t.Errorf("decoded %v: transient = %v, want %v", got, dfs.IsTransient(got), tc.transient)
		}
		if got.Error() != tc.err.Error() {
			t.Errorf("message %q != %q", got.Error(), tc.err.Error())
		}
	}
}

func TestUnknownWireCodeStillCarriesMessage(t *testing.T) {
	got := decodeError(&response{Code: "martian", Error: "boom", Transient: true})
	if got == nil || got.Error() != "boom" {
		t.Fatalf("decodeError = %v, want message boom", got)
	}
	if !dfs.IsTransient(got) {
		t.Fatal("transient flag lost")
	}
	var re *RemoteError
	if !errors.As(got, &re) {
		t.Fatalf("got %T, want *RemoteError", got)
	}
	if errors.Unwrap(re) != nil {
		t.Fatal("unknown code must not unwrap to a sentinel")
	}
}

func TestDeadlineBudget(t *testing.T) {
	now := time.Unix(1000, 0)
	if got := deadlineBudget(context.Background(), now); got != 0 {
		t.Fatalf("no deadline: budget = %d, want 0", got)
	}
	ctx, cancel := context.WithDeadline(context.Background(), now.Add(2*time.Second))
	defer cancel()
	if got := deadlineBudget(ctx, now); got != 2000 {
		t.Fatalf("budget = %d, want 2000", got)
	}
	expired, cancel2 := context.WithDeadline(context.Background(), now.Add(-time.Second))
	defer cancel2()
	if got := deadlineBudget(expired, now); got != 1 {
		t.Fatalf("expired budget = %d, want 1", got)
	}
}
