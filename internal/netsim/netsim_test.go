package netsim

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestFromMegabits(t *testing.T) {
	cfg := FromMegabits(8)
	if cfg.UplinkBps != 1e6 || cfg.DownlinkBps != 1e6 {
		t.Fatalf("cfg = %+v", cfg)
	}
}

func TestTransferTime64MBBlock(t *testing.T) {
	// The paper's motivating arithmetic: a 64 MB block at 8 Mb/s
	// takes about a minute (§I).
	nw, err := New(FromMegabits(8), 2)
	if err != nil {
		t.Fatal(err)
	}
	block := 64.0 * 1024 * 1024
	got := nw.TransferTime(block)
	if got < 60 || got > 70 {
		t.Fatalf("64MB at 8Mb/s = %gs, want ~67s", got)
	}
}

func TestTransferSerializesNICs(t *testing.T) {
	nw, err := New(FromMegabits(8), 3)
	if err != nil {
		t.Fatal(err)
	}
	size := 1e6 // 1 second at 1e6 B/s

	// First transfer 0->1 at t=0: [0, 1].
	s1, e1, err := nw.Transfer(0, 0, 1, size)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != 0 || math.Abs(e1-1) > 1e-12 {
		t.Fatalf("first transfer [%g, %g]", s1, e1)
	}
	// Second transfer from the same source must queue on its uplink.
	s2, e2, err := nw.Transfer(0, 0, 2, size)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s2-1) > 1e-12 || math.Abs(e2-2) > 1e-12 {
		t.Fatalf("queued transfer [%g, %g], want [1, 2]", s2, e2)
	}
	// A transfer into node 1 must queue on its downlink.
	s3, _, err := nw.Transfer(0, 2, 1, size)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s3-1) > 1e-12 {
		t.Fatalf("downlink queue start = %g, want 1", s3)
	}
}

func TestTransferLocalIsFree(t *testing.T) {
	nw, err := New(FromMegabits(4), 2)
	if err != nil {
		t.Fatal(err)
	}
	s, e, err := nw.Transfer(5, 1, 1, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if s != 5 || e != 5 {
		t.Fatalf("local transfer [%g, %g]", s, e)
	}
}

func TestTransferValidation(t *testing.T) {
	nw, err := New(FromMegabits(8), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := nw.Transfer(0, -1, 1, 10); !errors.Is(err, ErrBadNode) {
		t.Fatalf("bad src: %v", err)
	}
	if _, _, err := nw.Transfer(0, 0, 5, 10); !errors.Is(err, ErrBadNode) {
		t.Fatalf("bad dst: %v", err)
	}
	if _, _, err := nw.Transfer(0, 0, 1, 0); !errors.Is(err, ErrBadSize) {
		t.Fatalf("bad size: %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}, 2); err == nil {
		t.Fatal("zero config accepted")
	}
	if _, err := New(FromMegabits(8), 0); err == nil {
		t.Fatal("zero nodes accepted")
	}
}

func TestEarliestStart(t *testing.T) {
	nw, err := New(FromMegabits(8), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := nw.Transfer(0, 0, 1, 2e6); err != nil {
		t.Fatal(err)
	}
	got, err := nw.EarliestStart(0.5, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2) > 1e-12 {
		t.Fatalf("earliest start = %g, want 2", got)
	}
	// The cursors EarliestStart takes its maximum over.
	if up, down := nw.UplinkFree(0), nw.DownlinkFree(1); up != got || down != got {
		t.Fatalf("cursors = %g, %g, want %g", up, down, got)
	}
	if up, down := nw.UplinkFree(1), nw.DownlinkFree(0); up != 0 || down != 0 {
		t.Fatalf("idle NICs report %g, %g", up, down)
	}
	if _, err := nw.EarliestStart(0, 9, 0); !errors.Is(err, ErrBadNode) {
		t.Fatalf("bad node: %v", err)
	}
}

// Property: transfers never start before requested, never end before
// they start, and NIC cursors are monotone.
func TestTransferMonotoneProperty(t *testing.T) {
	nw, err := New(FromMegabits(16), 8)
	if err != nil {
		t.Fatal(err)
	}
	now := 0.0
	err = quick.Check(func(srcRaw, dstRaw uint8, sizeRaw uint16, advance uint8) bool {
		src := int(srcRaw) % 8
		dst := int(dstRaw) % 8
		size := float64(sizeRaw) + 1
		now += float64(advance) / 10
		start, end, err := nw.Transfer(now, src, dst, size)
		if err != nil {
			return false
		}
		return start >= now && end >= start
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}
