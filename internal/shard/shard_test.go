package shard

import (
	"errors"
	"fmt"
	"testing"
)

func TestNewMapValidation(t *testing.T) {
	for _, p := range []int{-1, 0, MaxShards + 1} {
		if _, err := NewMap(p); !errors.Is(err, ErrBadShardCount) {
			t.Errorf("NewMap(%d): err=%v, want ErrBadShardCount", p, err)
		}
	}
	for _, p := range []int{1, 2, 8, MaxShards} {
		m, err := NewMap(p)
		if err != nil {
			t.Fatalf("NewMap(%d): %v", p, err)
		}
		if m.p != p {
			t.Fatalf("shard count %d, want %d", m.p, p)
		}
	}
}

func TestMapOfStableAndInRange(t *testing.T) {
	m, _ := NewMap(8)
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("/data/part-%05d", i)
		s := m.Of(name)
		if s < 0 || s >= 8 {
			t.Fatalf("Of(%q)=%d out of range", name, s)
		}
		if again := m.Of(name); again != s {
			t.Fatalf("Of(%q) unstable: %d then %d", name, s, again)
		}
	}
	one, _ := NewMap(1)
	if got := one.Of("/anything"); got != 0 {
		t.Fatalf("P=1 Of=%d, want 0", got)
	}
}

func TestMapSpreadsPaths(t *testing.T) {
	const P, N = 8, 8000
	m, _ := NewMap(P)
	counts := make([]int, P)
	for i := 0; i < N; i++ {
		counts[m.Of(fmt.Sprintf("/user/%d/file-%d.dat", i%17, i))]++
	}
	// FNV-1a over distinct paths should land within 2x of the even
	// share on every shard; a skew beyond that means the hash or the
	// mod is broken.
	for s, c := range counts {
		if c < N/(2*P) || c > N*2/P {
			t.Fatalf("shard %d holds %d of %d paths (even share %d)", s, c, N, N/P)
		}
	}
}

func TestTenantOfAndPrefix(t *testing.T) {
	cases := []struct {
		name, tenant string
	}{
		{"/plain/file", ""},
		{"relative.dat", ""},
		{"@acme/logs/a.dat", "acme"},
		{"@t/x", "t"},
		{"@/x", ""},      // empty tenant segment is not a tenant
		{"@noslash", ""}, // no separator: default tenant
	}
	for _, c := range cases {
		if got := TenantOf(c.name); got != c.tenant {
			t.Errorf("TenantOf(%q)=%q, want %q", c.name, got, c.tenant)
		}
	}
	if got := Prefix("acme", "logs/a.dat"); got != "@acme/logs/a.dat" {
		t.Fatalf("Prefix=%q", got)
	}
	if got := Prefix("", "/plain"); got != "/plain" {
		t.Fatalf("Prefix default tenant=%q", got)
	}
	if got := TenantOf(Prefix("acme", "x")); got != "acme" {
		t.Fatalf("round trip tenant=%q", got)
	}
}

func TestQuotaReserveRelease(t *testing.T) {
	q := NewQuotas()
	q.Set("acme", Quota{MaxFiles: 2, MaxBytes: 100, MaxRF: 3})

	if err := q.Reserve("acme", 1, 60, 2); err != nil {
		t.Fatalf("first reserve: %v", err)
	}
	if err := q.Reserve("acme", 1, 60, 2); !errors.Is(err, ErrQuota) {
		t.Fatalf("byte-exceeding reserve: err=%v, want ErrQuota", err)
	}
	// Failed reservation must not have consumed anything.
	if u := q.usage["acme"]; u.Files != 1 || u.Bytes != 60 {
		t.Fatalf("usage after failed reserve: %+v", u)
	}
	if err := q.Reserve("acme", 1, 40, 2); err != nil {
		t.Fatalf("fitting reserve: %v", err)
	}
	if err := q.Reserve("acme", 1, 0, 2); !errors.Is(err, ErrQuota) {
		t.Fatalf("file-exceeding reserve: err=%v, want ErrQuota", err)
	}
	if err := q.Check("acme", 0, 0, 4); !errors.Is(err, ErrQuota) {
		t.Fatalf("rf above ceiling: err=%v, want ErrQuota", err)
	}
	q.Release("acme", 1, 60)
	if u := q.usage["acme"]; u.Files != 1 || u.Bytes != 40 {
		t.Fatalf("usage after release: %+v", u)
	}
	// Release never drives usage negative.
	q.Release("acme", 10, 1000)
	if u := q.usage["acme"]; u.Files != 0 || u.Bytes != 0 {
		t.Fatalf("usage after over-release: %+v", u)
	}
}

func TestQuotaUnlimitedByDefault(t *testing.T) {
	q := NewQuotas()
	if err := q.Reserve("anyone", 1_000_000, 1<<40, 99); err != nil {
		t.Fatalf("unquota'd tenant refused: %v", err)
	}
	if u := q.usage["anyone"]; u.Files != 1_000_000 {
		t.Fatalf("usage still tracked: %+v", u)
	}
}

func TestQuotaResetAndSnapshot(t *testing.T) {
	q := NewQuotas()
	q.Set("b", Quota{MaxFiles: 10})
	q.ResetUsage(map[string]Usage{"a": {Files: 3, Bytes: 30}, "b": {Files: 1, Bytes: 5}})
	snap := q.Snapshot()
	if len(snap) != 2 || snap[0].Tenant != "a" || snap[1].Tenant != "b" {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap[0].Usage.Files != 3 || snap[1].Quota.MaxFiles != 10 {
		t.Fatalf("snapshot contents = %+v", snap)
	}
}
