package adaptive

import (
	"strings"
	"testing"
)

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want int }{
		{Auto, Auto},
		{0, 1},
		{-1, 1},
		{-2, 1},
		{-17, 1},
		{1, 1},
		{8, 8},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestPartitionsPolicy(t *testing.T) {
	cases := []struct {
		rows, procs int
		want        int
	}{
		{0, 8, 1},   // empty table: sequential
		{100, 8, 1}, // tiny table: below threshold
		{2*MinRowsPerPartition - 1, 8, 1} /* just under */, {2 * MinRowsPerPartition, 8, 2},
		{100 * MinRowsPerPartition, 1, 1},                // single core: never partition
		{100 * MinRowsPerPartition, 4, 8},                // capped at 2x cores
		{3 * MinRowsPerPartition, 16, 3},                 // row-bound below core cap
		{10000 * MinRowsPerPartition, 64, MaxPartitions}, // hard cap
	}
	for _, c := range cases {
		got, reason := Partitions(c.rows, c.procs)
		if got != c.want {
			t.Errorf("Partitions(%d, %d) = %d, want %d", c.rows, c.procs, got, c.want)
		}
		if !strings.HasPrefix(reason, "auto:") {
			t.Errorf("Partitions(%d, %d) reason %q lacks auto: prefix", c.rows, c.procs, reason)
		}
	}
}

func TestWorkersPolicy(t *testing.T) {
	cases := []struct {
		partitions, procs int
		want              int
	}{
		{1, 1, 1}, // sequential machine
		{1, 8, 2}, // unpartitioned: column-level overlap only
		{8, 4, 4}, // core-bound
		{2, 8, 2}, // partition-bound
		{16, 16, 16},
	}
	for _, c := range cases {
		got, reason := Workers(c.partitions, c.procs)
		if got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.partitions, c.procs, got, c.want)
		}
		if !strings.HasPrefix(reason, "auto:") {
			t.Errorf("Workers reason %q lacks auto: prefix", reason)
		}
	}
}

func TestPartitionsNeverBelowOne(t *testing.T) {
	for _, rows := range []int{-5, 0, 1, MinRowsPerPartition} {
		for _, procs := range []int{-1, 0, 1, 2} {
			if got, _ := Partitions(rows, procs); got < 1 {
				t.Fatalf("Partitions(%d, %d) = %d < 1", rows, procs, got)
			}
			if got, _ := Workers(rows, procs); got < 1 {
				t.Fatalf("Workers(%d, %d) = %d < 1", rows, procs, got)
			}
		}
	}
}

// TestPartitionsForShape: the shape label flows into the tuning note,
// and the plain Partitions wrapper is the scan shape.
func TestPartitionsForShape(t *testing.T) {
	for _, shape := range []string{"scan", "join-probe", "sort"} {
		k, reason := PartitionsFor(100_000, 8, shape)
		if k < 2 {
			t.Errorf("PartitionsFor(100k, 8, %q) = %d, want parallel", shape, k)
		}
		if !strings.Contains(reason, "shape="+shape) {
			t.Errorf("reason %q lacks shape=%s", reason, shape)
		}
	}
	// Empty shape defaults to scan instead of emitting a bare "shape=".
	if _, reason := PartitionsFor(100, 8, ""); !strings.Contains(reason, "shape=scan") {
		t.Errorf("empty-shape reason = %q", reason)
	}
	k1, r1 := Partitions(100_000, 8)
	k2, r2 := PartitionsFor(100_000, 8, "scan")
	if k1 != k2 || r1 != r2 {
		t.Errorf("Partitions != PartitionsFor scan: (%d,%q) vs (%d,%q)", k1, r1, k2, r2)
	}
}
