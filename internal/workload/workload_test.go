package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHitRateSweepTotalsConserved(t *testing.T) {
	pts := HitRateSweep(128000, Table4MissRates())
	if len(pts) != 14 {
		t.Fatalf("points = %d, want 14 (Table 4 rows)", len(pts))
	}
	for _, p := range pts {
		if p.T+p.P != 128000 {
			t.Fatalf("T+P = %d, want 128000", p.T+p.P)
		}
	}
	// First row matches Table 4: T=1280, P=126720.
	if pts[0].T != 1280 || pts[0].P != 126720 {
		t.Fatalf("first row = %+v", pts[0])
	}
	// Last row is full prefill.
	if pts[13].T != 128000 || pts[13].P != 0 {
		t.Fatalf("last row = %+v", pts[13])
	}
}

func TestPointMissRate(t *testing.T) {
	if got := (Point{T: 1280, P: 126720}).MissRate(); math.Abs(got-0.01) > 1e-12 {
		t.Fatalf("miss rate = %v", got)
	}
	if (Point{}).MissRate() != 0 {
		t.Fatal("empty point miss rate should be 0")
	}
}

func TestContextSweeps(t *testing.T) {
	short := ContextSweep(false)
	if short[0] != 2000 || short[len(short)-1] != 128000 {
		t.Fatalf("short sweep = %v", short)
	}
	long := ContextSweep(true)
	if long[0] != 128000 || long[len(long)-1] != 1000000 {
		t.Fatalf("long sweep = %v", long)
	}
}

func TestLogGridCoverage(t *testing.T) {
	pts := LogGrid(100, 100000, 0.001, 1.0, 8, 6)
	if len(pts) != 48 {
		t.Fatalf("grid size = %d", len(pts))
	}
	for _, p := range pts {
		if p.T < 100 || p.T > 100000 {
			t.Fatalf("T = %d outside grid", p.T)
		}
		if p.P < 0 {
			t.Fatalf("negative P: %+v", p)
		}
	}
	// Must include both very low and miss-rate-1 points.
	var sawFull, sawLow bool
	for _, p := range pts {
		if p.P == 0 {
			sawFull = true
		}
		if p.MissRate() < 0.01 {
			sawLow = true
		}
	}
	if !sawFull || !sawLow {
		t.Fatalf("grid misses extremes: full=%v low=%v", sawFull, sawLow)
	}
}

// Property: sweeps conserve the total and keep T within [1, total].
func TestPropertySweepInvariants(t *testing.T) {
	f := func(rawTotal uint32, rawMR uint8) bool {
		total := int(rawTotal%1000000) + 10
		mr := (float64(rawMR) + 1) / 256
		pts := HitRateSweep(total, []float64{mr})
		p := pts[0]
		return p.T >= 1 && p.T <= total && p.T+p.P == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
