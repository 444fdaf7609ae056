package runinfo

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/simd"
)

// The runner block names the vector tier, so an AVX2-only host and an
// AVX-512 host no longer write identical blocks, and a capped tier shows.
func TestCaptureRecordsVectorTier(t *testing.T) {
	for _, tier := range simd.Tiers() {
		prev := simd.SetTier(tier)
		info := Capture()
		simd.SetTier(prev)
		if info.SIMD != tier.String() {
			t.Fatalf("tier %v: Capture().SIMD = %q", tier, info.SIMD)
		}
		b, err := json.Marshal(info)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(b), `"simd":"`+tier.String()+`"`) {
			t.Fatalf("tier %v: runner block %s lacks the tier", tier, b)
		}
	}
}
