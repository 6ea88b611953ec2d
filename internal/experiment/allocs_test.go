package experiment

import (
	"testing"
	"time"

	"adamant/internal/dds"
	"adamant/internal/netem"
	"adamant/internal/transport"
	"adamant/internal/transport/nakcast"
	"adamant/internal/transport/ricochet"
)

// TestEmulatedRunAllocs pins the allocation count of one emulated run
// for a fixed NAKcast and a fixed Ricochet configuration, the two
// protocol families that make up six of the seven dataset candidates.
// Ceilings sit under 10% above the measured counts (983 and 2213 on
// linux/amd64, go1.24), down from 983 and 6328 with eagerly allocated
// history rings and an allocating Ricochet repair path.
func TestEmulatedRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	base := Config{Machine: netem.PC3000, Bandwidth: netem.Gbps1, Impl: dds.ImplA,
		LossPct: 5, Receivers: 3, RateHz: 25, Samples: 100, Seed: 7}
	for _, tc := range []struct {
		proto   transport.Spec
		ceiling float64
	}{
		{nakcast.Spec(10 * time.Millisecond), 1080},
		{ricochet.Spec(4, 3), 2430},
	} {
		cfg := base
		cfg.Protocol = tc.proto
		got := testing.AllocsPerRun(5, func() {
			if _, _, err := RunDetailed(cfg); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs per run", tc.proto, got)
		if got > tc.ceiling {
			t.Errorf("%s: %.0f allocs per run, ceiling %.0f", tc.proto, got, tc.ceiling)
		}
	}
}
