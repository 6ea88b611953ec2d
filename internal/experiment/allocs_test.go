package experiment

import (
	"runtime"
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
// Ceilings sit under 10% above the measured counts (815 and 1333 on
// linux/amd64, go1.24), down from 983 and 2213 before emulated packets
// were handed off instead of copied and cancelable timers were pooled.
// Bytes per run are logged beside the counts.
func TestEmulatedRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	base := Config{Machine: netem.PC3000, Bandwidth: netem.Gbps1, Impl: dds.ImplA,
		LossPct: 5, Receivers: 3, RateHz: 25, Samples: 100, Seed: 7}
	for _, tc := range []struct {
		proto   transport.Spec
		ceiling uint64
	}{
		{nakcast.Spec(10 * time.Millisecond), 890},
		{ricochet.Spec(4, 3), 1460},
	} {
		cfg := base
		cfg.Protocol = tc.proto
		allocs, bytes := runCost(5, func() {
			if _, _, err := RunDetailed(cfg); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d allocs, %d bytes per run", tc.proto, allocs, bytes)
		if allocs > tc.ceiling {
			t.Errorf("%s: %d allocs per run, ceiling %d", tc.proto, allocs, tc.ceiling)
		}
	}
}

// runCost returns the mean number of allocations and bytes allocated per
// call of f, measured as testing.AllocsPerRun measures allocations: on one
// P, after one warm-up call, averaged over runs calls.
func runCost(runs int, f func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	n := uint64(runs)
	return (after.Mallocs - before.Mallocs) / n, (after.TotalAlloc - before.TotalAlloc) / n
}
