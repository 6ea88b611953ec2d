package conformance

import (
	"testing"
	"time"

	"adamant/internal/netem/chaos"
	"adamant/internal/transport/transporttest"
)

// TestPacketHandoff holds every protocol to the endpoint hand-off rule:
// nobody writes a packet after it is handed to Unicast or Multicast. Every
// node's endpoint is wrapped in one transporttest.Handoff, which
// fingerprints each packet at its first send and re-checks it on every
// re-send, on every delivery and once more after the run. Each protocol
// runs through the lossy ramp (NAKs, retransmissions, repairs, symbols)
// and through the switch matrix's loss-peak swap to its canonical target
// (epoch stamping, rebind announcements, parked packets), on the classic
// kernel and on the sharded engine, where receivers on other lanes read
// the sender's packet in parallel. The wrapper must be invisible: each
// wrapped run hashes like the same cell unwrapped.
func TestPacketHandoff(t *testing.T) {
	for _, spec := range DefaultCrucibleSpecs() {
		for _, shards := range []int{0, 2} {
			cells := []CrucibleScenario{
				{Spec: spec, Chaos: chaos.LossyRamp(), Seed: 1, Shards: shards},
				{
					Spec: spec, Chaos: chaos.LossyRamp(), Seed: 1, Shards: shards,
					Switches: []TransportSwitch{{At: 1900 * time.Millisecond, Spec: SwitchTargetFor(spec)}},
				},
			}
			for _, cs := range cells {
				cs := cs
				t.Run(cs.Name(), func(t *testing.T) {
					t.Parallel()
					h := transporttest.NewHandoff()
					out, err := executeCrucible(cs, h.Wrap)
					if err != nil {
						t.Fatal(err)
					}
					if err := h.Check(); err != nil {
						t.Error(err)
					}
					if h.Packets() == 0 {
						t.Fatal("no packet crossed a wrapped endpoint")
					}
					plain, err := ExecuteCrucible(cs)
					if err != nil {
						t.Fatal(err)
					}
					if out.Hash != plain.Hash {
						t.Errorf("wrapped run hashes %s, unwrapped %s", out.Hash, plain.Hash)
					}
				})
			}
		}
	}
}
