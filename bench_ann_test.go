package adamant_test

import (
	"encoding/json"
	"os"
	"testing"

	"adamant/internal/core"
)

// TestBenchANNShape: BENCH_ann.json reports the network the selector
// actually uses, with core.NumInputs inputs and one output per
// candidate transport. Regenerate it with `make bench-ann` when the
// feature vector or the candidate list changes.
func TestBenchANNShape(t *testing.T) {
	raw, err := os.ReadFile("BENCH_ann.json")
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Layers []int `json:"layers"`
	}
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("BENCH_ann.json: %v", err)
	}
	if n := len(report.Layers); n < 2 || report.Layers[0] != core.NumInputs || report.Layers[n-1] != core.NumCandidates {
		t.Errorf("BENCH_ann.json layers %v, want %d inputs and %d outputs", report.Layers, core.NumInputs, core.NumCandidates)
	}
}
