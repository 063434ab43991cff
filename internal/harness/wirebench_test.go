package harness

import (
	"strings"
	"testing"
)

// TestCheckWireGatesEveryRow: the alloc gate covers every row recorded in
// both runs, not only the steal sequence — a regressed decode row fails,
// and rows missing from either side are ignored.
func TestCheckWireGatesEveryRow(t *testing.T) {
	base := []WireBenchResult{
		{Name: "decode-stolen-closure", AllocsPerOp: 7},
		{Name: "steal-sequence", AllocsPerOp: 5},
		{Name: "retired-row", AllocsPerOp: 1},
	}
	fresh := []WireBenchResult{
		{Name: "decode-stolen-closure", AllocsPerOp: 7},
		{Name: "steal-sequence", AllocsPerOp: 5},
		{Name: "new-row", AllocsPerOp: 40},
	}
	if err := CheckWire(base, fresh); err != nil {
		t.Fatalf("at baseline: %v", err)
	}
	fresh[0].AllocsPerOp = 8
	err := CheckWire(base, fresh)
	if err == nil || !strings.Contains(err.Error(), "decode-stolen-closure allocs 8") {
		t.Fatalf("regressed decode row passed the gate: %v", err)
	}
	if err := CheckWire(nil, fresh[1:]); err != nil {
		t.Fatalf("no baseline: %v", err)
	}
	if err := CheckWire(nil, []WireBenchResult{{Name: "steal-sequence", AllocsPerOp: StealSeqAllocBudget}}); err == nil {
		t.Fatal("steal sequence over budget passed the gate")
	}
	if err := CheckWire(base, fresh[:1]); err == nil {
		t.Fatal("missing steal-sequence row passed the gate")
	}
}
