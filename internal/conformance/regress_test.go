package conformance_test

import (
	"testing"

	"repro/internal/conformance"
)

// Shrunk counterexamples found by the fuzz targets, committed as pinned
// regressions. Each trace once diverged between the real stack and the
// reference model; replaying it must now report zero divergences.

// Found by FuzzSpaceOracle (corpus entry
// testdata/fuzz/FuzzSpaceOracle/8ccd98505f952e48) and shrunk to one op:
// vm.Space.Reserve computed its upper bound as base+size, which wraps for
// sizes near 2^64, so this reservation was accepted and produced a region
// whose End() preceded its Base. The model rejects it.
func TestConformanceRegressionReserveWrap(t *testing.T) {
	tr := conformance.Trace{Ops: []conformance.Op{
		{Kind: conformance.OpReserve, Thread: 0, Slot: 0, Flags: 0, Key: 1, Addr: 0x100000030000, Size: 0xffffff3030303000, Value: 0},
	}}
	res := conformance.Run(tr, conformance.Options{})
	for _, d := range res.Divergences {
		t.Errorf("divergence: %v", d)
	}
}

// The sibling bug in vm.Space.SetPKey: the same wrapping bound made the
// reservation-coverage walk see an empty range, so the retag "succeeded"
// as a silent no-op where the model rejects it.
func TestConformanceRegressionSetPKeyWrap(t *testing.T) {
	tr := conformance.Trace{Ops: []conformance.Op{
		{Kind: conformance.OpReserve, Thread: 0, Slot: 0, Flags: 0, Key: 1, Addr: 0x100000030000, Size: 0x4000, Value: 0},
		{Kind: conformance.OpSetPKey, Thread: 0, Slot: 0, Flags: 0, Key: 2, Addr: 0x100000030000, Size: 0xfffffffffffff000, Value: 0},
		{Kind: conformance.OpLoad, Thread: 0, Slot: 0, Flags: 0x4, Key: 0, Addr: 0x100000030000, Size: 0x8, Value: 0},
	}}
	res := conformance.Run(tr, conformance.Options{})
	for _, d := range res.Divergences {
		t.Errorf("divergence: %v", d)
	}
}

// An untrusted overrun (slot 2 is 6694 bytes; the store lands at 0x1a43)
// zeroes the in-band metadata of the free MU chunk after it, and the next
// MU allocation walked the corrupted free list: the heap panicked and took
// Run down with it. The executor records such a call as refused.
func TestConformanceRegressionCorruptMUFreeList(t *testing.T) {
	tr := conformance.Trace{Ops: []conformance.Op{
		{Kind: conformance.OpAlloc, Thread: 1, Slot: 6, Size: 2968, Flags: conformance.FlagUntrusted},
		{Kind: conformance.OpAlloc, Thread: 1, Slot: 1, Size: 1190, Flags: conformance.FlagUntrusted},
		{Kind: conformance.OpAlloc, Thread: 1, Slot: 2, Size: 6694, Flags: conformance.FlagUntrusted},
		{Kind: conformance.OpAlloc, Thread: 1, Slot: 4, Size: 985, Flags: conformance.FlagUntrusted},
		{Kind: conformance.OpRealloc, Thread: 2, Slot: 1, Size: 5897},
		{Kind: conformance.OpFree, Thread: 2, Slot: 4},
		{Kind: conformance.OpStore, Slot: 2, Addr: 0x1a43, Size: 16},
		{Kind: conformance.OpAlloc, Slot: 9, Size: 1770, Flags: conformance.FlagUntrusted},
	}}
	res := conformance.Run(tr, conformance.Options{})
	for _, d := range res.Divergences {
		t.Errorf("divergence: %v", d)
	}
}

// Found by the seeded sweep once supervised calls joined the trace
// language: the retag of one MT page split pkalloc's region, the space
// left pkalloc's region object on that page, and the supervisor's heal
// then refused the MT object (not in the trusted region) and quarantined
// instead. The model heals.
func TestConformanceRegressionRetagSplitsTrustedPool(t *testing.T) {
	tr := conformance.Trace{Ops: []conformance.Op{
		{Kind: conformance.OpSetPKey, Thread: 0, Slot: 0, Flags: 0x0, Key: 1, Addr: 0x3e30e618c000, Size: 0x1000, Value: 0x0},
		{Kind: conformance.OpAlloc, Thread: 0, Slot: 8, Flags: 0x0, Key: 0, Addr: 0x0, Size: 0xfe7, Value: 0x0},
		{Kind: conformance.OpSupervisedCall, Thread: 0, Slot: 8, Flags: 0x8, Key: 3, Addr: 0x29, Size: 0x4, Value: 0x0},
	}}
	res := conformance.Run(tr, conformance.Options{})
	for _, d := range res.Divergences {
		t.Errorf("divergence: %v", d)
	}
}
