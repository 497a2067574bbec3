package conformance

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/mpk"
	"repro/internal/vm"
)

func TestModelReserveValidation(t *testing.T) {
	cases := []struct {
		name string
		base vm.Addr
		size uint64
		key  mpk.Key
		want bool
	}{
		{"valid", 0x1000, vm.PageSize, 1, true},
		{"misaligned base", 0x1001, vm.PageSize, 1, false},
		{"misaligned size", 0x1000, vm.PageSize + 1, 1, false},
		{"empty", 0x1000, 0, 1, false},
		{"invalid key", 0x1000, vm.PageSize, 16, false},
		{"base out of range", vm.MaxAddr, vm.PageSize, 1, false},
		{"end out of range", vm.MaxAddr - vm.PageSize, 2 * vm.PageSize, 1, false},
		{"size wraps past 2^64", vm.PageSize, ^uint64(0) - vm.PageMask, 1, false},
		{"at top of space", vm.MaxAddr - vm.PageSize, vm.PageSize, 1, true},
	}
	for _, c := range cases {
		m := NewModel(1, 1)
		if got := m.Reserve(c.base, c.size, c.key); got != c.want {
			t.Errorf("%s: Reserve(%v, %#x, %d) = %v, want %v", c.name, c.base, c.size, c.key, got, c.want)
		}
	}
}

func TestModelReserveOverlap(t *testing.T) {
	m := NewModel(1, 1)
	if !m.Reserve(0x2000, 2*vm.PageSize, 1) {
		t.Fatal("first reserve rejected")
	}
	if m.Reserve(0x3000, vm.PageSize, 2) {
		t.Error("overlapping reserve accepted")
	}
	if !m.Reserve(0x4000, vm.PageSize, 2) {
		t.Error("adjacent reserve rejected")
	}
}

func TestModelSetPKeySplits(t *testing.T) {
	m := NewModel(1, 1)
	if !m.Reserve(0x10000, 4*vm.PageSize, 1) {
		t.Fatal("reserve rejected")
	}
	// Retag the middle two pages; the edges keep key 1.
	if !m.SetPKey(0x11000, 2*vm.PageSize, 5) {
		t.Fatal("retag rejected")
	}
	wantKeys := map[vm.Addr]mpk.Key{0x10000: 1, 0x11000: 5, 0x12000: 5, 0x13000: 1}
	for a, want := range wantKeys {
		got, ok := m.KeyAt(a)
		if !ok || got != want {
			t.Errorf("KeyAt(%v) = %d,%v, want %d,true", a, got, ok, want)
		}
	}
	// A retag spanning a gap must be rejected.
	if m.SetPKey(0x12000, 4*vm.PageSize, 2) {
		t.Error("retag across unreserved gap accepted")
	}
	// Zero-length retag succeeds as a no-op, like pkey_mprotect(len=0).
	if !m.SetPKey(0x10000, 0, 2) {
		t.Error("zero-length retag rejected")
	}
}

func TestModelAccessOutcomes(t *testing.T) {
	m := NewModel(1, 1)
	if !m.Reserve(0x10000, 2*vm.PageSize, 3) {
		t.Fatal("reserve rejected")
	}
	// Full rights: access ok, including one crossing the page boundary.
	if o := m.Access(0, 0x10ffc, 8, true); o.Kind != OK {
		t.Errorf("permitted access: %v", o)
	}
	// Unreserved: map fault at the exact address.
	if o := m.Access(0, 0x9000, 4, false); o.Kind != FaultMap || o.Addr != 0x9000 {
		t.Errorf("unreserved access: %v", o)
	}
	// Crossing out of the reservation: map fault at the first byte of the
	// unreserved page chunk.
	if o := m.Access(0, 0x11ffc, 8, false); o.Kind != FaultMap || o.Addr != 0x12000 {
		t.Errorf("overrun access: %v", o)
	}
	// Write-disable: reads pass, writes fault with WD decoded.
	m.SetPKRU(0, mpk.PermitAll.With(3, mpk.ReadOnly))
	if o := m.Access(0, 0x10000, 8, false); o.Kind != OK {
		t.Errorf("read under WD: %v", o)
	}
	o := m.Access(0, 0x10000, 8, true)
	if o.Kind != FaultPKU || o.PKey != 3 || !o.Write || o.AD || !o.WD {
		t.Errorf("write under WD: %v", o)
	}
	// Access-disable: both directions fault with AD decoded.
	m.SetPKRU(0, mpk.PermitAll.With(3, mpk.DenyAll))
	o = m.Access(0, 0x10000, 1, false)
	if o.Kind != FaultPKU || !o.AD || !o.WD {
		t.Errorf("read under AD: %v", o)
	}
	// Zero-width access never faults.
	if o := m.Access(0, 0xdead_0000, 0, true); o.Kind != OK {
		t.Errorf("zero-width access: %v", o)
	}
}

func TestModelGateStack(t *testing.T) {
	m := NewModel(2, 1)
	custom := mpk.PermitAll.With(7, mpk.ReadOnly)
	m.SetPKRU(0, custom)
	m.GateEnter(0)
	if got := m.PKRU(0); got != m.UntrustedPKRU() {
		t.Errorf("in-gate PKRU = %v, want %v", got, m.UntrustedPKRU())
	}
	m.GateEnter(0)
	m.GateExit(0)
	m.GateExit(0)
	if got := m.PKRU(0); got != custom {
		t.Errorf("post-gate PKRU = %v, want %v", got, custom)
	}
	// Thread 1 is untouched by thread 0's gates.
	if got := m.PKRU(1); got != mpk.PermitAll {
		t.Errorf("thread 1 PKRU = %v, want PermitAll", got)
	}
}

// TestDirectedTraceCleanWithoutInjection: the fault-injection probe trace
// must replay divergence-free when nothing is injected — the harness's own
// gate/alloc/retag choreography agrees with the model.
func TestDirectedTraceCleanWithoutInjection(t *testing.T) {
	res := Run(DirectedTrace(), Options{})
	for _, d := range res.Divergences {
		t.Errorf("probe trace without injection: %v", d)
	}
	if res.Skipped != 0 {
		t.Errorf("Skipped = %d, want 0 (the directed trace is fully live)", res.Skipped)
	}
}

// TestSeededTracesConverge: generated traces replay identically on the
// real stack and the model. The range includes the fuzz-corpus seeds and
// seed 17, which once drove the generator itself into an Int63n panic on
// a wrap-sized recorded span.
func TestSeededTracesConverge(t *testing.T) {
	for seed := int64(1); seed <= 32; seed++ {
		res := Run(Generate(seed, 384), Options{})
		if len(res.Divergences) > 0 {
			sh := Shrink(res.Trace, Options{})
			t.Errorf("seed %d: %d divergences; first: %v\nshrunk repro:\n%s",
				seed, len(res.Divergences), res.Divergences[0], FormatGoTest("Seeded", sh))
		}
		if res.Ops == 0 {
			t.Errorf("seed %d: no ops executed", seed)
		}
	}
}

// TestSeededTracesCoverFaultKinds: across the standard seeds the traces
// must actually reach both fault classes and the ok path, or the
// differential check would be vacuous.
func TestSeededTracesCoverFaultKinds(t *testing.T) {
	total := map[OutcomeKind]int{}
	for seed := int64(1); seed <= 16; seed++ {
		res := Run(Generate(seed, 384), Options{})
		for k, n := range res.Counts {
			total[k] += n
		}
	}
	for _, k := range []OutcomeKind{OK, Rejected, FaultMap, FaultPKU} {
		if total[k] == 0 {
			t.Errorf("no %v outcomes across seed corpus; generator lost coverage", k)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := Generate(7, 100)
	got := Decode(tr.Encode())
	if !reflect.DeepEqual(tr, got) {
		t.Fatal("decode(encode(trace)) differs from trace")
	}
	// Arbitrary bytes decode without panicking, dropping the tail.
	if ops := Decode(make([]byte, opRecordLen+3)).Ops; len(ops) != 1 {
		t.Errorf("partial record: got %d ops, want 1", len(ops))
	}
}

func TestFormatGoTestIsReplayable(t *testing.T) {
	src := FormatGoTest("X", DirectedTrace())
	for _, want := range []string{
		"func TestConformanceRegressionX(t *testing.T)",
		"conformance.Run(tr, conformance.Options{})",
		"conformance.OpReserve",
		"res.Divergences",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("rendered test missing %q:\n%s", want, src)
		}
	}
}
