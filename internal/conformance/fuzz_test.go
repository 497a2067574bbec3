package conformance

import (
	"encoding/binary"
	"testing"

	"repro/internal/mpk"
	"repro/internal/supervise"
	"repro/internal/vm"
)

// maxFuzzOps bounds one fuzz input's trace length so a single input stays
// fast; longer inputs are truncated, not rejected.
const maxFuzzOps = 512

// FuzzDifferential is the main conformance fuzzer: arbitrary bytes decode
// into a trace, the trace replays against the real stack and the model,
// and any divergence is shrunk and printed as a ready-to-paste regression
// test before failing.
func FuzzDifferential(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(Generate(seed, 96).Encode())
	}
	f.Add(DirectedTrace().Encode())
	f.Add(directedVKeyTrace().Encode())
	f.Add(VKeySweep(VKeySlots + 2).Encode())
	// One flaky supervised store into an MT object per policy.
	for p := supervise.Abort; p <= supervise.Heal; p++ {
		f.Add(Trace{Ops: []Op{
			{Kind: OpAlloc, Size: 4096},
			{Kind: OpAlloc, Slot: 1, Size: 64, Flags: FlagUntrusted},
			{Kind: OpSupervisedCall, Size: 8, Flags: FlagWrite | FlagFlaky, Key: mpk.Key(p)},
		}}.Encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := Decode(data)
		if len(tr.Ops) > maxFuzzOps {
			tr.Ops = tr.Ops[:maxFuzzOps]
		}
		res := Run(tr, Options{})
		if len(res.Divergences) == 0 {
			return
		}
		sh := Shrink(tr, Options{})
		t.Fatalf("real stack diverges from the reference model: %v\nshrunk repro (add to regress_test.go):\n%s",
			res.Divergences[0], FormatGoTest("Fuzz", sh))
	})
}

// FuzzSpaceOracle drives vm.Space directly against the model and then
// compares the protection key of EVERY page in the scratch window —
// denser than the differential executor's edge probes, so region-split
// bookkeeping bugs can't hide between probe points.
//
// Each 12-byte record is one op. rec[0] bits 2-3 pick it: 0 is Reserve
// (bit 0 clear) or SetPKey (bit 0 set), 1 touches a page with a trusted
// Poke, 2 is SetPageKey and 3 is ZeroResident. The model has no page
// table, so the page-level ops are mirrored beside it: pageKey holds the
// key SetPageKey gave a resident page until a SetPKey over it takes over,
// and content holds the byte each touched page should read back.
func FuzzSpaceOracle(f *testing.F) {
	// One reserve + an overlapping retag, and a wrap-sized reserve.
	f.Add([]byte{0, 1, 0, 0, 0x10, 0, 0, 0, 0, 0, 0, 0, 1, 5, 2, 0, 0x08, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 1, 0, 0, 0xf0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	// Reserve 16 pages, touch pages 9 and 3, heal page 5, retag pages
	// 2..9, then scrub pages 0..3.
	f.Add([]byte{
		2, 1, 0, 0, 0x10, 0, 0, 0, 0, 0, 0, 0,
		4, 7, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		4, 9, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		8, 4, 5, 0, 1, 0, 0, 0, 0, 0, 0, 0,
		3, 6, 2, 0, 8, 0, 0, 0, 0, 0, 0, 0,
		12, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		const window = 256 // pages checked exhaustively
		space := vm.NewSpace()
		model := NewModel(1, 1)
		pageKey := make(map[vm.Addr]mpk.Key)
		content := make(map[vm.Addr]byte)
		// reserved reports whether every page of [base, base+n pages) is
		// reserved in the model.
		reserved := func(base vm.Addr, n uint64) bool {
			for i := uint64(0); i < n; i++ {
				if _, ok := model.KeyAt(base + vm.Addr(i)*vm.PageSize); !ok {
					return false
				}
			}
			return true
		}
		const recLen = 12
		for n := 0; len(data) >= recLen && n < 64; n++ {
			rec := data[:recLen]
			data = data[recLen:]
			base := scratchBase + vm.Addr(binary.LittleEndian.Uint16(rec[2:])%window)*vm.PageSize
			size := binary.LittleEndian.Uint64(rec[4:])
			pages := size % 32 // the page-level ops always take sane spans
			if rec[0]&2 != 0 {
				size = pages * vm.PageSize // mostly sane spans
			}
			key := mpk.Key(rec[1])
			switch rec[0] >> 2 & 3 {
			case 0:
				if rec[0]&1 == 0 {
					_, err := space.Reserve("fuzz", base, size, key)
					if got := model.Reserve(base, size, key); got != (err == nil) {
						t.Fatalf("Reserve(%v, %#x, %d): real err=%v, model ok=%v", base, size, key, err, got)
					}
					continue
				}
				err := space.SetPKey(base, size, key)
				if got := model.SetPKey(base, size, key); got != (err == nil) {
					t.Fatalf("SetPKey(%v, %#x, %d): real err=%v, model ok=%v", base, size, key, err, got)
				}
				if err == nil {
					for a := range pageKey {
						if a >= base && uint64(a-base) < size {
							delete(pageKey, a)
						}
					}
				}
			case 1:
				b := rec[1] | 1
				err := space.Poke(base, []byte{b})
				if ok := reserved(base, 1); ok != (err == nil) {
					t.Fatalf("Poke(%v): real err=%v, model reserved=%v", base, err, ok)
				}
				if err == nil {
					content[base] = b
				}
			case 2:
				err := space.SetPageKey(base, pages*vm.PageSize, key)
				if ok := key.Valid() && reserved(base, pages); ok != (err == nil) {
					t.Fatalf("SetPageKey(%v, %d pages, %d): real err=%v, model ok=%v", base, pages, key, err, ok)
				}
				for i := uint64(0); err == nil && i < pages; i++ {
					a := base + vm.Addr(i)*vm.PageSize
					pageKey[a] = key
					if _, ok := content[a]; !ok {
						content[a] = 0
					}
				}
			case 3:
				if err := space.ZeroResident(base, pages*vm.PageSize); err != nil {
					t.Fatalf("ZeroResident(%v, %d pages): %v", base, pages, err)
				}
				for a := range content {
					if a >= base && uint64(a-base) < pages*vm.PageSize {
						content[a] = 0
					}
				}
			}
		}
		for p := 0; p < window+32; p++ {
			a := scratchBase + vm.Addr(p)*vm.PageSize
			realKey, realOK := space.PKeyAt(a)
			modelKey, modelOK := model.KeyAt(a)
			if k, ok := pageKey[a]; ok {
				modelKey = k
			}
			if realOK != modelOK || (realOK && realKey != modelKey) {
				t.Fatalf("page %v: real key=%d,%v model key=%d,%v", a, realKey, realOK, modelKey, modelOK)
			}
		}
		regions := space.Regions()
		for i, r := range regions {
			if r.Size == 0 {
				t.Fatalf("region %d [%v, %v) is empty", i, r.Base, r.End())
			}
			if i > 0 && regions[i-1].End() > r.Base {
				t.Fatalf("regions %d [%v, %v) and %d [%v, %v) are unsorted or overlap",
					i-1, regions[i-1].Base, regions[i-1].End(), i, r.Base, r.End())
			}
		}
		if got := space.ResidentPages(); got != len(content) {
			t.Fatalf("ResidentPages() = %d, want %d distinct pages touched", got, len(content))
		}
		for a, want := range content {
			var b [1]byte
			if err := space.Peek(a, b[:]); err != nil || b[0] != want {
				t.Fatalf("page %v reads %d (err %v), want %d", a, b[0], err, want)
			}
		}
	})
}
