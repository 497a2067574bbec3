package vm_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/mpk"
	"repro/internal/sig"
	"repro/internal/vkey"
	"repro/internal/vm"
)

// TestWarmTranslationSeesEvictAndPark: a vkey eviction parks the victim's
// pages on the inactive key; a thread that cached one of those pages must
// PKU-fault on its next access, with the parking key in the siginfo.
func TestWarmTranslationSeesEvictAndPark(t *testing.T) {
	space := vm.NewSpace()
	tab, err := vkey.NewTable(space, vkey.Config{Reserved: []mpk.Key{1}})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]vkey.ID, tab.Slots()+1)
	bases := make([]vm.Addr, len(ids))
	for i := range ids {
		bases[i] = vm.Addr(0x5000_0000_0000 + uint64(i)<<20)
		if _, err := space.Reserve(fmt.Sprintf("tenant%d", i), bases[i], vm.PageSize, 0); err != nil {
			t.Fatal(err)
		}
		ids[i] = tab.Alloc(fmt.Sprintf("tenant%d", i))
		if err := tab.Attach(ids[i], bases[i], vm.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	th := vm.NewThread(space, nil)
	th.SetRights(mpk.PermitAll.With(tab.InactiveKey(), mpk.DenyAll))
	if _, _, err := tab.Activate(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := th.Load64(bases[0]); err != nil { // warm the entry
		t.Fatal(err)
	}
	for _, id := range ids[1:] { // one more tenant than slots: evicts ids[0]
		if _, _, err := tab.Activate(id); err != nil {
			t.Fatal(err)
		}
	}
	if k, _ := space.PKeyAt(bases[0]); k != tab.InactiveKey() {
		t.Fatalf("victim page key = %v, want parked on %v", k, tab.InactiveKey())
	}
	_, err = th.Load64(bases[0])
	var f *vm.Fault
	if !errors.As(err, &f) || f.Info.Code != sig.CodePKUErr || f.Info.PKey != uint8(tab.InactiveKey()) {
		t.Fatalf("access after evict-and-park: %v, want SEGV_PKUERR pkey=%d", err, tab.InactiveKey())
	}
}
