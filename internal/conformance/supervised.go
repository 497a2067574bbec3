package conformance

import (
	"errors"
	"fmt"

	"repro/internal/ffi"
	"repro/internal/mpk"
	"repro/internal/obs"
	"repro/internal/pkalloc"
	"repro/internal/profile"
	"repro/internal/provenance"
	"repro/internal/supervise"
	"repro/internal/vm"
)

// SupervisedOptions configures a supervised-gate conformance drill.
type SupervisedOptions struct {
	// Policy is the recovery policy to drill (Retry, Quarantine or Heal;
	// Abort degrades to an unsupervised run and the faulting call fails).
	Policy supervise.Policy
	// PlantSkipRestore simulates a buggy recovery layer that resumes
	// trusted code without restoring the PKRU register. The oracle must
	// report a divergence — this is the drill's own fault-injection mode.
	PlantSkipRestore bool
}

// SupervisedReport is the outcome of one supervised-gate drill.
type SupervisedReport struct {
	Policy      string       `json:"policy"`
	CallErr     string       `json:"call_err,omitempty"`
	Healed      bool         `json:"healed"`
	Divergences []Divergence `json:"-"`
	// DivergenceStrings mirrors Divergences for the JSON summary.
	DivergenceStrings []string `json:"divergences"`
}

// RunSupervisedGate drives the real recovering stack and the pure
// reference model through the same compartment-failure scenario and
// verifies that recovery did not change the enforcement semantics:
// after the supervisor unwinds a faulted T→U call, the thread's PKRU and
// gate depth must match the model's, and the end-of-drill page-key sweep
// must agree everywhere — for the Heal policy, exactly the healed
// object's pages moved to the shared key and every other trusted page
// kept the trusted key.
//
// The scenario: trusted code allocates two page-sized MT objects, A and
// B, plus one MU object; only A's provenance reaches the shadow store
// under an ID the (deliberately truncated) profile missed. A supervised
// gated call asks the untrusted library to write A — a PKUERR today.
// Under Retry the callee is flaky (it writes the MU object from the
// second attempt on); under Quarantine the failed call is dropped; under
// Heal the site is migrated and the same write retried. The model
// mirrors each step with GateEnter/Access/GateExit and, for a heal, the
// equivalent SetPKey.
func RunSupervisedGate(opts SupervisedOptions) (*SupervisedReport, error) {
	// Small pools so the key sweep over both regions stays cheap.
	const (
		mtBase = vm.Addr(0x2000_0000_0000)
		muBase = vm.Addr(0x7000_0000_0000)
		mtSize = uint64(64 * vm.PageSize)
		muSize = uint64(64 * vm.PageSize)
	)
	space := vm.NewSpace()
	alloc, err := pkalloc.New(pkalloc.Config{
		Space:       space,
		TrustedBase: mtBase, TrustedSize: mtSize,
		UntrustedBase: muBase, UntrustedSize: muSize,
	})
	if err != nil {
		return nil, err
	}
	reg := ffi.NewRegistry()
	rt := ffi.NewRuntime(reg, alloc, nil, ffi.GatesOn)
	shadow := new(provenance.Shadow)
	rec := obs.NewRecorder(obs.Config{Space: space, TrustedKey: alloc.TrustedKey(), BuildConfig: "mpk", Shadow: shadow})
	rec.Install(rt.Sigs)
	sup := supervise.New(supervise.Config{Policy: opts.Policy}, supervise.Deps{Alloc: alloc, Shadow: shadow, Recorder: rec})

	model := NewModel(1, alloc.TrustedKey())
	if !model.Reserve(mtBase, mtSize, alloc.TrustedKey()) || !model.Reserve(muBase, muSize, 0) {
		return nil, errors.New("conformance: model rejected the pool reservations")
	}

	// Page-sized objects so healed and control objects sit on distinct
	// pages: page-granular healing must not move B's key.
	objA, err := alloc.Alloc(vm.PageSize)
	if err != nil {
		return nil, err
	}
	objB, err := alloc.Alloc(vm.PageSize)
	if err != nil {
		return nil, err
	}
	objU, err := alloc.UntrustedAlloc(vm.PageSize)
	if err != nil {
		return nil, err
	}
	siteA := profile.AllocID{Func: "drill", Block: 0, Site: 1}
	shadow.Track(provenance.Entry{Base: objA, Size: vm.PageSize, ID: siteA})

	attempts := 0
	reg.MustLibrary("u", ffi.Untrusted).Define("scribble", func(th *ffi.Thread, _ []uint64) ([]uint64, error) {
		attempts++
		target := objA
		if opts.Policy == supervise.Retry && attempts > 1 {
			target = objU // flaky: the transient failure clears
		}
		if e := th.Store64(target, 1337); e != nil {
			return nil, e
		}
		return nil, nil
	})

	th := rt.NewThread()
	callErr := func() error {
		_, e := sup.Call(th, "u", "scribble")
		return e
	}()

	// Mirror the run in the model. Every real attempt crossed one forward
	// gate that the recovery (or a normal return) fully unwound, so the
	// model performs the same enter/access/exit sequence.
	for i := 1; i <= attempts; i++ {
		model.GateEnter(0)
		target := objA
		if opts.Policy == supervise.Retry && i > 1 {
			target = objU
		}
		out := model.Access(0, target, 8, true)
		if out.Kind == FaultPKU && opts.Policy == supervise.Heal {
			// The heal the supervisor performs between attempts: the
			// object's page moves to the shared key, in the model's terms
			// a SetPKey over exactly that page range.
			if !model.SetPKey(target.PageBase(), vm.PageSize, 0) {
				return nil, errors.New("conformance: model rejected the heal retag")
			}
		}
		model.GateExit(0)
	}

	if opts.PlantSkipRestore {
		// The planted recovery bug: trusted code resumes with the
		// untrusted rights still installed.
		th.VM.SetRights(rt.UntrustedPKRU())
	}

	rep := &SupervisedReport{Policy: opts.Policy.String(), Healed: sup.Healed(siteA)}
	if callErr != nil {
		rep.CallErr = callErr.Error()
	}

	// Diff 1: post-recovery thread state vs the model.
	if got, want := th.VM.Rights(), model.PKRU(0); got != want {
		rep.Divergences = append(rep.Divergences, Divergence{
			Index: -1, What: "pkru",
			Real:  Outcome{Kind: OK, PKRU: got},
			Model: Outcome{Kind: OK, PKRU: want},
		})
	}
	if got, want := th.Depth(), model.GateDepth(0); got != want {
		rep.Divergences = append(rep.Divergences, Divergence{
			Index: -1, What: "outcome",
			Real:  Outcome{Kind: OK, Addr: vm.Addr(got)},
			Model: Outcome{Kind: OK, Addr: vm.Addr(want)},
		})
	}

	// Diff 2: full page-key sweep over both pools — healing must have
	// changed exactly what the model predicts (A's page under Heal,
	// nothing anywhere else).
	sweep := func(base vm.Addr, size uint64) {
		for a := base; a < base+vm.Addr(size); a += vm.PageSize {
			rk, rok := space.PKeyAt(a)
			mk, mok := model.KeyAt(a)
			if rok != mok || (rok && rk != mk) {
				rep.Divergences = append(rep.Divergences, Divergence{
					Index: -1, What: "keymap", Addr: a,
					Real:  keyOutcome(rk, rok),
					Model: keyOutcome(mk, mok),
				})
			}
		}
	}
	sweep(mtBase, mtSize)
	sweep(muBase, muSize)

	// Belt and braces inside the drill itself: the control object B must
	// still carry the trusted key on the real side.
	if k, _ := space.PKeyAt(objB); k != alloc.TrustedKey() {
		rep.Divergences = append(rep.Divergences, Divergence{
			Index: -1, What: "keymap", Addr: objB,
			Real:  keyOutcome(k, true),
			Model: keyOutcome(alloc.TrustedKey(), true),
		})
	}

	for _, d := range rep.Divergences {
		rep.DivergenceStrings = append(rep.DivergenceStrings, d.String())
	}
	return rep, nil
}

// keyOutcome packs a key-map probe into the Outcome shape Divergence
// renders.
func keyOutcome(k mpk.Key, ok bool) Outcome {
	if !ok {
		return Outcome{Kind: FaultMap}
	}
	return Outcome{Kind: OK, PKey: k}
}

// DrillSupervised runs the clean drill for every recovery policy and the
// planted-bug variant, returning an error describing the first failure:
// a clean drill must not diverge (and under Heal must actually heal),
// and the planted skip-restore must be caught. cmd/pkru-conform -supervised
// and the conformance tests share this entry point.
func DrillSupervised() error {
	for _, p := range []supervise.Policy{supervise.Retry, supervise.Quarantine, supervise.Heal} {
		rep, err := RunSupervisedGate(SupervisedOptions{Policy: p})
		if err != nil {
			return fmt.Errorf("supervised drill (%v): %w", p, err)
		}
		if len(rep.Divergences) != 0 {
			return fmt.Errorf("supervised drill (%v): recovery changed enforcement semantics: %s",
				p, rep.DivergenceStrings[0])
		}
		if p == supervise.Heal && !rep.Healed {
			return errors.New("supervised drill (heal): site was not healed")
		}
		if p == supervise.Heal && rep.CallErr != "" {
			return fmt.Errorf("supervised drill (heal): call failed: %s", rep.CallErr)
		}
	}
	rep, err := RunSupervisedGate(SupervisedOptions{Policy: supervise.Heal, PlantSkipRestore: true})
	if err != nil {
		return fmt.Errorf("supervised drill (planted): %w", err)
	}
	if len(rep.Divergences) == 0 {
		return errors.New("supervised drill: planted skip-restore not detected by the oracle")
	}
	return nil
}
