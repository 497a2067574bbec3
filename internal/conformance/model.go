// Package conformance checks the real enforcement stack — vm.Space paging,
// vm.Thread PKRU checking, sig fault delivery, the pkalloc pools, the ffi
// call gates, vkey slot multiplexing and supervised recovery — against an
// independent reference model of the intended MPK semantics.
//
// The model is deliberately primitive: a sorted list of reserved address
// intervals tagged with protection keys, and per-thread PKRU values with a
// gate stack. It has no page table, no residency, no region splitting, no
// allocator and no signal machinery, so a bug in any of those layers shows
// up as a divergence between the model's predicted outcome and what the
// real stack actually did. A seeded trace generator (gen.go) and a
// differential executor (diff.go) drive both sides through the same
// operation sequence; a shrinker (shrink.go) reduces any divergence to a
// minimal replayable trace, and a fault injector (inject.go) plants known
// bugs in the real side to prove the oracle catches them. The directed
// drills are traces too (DirectedTrace, VKeySweep), so every property the
// model learns is checked by every drill, sweep and fuzz input.
package conformance

import (
	"sort"
	"strings"

	"repro/internal/mpk"
	"repro/internal/supervise"
	"repro/internal/vm"
)

// interval is one reserved span [base, end) whose pages carry key.
// Intervals are disjoint; adjacent intervals may carry different keys.
type interval struct {
	base, end vm.Addr
	key       mpk.Key
}

// modelThread is the model's view of one CPU context: the PKRU register
// and the stack of rights saved by open call gates.
type modelThread struct {
	pkru  mpk.PKRU
	gates []mpk.PKRU
}

// Model is the pure reference model of the enforcement semantics.
type Model struct {
	ivals      []interval // sorted by base, disjoint
	threads    []*modelThread
	trustedKey mpk.Key

	// objects are the live trusted-heap objects, base to size: the
	// allocation shadow's view, which a heal resolves its fault against.
	objects map[vm.Addr]uint64
	// budget is each policy's supervisor's remaining recovery actions.
	budget [supervise.Heal + 1]int
}

// NewModel returns a model with nthreads fresh threads (PKRU zero, the
// permit-everything hardware reset state), no reservations, no objects
// and a full recovery budget per policy.
func NewModel(nthreads int, trustedKey mpk.Key) *Model {
	m := &Model{trustedKey: trustedKey, objects: make(map[vm.Addr]uint64)}
	for i := 0; i < nthreads; i++ {
		m.threads = append(m.threads, &modelThread{})
	}
	for p := range m.budget {
		m.budget[p] = supervise.Budget
	}
	return m
}

// UntrustedPKRU is the rights value the model expects a forward gate to
// install: everything stays accessible except the trusted pool's key.
func (m *Model) UntrustedPKRU() mpk.PKRU {
	return mpk.PermitAll.With(m.trustedKey, mpk.DenyAll)
}

// PKRU returns thread t's rights register.
func (m *Model) PKRU(t int) mpk.PKRU {
	return m.threads[t].pkru
}

// SetPKRU models WRPKRU on thread t.
func (m *Model) SetPKRU(t int, v mpk.PKRU) { m.threads[t].pkru = v }

// GateEnter models a forward call gate on thread t: the current rights are
// saved and the untrusted rights installed.
func (m *Model) GateEnter(t int) {
	th := m.threads[t]
	th.gates = append(th.gates, th.pkru)
	th.pkru = m.UntrustedPKRU()
}

// GateExit models the matching gate return: the saved rights are restored.
// Exiting with no open gate is a harness error and panics.
func (m *Model) GateExit(t int) {
	th := m.threads[t]
	th.pkru = th.gates[len(th.gates)-1]
	th.gates = th.gates[:len(th.gates)-1]
}

// pageAligned reports whether v is a multiple of the page size.
func pageAligned(v uint64) bool { return v&vm.PageMask == 0 }

// Reserve models registering [base, base+size) with the given key. It
// returns false for the inputs the real Space must reject: misaligned base
// or size, an empty or out-of-range span (including sizes so large that
// base+size wraps around the 64-bit address space), an invalid key, or
// overlap with an existing reservation.
func (m *Model) Reserve(base vm.Addr, size uint64, key mpk.Key) bool {
	if !pageAligned(uint64(base)) || !pageAligned(size) || size == 0 {
		return false
	}
	if uint64(base) >= uint64(vm.MaxAddr) || size > uint64(vm.MaxAddr) ||
		uint64(base) > uint64(vm.MaxAddr)-size {
		return false
	}
	if !key.Valid() {
		return false
	}
	end := base + vm.Addr(size)
	for _, iv := range m.ivals {
		if base < iv.end && iv.base < end {
			return false
		}
	}
	m.ivals = append(m.ivals, interval{base: base, end: end, key: key})
	sort.Slice(m.ivals, func(i, j int) bool { return m.ivals[i].base < m.ivals[j].base })
	return true
}

// SetPKey models pkey_mprotect over [base, base+size): every page in the
// range must already be reserved, and the whole range is retagged. A zero
// size is a no-op that succeeds, matching pkey_mprotect(len=0). Returns
// false on misalignment, an invalid key, a wrapping range, or a range not
// fully covered by reservations.
func (m *Model) SetPKey(base vm.Addr, size uint64, key mpk.Key) bool {
	if !pageAligned(uint64(base)) || !pageAligned(size) || !key.Valid() {
		return false
	}
	if size == 0 {
		return true
	}
	if size > uint64(vm.MaxAddr) || uint64(base) > uint64(vm.MaxAddr)-size {
		return false
	}
	end := base + vm.Addr(size)
	// Coverage: walk the sorted intervals across [base, end) with no gaps.
	at := base
	for _, iv := range m.ivals {
		if iv.end <= at {
			continue
		}
		if iv.base > at {
			return false // gap at 'at'
		}
		at = iv.end
		if at >= end {
			break
		}
	}
	if at < end {
		return false
	}
	// Retag: split overlapping intervals so [base, end) carries key.
	var out []interval
	for _, iv := range m.ivals {
		if iv.end <= base || end <= iv.base {
			out = append(out, iv)
			continue
		}
		if iv.base < base {
			out = append(out, interval{base: iv.base, end: base, key: iv.key})
		}
		if end < iv.end {
			out = append(out, interval{base: end, end: iv.end, key: iv.key})
		}
	}
	out = append(out, interval{base: base, end: end, key: key})
	sort.Slice(out, func(i, j int) bool { return out[i].base < out[j].base })
	m.ivals = out
	return true
}

// KeyAt returns the protection key governing addr and whether addr is
// reserved at all.
func (m *Model) KeyAt(addr vm.Addr) (mpk.Key, bool) {
	i := sort.Search(len(m.ivals), func(i int) bool { return m.ivals[i].end > addr })
	if i < len(m.ivals) && m.ivals[i].base <= addr && addr < m.ivals[i].end {
		return m.ivals[i].key, true
	}
	return 0, false
}

// Access predicts the outcome of an n-byte data access by thread t at
// addr. The check walks the range page chunk by page chunk, exactly as an
// MMU (and vm.Thread.access) does: the first chunk whose page is
// unreserved raises a map fault, the first chunk whose key the thread's
// PKRU forbids raises a protection-key fault, and the reported fault
// address is the first byte of the failing chunk.
func (m *Model) Access(t int, addr vm.Addr, n uint64, write bool) Outcome {
	pkru := m.threads[t].pkru
	a := addr
	for remaining := n; remaining > 0; {
		key, ok := m.KeyAt(a)
		if !ok {
			return faultOutcome(FaultMap, a, 0, write, pkru)
		}
		allowed := pkru.CanRead(key)
		if write {
			allowed = pkru.CanWrite(key)
		}
		if !allowed {
			return faultOutcome(FaultPKU, a, key, write, pkru)
		}
		chunk := vm.PageSize - (uint64(a) & vm.PageMask)
		if chunk > remaining {
			chunk = remaining
		}
		a += vm.Addr(chunk)
		remaining -= chunk
	}
	return Outcome{Kind: OK, PKRU: pkru}
}

// faultOutcome assembles a fault prediction including the decoded PKRU
// bits for the faulting key — the same decode obs renders in crash
// reports, which is why the differential executor diffs it bit for bit.
func faultOutcome(kind OutcomeKind, addr vm.Addr, key mpk.Key, write bool, pkru mpk.PKRU) Outcome {
	r := pkru.Rights(key)
	return Outcome{
		Kind:  kind,
		Addr:  addr,
		PKey:  key,
		Write: write,
		AD:    r&mpk.AccessDisable != 0,
		WD:    r&mpk.WriteDisable != 0,
		PKRU:  pkru,
	}
}

// Track records a live trusted-heap object of size bytes at base; a
// re-track at the same base replaces it.
func (m *Model) Track(base vm.Addr, size uint64) { m.objects[base] = size }

// Untrack drops the trusted-heap object at base.
func (m *Model) Untrack(base vm.Addr) { delete(m.objects, base) }

// object resolves addr as the allocation shadow does: the object with the
// greatest base at or below addr, when addr lies inside it.
func (m *Model) object(addr vm.Addr) (base vm.Addr, size uint64, ok bool) {
	for b, n := range m.objects {
		if b <= addr && (!ok || b > base) {
			base, size, ok = b, n, true
		}
	}
	if ok && uint64(addr-base) >= size {
		return 0, 0, false
	}
	return base, size, ok
}

// SupervisedCall predicts an n-byte access by thread t made inside a call
// into the untrusted library under policy p (supervise.Supervisor.Call).
// Each attempt is a forward gate around the access; with flaky only the
// first attempt touches memory. A failed attempt spends one action of
// p's budget and then recovers: Retry runs the call again, at most
// supervise.MaxRetries times; Quarantine scrubs MU and fails the call;
// Heal retags the pages of the trusted-heap object holding a trusted-key
// PKU fault to key 0 and runs the call again, at most
// supervise.MaxRetries times, and quarantines any other failure. An
// empty budget fails the call at once, and Abort runs it once,
// unsupervised. Every gate restores what it saved, so the thread's PKRU
// after the call is its PKRU before. The outcome is the last attempt's,
// with the attempt count and the actions taken.
func (m *Model) SupervisedCall(t int, p supervise.Policy, addr vm.Addr, n uint64, write, flaky bool) Outcome {
	var acts []string
	for attempt := 1; ; attempt++ {
		m.GateEnter(t)
		out := Outcome{Kind: OK}
		if attempt == 1 || !flaky {
			out = m.Access(t, addr, n, write)
		}
		m.GateExit(t)
		again := false
		if out.Kind != OK && p != supervise.Abort && m.budget[p] > 0 {
			m.budget[p]--
			var act string
			act, again = m.recoverOnce(p, out, attempt)
			if act != "" {
				acts = append(acts, act)
			}
		}
		if !again {
			out.Attempts, out.Recovery = attempt, strings.Join(acts, " ")
			return out
		}
	}
}

// recoverOnce is policy p's answer to a failed attempt: the recovery
// action taken ("" for none) and whether the call runs again.
func (m *Model) recoverOnce(p supervise.Policy, fault Outcome, attempt int) (string, bool) {
	switch p {
	case supervise.Retry:
		if attempt > supervise.MaxRetries {
			return "", false
		}
		return "retry", true
	case supervise.Heal:
		base, size, ok := m.object(fault.Addr)
		if !ok || fault.Kind != FaultPKU || fault.PKey != m.trustedKey {
			return "quarantine", false
		}
		if attempt > supervise.MaxRetries {
			return "", false
		}
		lo := base.PageBase()
		hi := (base + vm.Addr(size) + vm.PageMask).PageBase()
		if hi == lo {
			hi = lo + vm.PageSize
		}
		if !m.SetPKey(lo, uint64(hi-lo), 0) {
			panic("conformance: model heal retag refused")
		}
		return "heal", true
	default:
		return "quarantine", false
	}
}
