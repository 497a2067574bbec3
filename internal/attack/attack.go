// Package attack is the executable attack corpus: every attack class the
// Garmr analysis of PKU sandboxes enumerates, built as a deterministic
// scenario against the simulator and run twice — once with the matching
// defense disabled (the red drill: the attack must succeed, proving the
// scenario is a live threat and the harness can detect the breach) and
// once with it enabled (the green drill: the attack must die with the
// expected fault, proving the defense closes the hole).
//
// The roster covers rogue WRPKRU execution outside a gate, PKRU
// exfiltration across a gate exit, signal-frame PKRU tampering, stale
// PKRU restored after a scheduler migration, eviction/retag races and
// slot reuse on the virtual-key table, uninstrumented gate bypass, and
// the confused-deputy call a syscall filter exists to stop. Each scenario
// names its class, the defense under test, and the fault the green drill
// must produce; RunDrill turns one (scenario, defense-mode) pair into a
// machine-checkable verdict.
package attack

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/ffi"
	"repro/internal/sig"
	"repro/internal/vm"
)

// Outcome is what one execution of a scenario observed.
type Outcome struct {
	// Breached reports that the attack reached its goal: it read or wrote
	// memory the compartment model says it must never touch.
	Breached bool
	// Fault is how the attack died, one of the fault strings below
	// ("none" when it ran to completion).
	Fault string
	// Detail is a free-form note for the human reading the verdict.
	Detail string
}

// Fault strings classify how an attack was stopped.
const (
	FaultNone         = "none"          // the attack completed
	FaultPKU          = "pkuerr"        // SIGSEGV with SEGV_PKUERR
	FaultMap          = "maperr"        // SIGSEGV with SEGV_MAPERR
	FaultGateTampered = "gate-tampered" // a gate's PKRU audit aborted the program
	FaultFiltered     = "call-filtered" // the reverse-gate call filter refused the call
	FaultAborted      = "aborted"       // the runtime was already aborted
	FaultError        = "error"         // stopped by an error outside the taxonomy
)

// Scenario is one attack class as an executable experiment. Run must be
// deterministic: it builds a fresh world, arms the defense iff defenseOn,
// mounts the attack, and reports what happened. The returned error means
// the harness itself malfunctioned (setup failed), not that the attack
// was stopped — stopped attacks are an Outcome with a Fault.
type Scenario struct {
	Name        string // scenario identifier, e.g. "rogue-wrpkru"
	Class       string // Garmr attack class the scenario instantiates
	Defense     string // defense under test
	ExpectFault string // fault the green drill must produce
	Run         func(defenseOn bool) (Outcome, error)
}

// DrillResult is the machine-readable verdict of one drill.
type DrillResult struct {
	Scenario  string
	Class     string
	Defense   string
	Drill     string // "red" or "green"
	DefenseOn bool
	Breached  bool
	Fault     string
	Expect    string // expected fault (green drills only)
	Pass      bool
	Detail    string
	Err       string // harness malfunction, if any
}

// Verdict renders the result as one stable, machine-parseable line.
func (r DrillResult) Verdict() string {
	return fmt.Sprintf(
		"ATTACK class=%s scenario=%s defense=%s drill=%s defense-mode=%s breached=%s fault=%s verdict=%s",
		r.Class, r.Scenario, r.Defense, r.Drill,
		onOff(r.DefenseOn), yesNo(r.Breached), r.Fault, passFail(r.Pass))
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func passFail(b bool) string {
	if b {
		return "PASS"
	}
	return "FAIL"
}

// RunDrill executes one drill of the scenario and judges it. A red drill
// (defense off) passes only when the breach is observed — an attack that
// fizzles with the defense down means the scenario no longer tests
// anything. A green drill passes only when no breach occurred AND the
// attack died with exactly the expected fault — dying some other way
// would mean the defense under test was not what stopped it.
func RunDrill(s Scenario, defenseOn bool) DrillResult {
	out, err := s.Run(defenseOn)
	r := DrillResult{
		Scenario:  s.Name,
		Class:     s.Class,
		Defense:   s.Defense,
		DefenseOn: defenseOn,
		Breached:  out.Breached,
		Fault:     out.Fault,
		Detail:    out.Detail,
	}
	if defenseOn {
		r.Drill = "green"
		r.Expect = s.ExpectFault
		r.Pass = !out.Breached && out.Fault == s.ExpectFault
	} else {
		r.Drill = "red"
		r.Pass = out.Breached
	}
	if err != nil {
		r.Err = err.Error()
		r.Pass = false
	}
	return r
}

// RunAll runs the red and green drill of every scenario in roster order
// and returns the verdicts, red before green per scenario. Given classes,
// it drills only the scenarios of those classes.
func RunAll(classes ...string) []DrillResult {
	var out []DrillResult
	for _, s := range Scenarios() {
		if len(classes) == 0 || slices.Contains(classes, s.Class) {
			out = append(out, RunDrill(s, false), RunDrill(s, true))
		}
	}
	return out
}

// Classes returns the roster's attack classes in roster order, each once.
func Classes() []string {
	var out []string
	for _, s := range Scenarios() {
		if !slices.Contains(out, s.Class) {
			out = append(out, s.Class)
		}
	}
	return out
}

// classify maps the error an attack died with onto the fault taxonomy.
func classify(err error) string {
	if err == nil {
		return FaultNone
	}
	var f *vm.Fault
	if errors.As(err, &f) {
		switch f.Info.Code {
		case sig.CodePKUErr:
			return FaultPKU
		case sig.CodeMapErr:
			return FaultMap
		}
		return FaultError
	}
	switch {
	case errors.Is(err, ffi.ErrGateTampered):
		return FaultGateTampered
	case errors.Is(err, ffi.ErrCallFiltered):
		return FaultFiltered
	case errors.Is(err, ffi.ErrAborted):
		return FaultAborted
	}
	return FaultError
}
