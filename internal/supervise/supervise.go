// Package supervise is the compartment fault supervisor: it turns fatal
// untrusted-compartment failures — PKUERR/MAPERR faults inside U, or an
// untrusted Func panicking mid-call — into recoverable, policy-driven
// events.
//
// A supervised FFI call installs a recovery point (ffi.Thread.Checkpoint)
// at the T→U boundary. When the call fails, the supervisor unwinds the
// gate stack back to the trusted frame with the PKRU register provably
// restored (ffi.Thread.Unwind re-verifies the installed value exactly as
// a gate's own self-check does), wraps the failure in a typed
// *CompartmentError, and applies the configured Policy:
//
//   - Abort: no supervision — the failure propagates unchanged, matching
//     the paper's fail-stop semantics (§3.3).
//   - Retry: the call is re-executed up to MaxRetries times, for
//     transient failures.
//   - Quarantine: the untrusted pkalloc pool is epoch-bumped, scrubbed and
//     reset so a corrupted MU cannot poison the next request; the failed
//     call itself is dropped.
//   - Heal: for PKUERR faults whose provenance shadow resolves to a
//     concrete MT allocation, the object's pages are retagged to the
//     shared key in place (vm.Space.SetPageKey) and the allocation site is
//     marked untrusted-from-now-on — exactly the rewrite a profiler re-run
//     would have produced — then the call is retried. The healed sites
//     form a profile delta the user can persist.
//
// Recovery never weakens enforcement for anyone else: healing retags only
// the faulting object's pages, quarantine touches only MU, and every
// unwind re-verifies PKRU before trusted code resumes.
package supervise

import (
	"fmt"
	"strings"
)

// Policy selects how the supervisor responds to a compartment failure.
type Policy uint8

const (
	// Abort disables recovery: failures propagate and kill the run.
	Abort Policy = iota
	// Retry re-executes the failed call a bounded number of times.
	Retry
	// Quarantine resets the untrusted pool and drops the failed call.
	Quarantine
	// Heal migrates the misclassified allocation site MT→MU and retries.
	Heal
)

func (p Policy) String() string {
	switch p {
	case Abort:
		return "abort"
	case Retry:
		return "retry"
	case Quarantine:
		return "quarantine"
	case Heal:
		return "heal"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// ParsePolicy parses a policy name as accepted by the -recover CLI flags.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "abort", "":
		return Abort, nil
	case "retry":
		return Retry, nil
	case "quarantine":
		return Quarantine, nil
	case "heal":
		return Heal, nil
	default:
		return Abort, fmt.Errorf("supervise: unknown policy %q (want abort, retry, quarantine or heal)", s)
	}
}

// Recovery bounds.
const (
	// MaxRetries bounds re-executions of one supervised call (Retry and
	// Heal policies).
	MaxRetries = 3
	// Budget bounds recovery actions (retries, quarantines, heals) across
	// the whole program: a workload that keeps failing must eventually
	// surface, not loop through an unbounded heal/quarantine cycle. It is
	// never refilled, and every tenant of a world shares it.
	Budget = 64
	// EscalateAfter is how many per-domain quarantines one domain may
	// absorb before the supervisor escalates to the global tier and
	// quarantines the shared MU pool as well: a tenant that keeps
	// corrupting its own heap eventually forfeits the benefit of the
	// doubt that the damage stayed inside it.
	EscalateAfter = 8
)

// Config parameterizes a Supervisor.
type Config struct {
	// Policy is the recovery policy; Abort (the zero value) disables
	// supervision entirely.
	Policy Policy
}

// Terminal outcomes a supervised call can end with (CompartmentError.Outcome
// and the telemetry outcome label). "recovered" additionally labels calls
// that succeeded after one or more recovery actions.
const (
	OutcomeRecovered       = "recovered"
	OutcomeRetriesExceeded = "retries_exhausted"
	OutcomeQuarantined     = "quarantined"
	OutcomeUnhealable      = "unhealable"
	OutcomeHealFailed      = "heal_failed"
	OutcomeBudgetExceeded  = "budget_exhausted"
)

// PanicError wraps a panic recovered from an untrusted Func so it can
// travel the error path like a fault does.
type PanicError struct {
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("supervise: untrusted callee panicked: %v", e.Value)
}

// CompartmentError is the typed error a supervised call fails with after
// recovery is exhausted or declined. It wraps the underlying cause (a
// *vm.Fault via the ffi error chain, or a *PanicError), so errors.As
// still reaches the fault for forensics.
type CompartmentError struct {
	// Call labels the failed call, "lib.fn" for Supervisor.Call.
	Call string
	// Domain is the tenant the failure was attributed to (the trace
	// context's tenant label), "" when the failure could not be scoped to
	// a domain. Admission layers key their circuit breakers on it.
	Domain string
	// Policy is the policy that was in force.
	Policy Policy
	// Outcome is the terminal outcome (one of the Outcome* constants).
	Outcome string
	// Attempts is how many times the call body ran.
	Attempts int
	// Actions are the recovery actions this call caused, in order: its
	// own share of the supervisor's log, for callers that charge them
	// (a tenant breaker's burn) without reading the shared log.
	Actions []Event
	// Err is the underlying failure of the final attempt.
	Err error
}

func (e *CompartmentError) Error() string {
	if e.Domain != "" {
		return fmt.Sprintf("supervise: %s [domain %s] failed under policy %s (%s after %d attempt(s)): %v",
			e.Call, e.Domain, e.Policy, e.Outcome, e.Attempts, e.Err)
	}
	return fmt.Sprintf("supervise: %s failed under policy %s (%s after %d attempt(s)): %v",
		e.Call, e.Policy, e.Outcome, e.Attempts, e.Err)
}

func (e *CompartmentError) Unwrap() error { return e.Err }
