package bench

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/supervise"
	"repro/internal/workload"
)

// RecoveryResult is one fault-free recovery-overhead sample: the cost of
// crossing the gate through the supervisor (checkpoint + shield + budget
// accounting) versus the bare gated call, for one §5.2 workload. Factor
// is Supervised / Unsupervised — the price of being recoverable when
// nothing goes wrong.
type RecoveryResult struct {
	Name         string
	Unsupervised time.Duration // total for Iters bare gated calls
	Supervised   time.Duration // total for Iters supervised gated calls
	Factor       float64       // Supervised / Unsupervised
}

// RunRecovery measures the supervision overhead on the fault-free path:
// the same gated micro-workloads as §5.2, called bare and through a
// Retry-policy supervisor that never has to act. Two separate worlds are
// built so neither path warms the other's allocator.
func RunRecovery(iters int) ([]RecoveryResult, error) {
	plain, err := workload.NewMicroWorld()
	if err != nil {
		return nil, err
	}
	supw, err := workload.NewMicroWorld(core.Options{
		Supervision: supervise.Config{Policy: supervise.Retry},
	})
	if err != nil {
		return nil, err
	}
	sup := supw.Prog.Supervisor()
	if sup == nil {
		return nil, fmt.Errorf("bench: supervised world has no supervisor")
	}
	pth, sth := plain.Prog.Main(), supw.Prog.Main()

	var out []RecoveryResult
	for _, name := range []string{"empty", "read_one", "callback"} {
		name := name
		pargs, sargs := microArgs(plain, name), microArgs(supw, name)
		bare, shielded, err := timedPair(iters, func() error {
			_, e := pth.Call(workload.MicroUntrustedLib, name, pargs...)
			return e
		}, func() error {
			_, e := sup.Call(sth, workload.MicroUntrustedLib, name, sargs...)
			return e
		})
		if err != nil {
			return nil, err
		}
		factor := 0.0
		if bare > 0 {
			factor = float64(shielded) / float64(bare)
		}
		out = append(out, RecoveryResult{Name: name, Unsupervised: bare, Supervised: shielded, Factor: factor})
	}
	return out, nil
}

// FormatRecovery renders the recovery-overhead results.
func FormatRecovery(rs []RecoveryResult) string {
	s := "Recovery overhead: supervised vs bare gate crossing, fault-free path\n"
	s += fmt.Sprintf("%-12s %14s %14s %10s\n", "workload", "bare", "supervised", "factor")
	for _, r := range rs {
		s += fmt.Sprintf("%-12s %14v %14v %9.2fx\n", r.Name, r.Unsupervised, r.Supervised, r.Factor)
	}
	return s
}

// RecoveryRecord is the recovery experiment's BENCH record: each
// workload's bare and supervised loop times and their factor.
func RecoveryRecord(iters int, rs []RecoveryResult) *Record {
	rec := NewRecord("recovery", map[string]string{"iters": strconv.Itoa(iters)})
	for _, r := range rs {
		rec.Add(r.Name, "unsupervised_s", "s", iters, r.Unsupervised.Seconds())
		rec.Add(r.Name, "supervised_s", "s", iters, r.Supervised.Seconds())
		rec.Add(r.Name, "factor", "ratio", iters, r.Factor)
	}
	return rec
}
