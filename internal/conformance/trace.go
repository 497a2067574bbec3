package conformance

import (
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/mpk"
	"repro/internal/supervise"
	"repro/internal/vm"
)

// OpKind enumerates the trace operations the harness understands.
type OpKind uint8

const (
	// OpReserve registers Addr/Size/Key as a reservation (vm.Space.Reserve).
	OpReserve OpKind = iota
	// OpSetPKey retags Addr/Size with Key (vm.Space.SetPKey).
	OpSetPKey
	// OpWRPKRU writes Value into the thread's PKRU register.
	OpWRPKRU
	// OpLoad performs a checked read of Size bytes at the op's target.
	OpLoad
	// OpStore performs a checked write of Size bytes at the op's target.
	OpStore
	// OpGateEnter opens a compartment gate on the thread: rights are saved
	// and the untrusted PKRU (trusted key denied) installed.
	OpGateEnter
	// OpGateExit closes the innermost gate, restoring the saved rights.
	// With no gate open it is a no-op.
	OpGateExit
	// OpGateCall performs a load (FlagWrite clear) or store (set) of Size
	// bytes at the op's target from inside a real ffi gated call into an
	// untrusted library — or a plain trusted call when FlagTrustedLib is
	// set.
	OpGateCall
	// OpAlloc allocates Size bytes from MT (FlagUntrusted clear) or MU (set)
	// through the pkalloc/heap stack and stores the address in slot Slot.
	OpAlloc
	// OpRealloc grows/shrinks slot Slot to Size bytes.
	OpRealloc
	// OpFree releases slot Slot.
	OpFree
	// OpVKeyAlloc creates a logical (virtualized) protection key for vkey
	// tenant Slot and attaches the tenant's page to it. A tenant that is
	// already live is skipped.
	OpVKeyAlloc
	// OpVKeyFree releases vkey tenant Slot's logical key. A key with an
	// open call on any thread is refused (vkey.ErrKeyBusy).
	OpVKeyFree
	// OpVKeyEnter calls from the thread into vkey tenant Slot's library,
	// leaving the call open. From outside the tenant's compartment the call
	// gates, and the slot activation may evict the least-recently-used
	// logical key.
	OpVKeyEnter
	// OpVKeyLeave returns from the thread's innermost open tenant call,
	// restoring the caller's compartment (a tenant re-derived, or the
	// rights held at the call). With no call open it is a no-op.
	OpVKeyLeave
	// OpSupervisedCall is OpGateCall's access into the untrusted library
	// made through a supervise.Supervisor under the policy Key%4 selects
	// (Abort is an unsupervised call). With FlagFlaky only the first
	// attempt touches memory, so a retry succeeds. A thread with an open
	// tenant call skips it.
	OpSupervisedCall

	numOpKinds
)

// opKindNames holds each kind's trace name and its Go constant name, the
// latter for FormatGoTest.
var opKindNames = [numOpKinds]struct{ short, exported string }{
	OpReserve:        {"reserve", "OpReserve"},
	OpSetPKey:        {"setpkey", "OpSetPKey"},
	OpWRPKRU:         {"wrpkru", "OpWRPKRU"},
	OpLoad:           {"load", "OpLoad"},
	OpStore:          {"store", "OpStore"},
	OpGateEnter:      {"gate-enter", "OpGateEnter"},
	OpGateExit:       {"gate-exit", "OpGateExit"},
	OpGateCall:       {"gate-call", "OpGateCall"},
	OpAlloc:          {"alloc", "OpAlloc"},
	OpRealloc:        {"realloc", "OpRealloc"},
	OpFree:           {"free", "OpFree"},
	OpVKeyAlloc:      {"vkey-alloc", "OpVKeyAlloc"},
	OpVKeyFree:       {"vkey-free", "OpVKeyFree"},
	OpVKeyEnter:      {"vkey-enter", "OpVKeyEnter"},
	OpVKeyLeave:      {"vkey-leave", "OpVKeyLeave"},
	OpSupervisedCall: {"supervised-call", "OpSupervisedCall"},
}

func (k OpKind) String() string {
	if k < numOpKinds {
		return opKindNames[k].short
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// Flag bits interpreted per op kind (see OpKind docs).
const (
	// FlagWrite selects store over load for OpGateCall and
	// OpSupervisedCall.
	FlagWrite = 1 << 0
	// FlagUntrusted selects the MU pool for OpAlloc (the same bit as
	// FlagWrite, which OpAlloc does not read).
	FlagUntrusted = 1 << 0
	// FlagTrustedLib routes OpGateCall through the trusted library (a
	// plain call with the caller's rights) instead of the untrusted one.
	FlagTrustedLib = 1 << 1
	// FlagRawAddr targets Addr directly for the access ops instead of
	// resolving Slot+Addr(as offset) against the allocation slot table.
	FlagRawAddr = 1 << 2
	// FlagFlaky makes an OpSupervisedCall's callee touch memory on its
	// first attempt only: a transient failure that a retry clears.
	FlagFlaky = 1 << 3
)

// Op is one trace operation. The zero Op is a 0-byte load by thread 0.
//
// Field roles by kind:
//
//	Reserve/SetPKey: Addr = base, Size = length, Key = protection key
//	WRPKRU:          Value = new PKRU
//	Load/Store/GateCall/SupervisedCall:
//	    FlagRawAddr set:   target = Addr
//	    FlagRawAddr clear: target = slots[Slot] + Addr (Addr acts as offset)
//	    Size = access width in bytes
//	    Key%4 = supervise.Policy (SupervisedCall only)
//	Alloc/Realloc:   Slot = slot index, Size = requested bytes
//	Free:            Slot = slot index
//	VKey*:           Slot = tenant
type Op struct {
	Kind   OpKind
	Thread uint8
	Slot   uint8
	Flags  uint8
	Key    mpk.Key
	Addr   vm.Addr
	Size   uint64
	Value  mpk.PKRU
}

// supervisedPolicy is an OpSupervisedCall's recovery policy.
func supervisedPolicy(op Op) supervise.Policy { return supervise.Policy(op.Key % 4) }

// Trace is a replayable operation sequence.
type Trace struct {
	Ops []Op
}

// Count returns how many of the trace's ops are of kind k.
func (tr Trace) Count(k OpKind) int {
	n := 0
	for _, op := range tr.Ops {
		if op.Kind == k {
			n++
		}
	}
	return n
}

// opRecordLen is the fixed encoded size of one Op.
const opRecordLen = 1 + 1 + 1 + 1 + 1 + 8 + 8 + 4

// Encode serializes the trace into the byte form the fuzz targets mutate.
func (tr Trace) Encode() []byte {
	out := make([]byte, 0, len(tr.Ops)*opRecordLen)
	var rec [opRecordLen]byte
	for _, op := range tr.Ops {
		rec[0] = uint8(op.Kind)
		rec[1] = op.Thread
		rec[2] = op.Slot
		rec[3] = op.Flags
		rec[4] = uint8(op.Key)
		binary.LittleEndian.PutUint64(rec[5:], uint64(op.Addr))
		binary.LittleEndian.PutUint64(rec[13:], op.Size)
		binary.LittleEndian.PutUint32(rec[21:], uint32(op.Value))
		out = append(out, rec[:]...)
	}
	return out
}

// Decode parses a byte string into a trace. Every byte string is a valid
// trace: kinds are taken modulo the kind count and a trailing partial
// record is dropped, so the fuzzer can mutate structure freely.
func Decode(data []byte) Trace {
	var tr Trace
	for len(data) >= opRecordLen {
		rec := data[:opRecordLen]
		data = data[opRecordLen:]
		tr.Ops = append(tr.Ops, Op{
			Kind:   OpKind(rec[0]) % numOpKinds,
			Thread: rec[1],
			Slot:   rec[2],
			Flags:  rec[3],
			Key:    mpk.Key(rec[4]),
			Addr:   vm.Addr(binary.LittleEndian.Uint64(rec[5:])),
			Size:   binary.LittleEndian.Uint64(rec[13:]),
			Value:  mpk.PKRU(binary.LittleEndian.Uint32(rec[21:])),
		})
	}
	return tr
}

func (op Op) String() string {
	switch op.Kind {
	case OpReserve, OpSetPKey:
		return fmt.Sprintf("t%d %v base=%v size=%#x key=%d", op.Thread, op.Kind, op.Addr, op.Size, op.Key)
	case OpWRPKRU:
		return fmt.Sprintf("t%d wrpkru %#08x", op.Thread, uint32(op.Value))
	case OpLoad, OpStore, OpGateCall, OpSupervisedCall:
		target := fmt.Sprintf("slot%d+%#x", op.Slot, uint64(op.Addr))
		if op.Flags&FlagRawAddr != 0 {
			target = op.Addr.String()
		}
		s := fmt.Sprintf("t%d %v %s width=%d flags=%#x", op.Thread, op.Kind, target, op.Size, op.Flags)
		if op.Kind == OpSupervisedCall {
			s += " policy=" + supervisedPolicy(op).String()
		}
		return s
	case OpAlloc:
		pool := "MT"
		if op.Flags&FlagUntrusted != 0 {
			pool = "MU"
		}
		return fmt.Sprintf("t%d alloc slot%d size=%d pool=%s", op.Thread, op.Slot, op.Size, pool)
	case OpRealloc:
		return fmt.Sprintf("t%d realloc slot%d size=%d", op.Thread, op.Slot, op.Size)
	case OpFree:
		return fmt.Sprintf("t%d free slot%d", op.Thread, op.Slot)
	case OpVKeyAlloc, OpVKeyFree, OpVKeyEnter:
		return fmt.Sprintf("t%d %v tenant%d", op.Thread, op.Kind, op.Slot)
	default:
		return fmt.Sprintf("t%d %v", op.Thread, op.Kind)
	}
}

// OutcomeKind classifies what an operation did.
type OutcomeKind uint8

const (
	// OK: the operation completed.
	OK OutcomeKind = iota
	// Rejected: the operation's arguments were refused (reserve overlap,
	// misalignment, invalid key, ...).
	Rejected
	// FaultMap: the access raised SIGSEGV with SEGV_MAPERR (unreserved).
	FaultMap
	// FaultPKU: the access raised SIGSEGV with SEGV_PKUERR.
	FaultPKU
	// Skipped: the executor did not run the op (dead slot, empty gate
	// stack); never diffed.
	Skipped
)

var outcomeNames = [...]string{OK: "ok", Rejected: "rejected", FaultMap: "fault-map", FaultPKU: "fault-pku", Skipped: "skipped"}

func (k OutcomeKind) String() string {
	if int(k) < len(outcomeNames) {
		return outcomeNames[k]
	}
	return fmt.Sprintf("outcome(%d)", uint8(k))
}

// Outcome is one side's verdict on one operation: what happened, the
// fault coordinates when it faulted, the decoded PKUERR-style AD/WD bits
// for the faulting key, and the thread's PKRU register after the op. A
// supervised call adds its recovery record; a depth divergence carries
// the thread's ffi gate depth.
type Outcome struct {
	Kind  OutcomeKind
	Addr  vm.Addr // faulting address (faults only)
	PKey  mpk.Key // faulting protection key (FaultPKU only)
	Write bool    // faulting access kind (faults only)
	AD    bool    // rights for PKey had access-disable set
	WD    bool    // rights for PKey had write-disable set
	PKRU  mpk.PKRU

	Attempts int    // supervised call: times the callee ran
	Recovery string // supervised call: recovery actions, space-separated
	Depth    int    // open ffi gates on the thread (depth divergences only)
}

func (o Outcome) String() string {
	var s string
	switch o.Kind {
	case FaultMap:
		s = fmt.Sprintf("%v addr=%v write=%v pkru=%#08x", o.Kind, o.Addr, o.Write, uint32(o.PKRU))
	case FaultPKU:
		s = fmt.Sprintf("%v addr=%v key=%d write=%v ad=%v wd=%v pkru=%#08x",
			o.Kind, o.Addr, o.PKey, o.Write, o.AD, o.WD, uint32(o.PKRU))
	default:
		s = fmt.Sprintf("%v pkru=%#08x", o.Kind, uint32(o.PKRU))
	}
	if o.Attempts > 0 {
		s += fmt.Sprintf(" attempts=%d recovery=[%s]", o.Attempts, o.Recovery)
	}
	if o.Depth > 0 {
		s += fmt.Sprintf(" depth=%d", o.Depth)
	}
	return s
}

// FormatGoTest renders the trace as a self-contained Go regression test:
// replaying it through the differential executor must report zero
// divergences. This is what the fuzzer and pkru-conform print for a
// shrunk counterexample.
func FormatGoTest(name string, tr Trace) string {
	var b strings.Builder
	fmt.Fprintf(&b, "func TestConformanceRegression%s(t *testing.T) {\n", name)
	b.WriteString("\ttr := conformance.Trace{Ops: []conformance.Op{\n")
	for _, op := range tr.Ops {
		fmt.Fprintf(&b, "\t\t{Kind: conformance.%s, Thread: %d, Slot: %d, Flags: %#x, Key: %d, Addr: %#x, Size: %#x, Value: %#x},\n",
			exportedKindName(op.Kind), op.Thread, op.Slot, op.Flags, op.Key, uint64(op.Addr), op.Size, uint32(op.Value))
	}
	b.WriteString("\t}}\n")
	b.WriteString("\tres := conformance.Run(tr, conformance.Options{})\n")
	b.WriteString("\tfor _, d := range res.Divergences {\n")
	b.WriteString("\t\tt.Errorf(\"divergence: %v\", d)\n")
	b.WriteString("\t}\n")
	b.WriteString("}\n")
	return b.String()
}

func exportedKindName(k OpKind) string {
	if k < numOpKinds {
		return opKindNames[k].exported
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}
