// Package ffi models the foreign-function boundary PKRU-Safe instruments:
// libraries of "native" functions (the cgo/C-library analogue) that may
// touch program memory only through a checked thread handle, annotated at
// the library level as trusted or untrusted (§3.2).
//
// Calls into an untrusted library pass through a call gate that drops
// access to the trusted heap MT, and calls back into trusted code pass
// through a reverse gate that restores it; a per-thread compartment stack
// guarantees the pre-call rights are reinstated on every return path
// (§3.3). Gates verify the PKRU value they installed and abort the program
// on mismatch, mirroring the paper's hardened assembly stubs (§4.1).
package ffi

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
)

// Trust is the library-level annotation.
type Trust uint8

const (
	// Trusted libraries run with the caller's full rights.
	Trusted Trust = iota
	// Untrusted libraries run behind call gates with MT inaccessible.
	Untrusted
)

func (tr Trust) String() string {
	if tr == Untrusted {
		return "untrusted"
	}
	return "trusted"
}

// Func is a native function: it may only touch simulated memory through
// the Thread it is handed, which is what subjects it to PKRU checking.
// Arguments and results are machine words, as across a real FFI.
type Func func(t *Thread, args []uint64) ([]uint64, error)

// Library is a named set of native functions with one trust annotation —
// the unit at which PKRU-Safe's developer annotations operate.
type Library struct {
	Name  string
	Trust Trust
	funcs map[string]Func

	gateNote string                     // "gate:"+Name, the ring note of its gates
	lat      atomic.Pointer[libLatency] // its gate-latency series, resolved on first use
}

// Define registers a function in the library, replacing any previous
// definition of the same name.
func (l *Library) Define(name string, fn Func) *Library {
	l.funcs[name] = fn
	return l
}

// Lookup returns the named function.
func (l *Library) Lookup(name string) (Func, bool) {
	fn, ok := l.funcs[name]
	return fn, ok
}

// FuncNames returns the library's function names in sorted order.
func (l *Library) FuncNames() []string {
	names := make([]string, 0, len(l.funcs))
	for n := range l.funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ErrNoSuchFunc is returned for calls to unregistered functions.
var ErrNoSuchFunc = errors.New("ffi: no such function")

// ErrCallFiltered is returned when the registry's call filter rejects a
// reverse-gate call: untrusted code invoked a trusted entry point that is
// not on its allow-list.
var ErrCallFiltered = errors.New("ffi: call filtered")

// Registry holds every library linked into the program.
//
// With the call filter armed (SetCallFilter) the registry additionally
// acts as the syscall-filter analogue Garmr prescribes for PKU sandboxes:
// on real hardware a sandboxed library can always *reach* the kernel (or
// any trusted entry point), so the last line of defense is an allow-list
// over what it may legitimately request — seccomp for syscalls, and here
// an allow-list over untrusted→trusted reverse-gate calls. Calls among
// untrusted libraries and all calls from trusted code are never filtered.
type Registry struct {
	libs map[string]*Library

	filterOn bool
	// allowed maps caller library → "lib.fn" of permitted trusted entry
	// points. A caller with no entry may call nothing trusted.
	allowed map[string]map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{libs: make(map[string]*Library)}
}

// SetCallFilter arms (or disarms) the reverse-gate call filter. Like
// library registration, filter configuration belongs to program assembly
// and is not synchronized against in-flight calls.
func (r *Registry) SetCallFilter(on bool) { r.filterOn = on }

// CallFilter reports whether the reverse-gate call filter is armed.
func (r *Registry) CallFilter() bool { return r.filterOn }

// Allow adds lib.fn to callerLib's reverse-gate allow-list.
func (r *Registry) Allow(callerLib, lib, fn string) {
	if r.allowed == nil {
		r.allowed = make(map[string]map[string]bool)
	}
	set := r.allowed[callerLib]
	if set == nil {
		set = make(map[string]bool)
		r.allowed[callerLib] = set
	}
	set[lib+"."+fn] = true
}

// checkFilter enforces the allow-list for a call from untrusted code into
// a trusted library. It is a no-op while the filter is off.
func (r *Registry) checkFilter(callerLib string, callee *Library, fn string) error {
	if !r.filterOn || callee.Trust != Trusted {
		return nil
	}
	if r.allowed[callerLib][callee.Name+"."+fn] {
		return nil
	}
	return fmt.Errorf("%w: %s -> %s.%s not on the allow-list", ErrCallFiltered, callerLib, callee.Name, fn)
}

// Library declares (or returns the existing) library with the given trust.
// Re-declaring with a different trust level is a configuration error.
func (r *Registry) Library(name string, trust Trust) (*Library, error) {
	if l, ok := r.libs[name]; ok {
		if l.Trust != trust {
			return nil, fmt.Errorf("ffi: library %q re-declared as %v (was %v)", name, trust, l.Trust)
		}
		return l, nil
	}
	l := &Library{Name: name, Trust: trust, funcs: make(map[string]Func), gateNote: "gate:" + name}
	r.libs[name] = l
	return l, nil
}

// MustLibrary is Library for static program assembly; it panics on the
// configuration error Library reports.
func (r *Registry) MustLibrary(name string, trust Trust) *Library {
	l, err := r.Library(name, trust)
	if err != nil {
		panic(err)
	}
	return l
}

// Lookup resolves lib.fn.
func (r *Registry) Lookup(lib, fn string) (*Library, Func, error) {
	l, ok := r.libs[lib]
	if !ok {
		return nil, nil, fmt.Errorf("%w: library %q", ErrNoSuchFunc, lib)
	}
	f, ok := l.funcs[fn]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s.%s", ErrNoSuchFunc, lib, fn)
	}
	return l, f, nil
}

// LibNames returns registered library names in sorted order.
func (r *Registry) LibNames() []string {
	names := make([]string, 0, len(r.libs))
	for n := range r.libs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
