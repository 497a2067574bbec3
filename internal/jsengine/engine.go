package jsengine

import (
	"fmt"
	"math"

	"repro/internal/ffi"
	"repro/internal/vm"
)

// DefaultLib is the library name the engine installs under — the analogue
// of the mozjs crate the paper annotates as untrusted.
const DefaultLib = "mozjs"

// Install registers the engine's FFI surface as an *untrusted* library —
// the four-lines-of-annotation step of the paper — so that every call into
// the engine passes a forward gate and the engine runs without access to
// MT. The exposed word-based ABI:
//
//	eval(ptr, len) -> f64bits   parse+run script text read from [ptr,len)
//	lookup(ptr, len) -> id+1    resolve a defined function (0 = missing)
//	invoke(id, args...) -> f64bits   call function with numeric args
//
// Script source is read through the engine's checked view of memory: a
// source buffer allocated in MT is unreadable from inside the gate, which
// is exactly the data flow PKRU-Safe's profiler must discover.
func (e *Engine) Install(reg *ffi.Registry, lib string) error {
	if lib == "" {
		lib = DefaultLib
	}
	l, err := reg.Library(lib, ffi.Untrusted)
	if err != nil {
		return err
	}
	l.Define("eval", func(th *ffi.Thread, args []uint64) ([]uint64, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("jsengine: eval(ptr, len) needs 2 args")
		}
		src, err := th.ReadString(vm.Addr(args[0]), int(args[1]))
		if err != nil {
			return nil, err
		}
		v, err := e.Eval(th, src)
		if err != nil {
			return nil, err
		}
		return []uint64{math.Float64bits(v.Num)}, nil
	})
	l.Define("lookup", func(th *ffi.Thread, args []uint64) ([]uint64, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("jsengine: lookup(ptr, len) needs 2 args")
		}
		name, err := th.ReadString(vm.Addr(args[0]), int(args[1]))
		if err != nil {
			return nil, err
		}
		id, ok := e.FunctionID(name)
		if !ok {
			return []uint64{0}, nil
		}
		return []uint64{uint64(id) + 1}, nil
	})
	l.Define("invoke", func(th *ffi.Thread, args []uint64) ([]uint64, error) {
		if len(args) < 1 {
			return nil, fmt.Errorf("jsengine: invoke(id, ...) needs at least 1 arg")
		}
		id := args[0]
		if id == 0 || id > uint64(len(e.fnIDs)) {
			return nil, fmt.Errorf("jsengine: invoke of invalid function id %d", id)
		}
		defer e.release(e.mark())
		base := len(e.vals)
		for _, raw := range args[1:] {
			e.vals = append(e.vals, Num(math.Float64frombits(raw)))
		}
		top := len(e.vals)
		ctx := &execCtx{eng: e, th: th}
		v, err := ctx.invoke(e.fnIDs[id-1], e.vals[base:top:top])
		if err != nil {
			return nil, err
		}
		return []uint64{math.Float64bits(v.Num)}, nil
	})
	return nil
}
