package jsengine

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/ffi"
	"repro/internal/vm"
)

// Kind tags a script value.
type Kind uint8

const (
	KNull Kind = iota
	KNum
	KBool
	KStr
	KArr
	KObj
)

func (k Kind) String() string {
	switch k {
	case KNull:
		return "null"
	case KNum:
		return "number"
	case KBool:
		return "boolean"
	case KStr:
		return "string"
	case KArr:
		return "array"
	case KObj:
		return "object"
	default:
		return "?"
	}
}

// Value is one script value. Numbers, booleans and strings live Go-side
// (they are immutable); arrays are handles to headers in the engine's MU
// heap, reached only through the PKRU-checked thread view.
type Value struct {
	Kind Kind
	Num  float64
	Bool bool
	Str  string
	Arr  vm.Addr // array header address (KArr)
	Obj  vm.Addr // object header address (KObj)
}

// Convenience constructors.
func Null() Value           { return Value{Kind: KNull} }
func Num(v float64) Value   { return Value{Kind: KNum, Num: v} }
func Bool(v bool) Value     { return Value{Kind: KBool, Bool: v} }
func Str(s string) Value    { return Value{Kind: KStr, Str: s} }
func Arr(hdr vm.Addr) Value { return Value{Kind: KArr, Arr: hdr} }
func Obj(hdr vm.Addr) Value { return Value{Kind: KObj, Obj: hdr} }

// f64bits / f64frombits are local aliases used by object slot encoding.
func f64bits(v float64) uint64     { return math.Float64bits(v) }
func f64frombits(b uint64) float64 { return math.Float64frombits(b) }

// Truthy follows JavaScript coercion for the kinds we support.
func (v Value) Truthy() bool {
	switch v.Kind {
	case KNum:
		return v.Num != 0 && !math.IsNaN(v.Num)
	case KBool:
		return v.Bool
	case KStr:
		return v.Str != ""
	case KArr, KObj:
		return true
	default:
		return false
	}
}

func (v Value) String() string {
	switch v.Kind {
	case KNull:
		return "null"
	case KNum:
		if v.Num == math.Trunc(v.Num) && math.Abs(v.Num) < 1e15 {
			return strconv.FormatInt(int64(v.Num), 10)
		}
		return strconv.FormatFloat(v.Num, 'g', -1, 64) // fmt's %g
	case KBool:
		return strconv.FormatBool(v.Bool)
	case KStr:
		return v.Str
	case KArr:
		return fmt.Sprintf("[array @%v]", v.Arr)
	case KObj:
		return fmt.Sprintf("[object @%v]", v.Obj)
	default:
		return "?"
	}
}

// Array header layout in MU memory. The header is itself heap data the
// engine manipulates through checked loads and stores — so a corrupted
// length or backing pointer behaves exactly as it would in a real engine.
//
//	+0  tag      (tagFloatArr for number arrays, tagIntArr for int arrays)
//	+8  length   (elements)
//	+16 capacity (elements)
//	+24 dataPtr  (address of the element buffer; 8 bytes per element)
const (
	arrHdrSize = 32

	offTag  = 0
	offLen  = 8
	offCap  = 16
	offData = 24

	// tagFloatArr marks arrays whose elements are float64 bit patterns.
	tagFloatArr uint64 = 0x4a530f64 // "JS\x0ff64"
	// tagIntArr marks arrays whose elements are raw uint64 values.
	tagIntArr uint64 = 0x4a53ce11
)

// RuntimeError is a script-level runtime failure.
type RuntimeError struct {
	Line int
	Err  error
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("jsengine: line %d: %v", e.Line, e.Err)
}

func (e *RuntimeError) Unwrap() error { return e.Err }

// MakeFloatArray allocates a script-visible number array populated with
// elems, for host bindings that return sequences (e.g. query results).
// It allocates in the calling compartment's heap, MU when invoked from a
// host function running inside the engine's gate.
func MakeFloatArray(th *ffi.Thread, elems []float64) (Value, error) {
	hdr, err := newArray(th, tagFloatArr, uint64(len(elems)))
	if err != nil {
		return Null(), err
	}
	for i, v := range elems {
		if err := arrSet(th, hdr, uint64(i), Num(v)); err != nil {
			return Null(), err
		}
	}
	return Arr(hdr), nil
}

// maxArrayElems is the largest element count whose byte size fits a
// uint64; larger lengths (new Array(-1) is 2^64-1) are rejected before
// anything is allocated.
const maxArrayElems = math.MaxUint64 / 8

// zeroBuf is the read-only source newArray and arrPush zero-fill element
// buffers from; larger fills use a fresh buffer.
var zeroBuf [4096]byte

// zeros returns n zero bytes.
func zeros(n uint64) []byte {
	if n <= uint64(len(zeroBuf)) {
		return zeroBuf[:n]
	}
	return make([]byte, n)
}

// newArray allocates an array of n zeroed elements in the calling
// compartment's heap (MU when the engine runs behind its gate).
func newArray(th *ffi.Thread, tag uint64, n uint64) (vm.Addr, error) {
	if n > maxArrayElems {
		return 0, fmt.Errorf("array length %d too large", n)
	}
	hdr, err := th.Malloc(arrHdrSize)
	if err != nil {
		return 0, err
	}
	capElems := n
	if capElems < 4 {
		capElems = 4
	}
	data, err := th.Malloc(capElems * 8)
	if err != nil {
		return 0, err
	}
	// Zero the element buffer (freshly mapped pages are zero, but recycled
	// chunks are not).
	if err := th.WriteBytes(data, zeros(capElems*8)); err != nil {
		return 0, err
	}
	if err := storeHeader(th, hdr, tag, n, capElems, data); err != nil {
		return 0, err
	}
	return hdr, nil
}

// storeHeader writes an array or object header's four words in layout
// order: tag, length (count), capacity, data (slots) pointer.
func storeHeader(th *ffi.Thread, hdr vm.Addr, tag, length, capacity uint64, data vm.Addr) error {
	for i, v := range [...]uint64{tag, length, capacity, uint64(data)} {
		if err := th.Store64(hdr+vm.Addr(8*i), v); err != nil {
			return err
		}
	}
	return nil
}

// arrInfo reads an array header.
func arrInfo(th *ffi.Thread, hdr vm.Addr) (tag, length, capacity uint64, data vm.Addr, err error) {
	if tag, err = th.Load64(hdr + offTag); err != nil {
		return
	}
	if length, err = th.Load64(hdr + offLen); err != nil {
		return
	}
	if capacity, err = th.Load64(hdr + offCap); err != nil {
		return
	}
	var d uint64
	if d, err = th.Load64(hdr + offData); err != nil {
		return
	}
	data = vm.Addr(d)
	if tag != tagFloatArr && tag != tagIntArr {
		err = fmt.Errorf("not an array object at %v (tag %#x)", hdr, tag)
	}
	return
}

// arrGet loads element i, bounds-checked against the header's length —
// and only its length. After the planted setLength bug inflates the
// length this check passes for out-of-bounds indices, which is the CVE
// analogue's read/write primitive.
func arrGet(th *ffi.Thread, hdr vm.Addr, i uint64) (Value, error) {
	tag, length, _, data, err := arrInfo(th, hdr)
	if err != nil {
		return Null(), err
	}
	if i >= length {
		return Null(), fmt.Errorf("index %d out of range (len %d)", i, length)
	}
	raw, err := th.Load64(data + vm.Addr(i*8))
	if err != nil {
		return Null(), err
	}
	if tag == tagFloatArr {
		return Num(math.Float64frombits(raw)), nil
	}
	return Num(float64(raw)), nil
}

// arrSet stores element i with the same length-only bounds check.
func arrSet(th *ffi.Thread, hdr vm.Addr, i uint64, v Value) error {
	tag, length, _, data, err := arrInfo(th, hdr)
	if err != nil {
		return err
	}
	if i >= length {
		return fmt.Errorf("index %d out of range (len %d)", i, length)
	}
	var raw uint64
	if tag == tagFloatArr {
		raw = math.Float64bits(v.Num)
	} else {
		raw = uint64(int64(v.Num))
	}
	return th.Store64(data+vm.Addr(i*8), raw)
}

// arrPush appends, growing the buffer when capacity is exhausted. This is
// the *correct* length-update path, for contrast with setLength.
func arrPush(th *ffi.Thread, hdr vm.Addr, v Value) error {
	tag, length, capacity, data, err := arrInfo(th, hdr)
	if err != nil {
		return err
	}
	if length == capacity {
		newCap := capacity * 2
		newData, err := th.Malloc(newCap * 8)
		if err != nil {
			return err
		}
		old, err := th.ReadBytes(data, int(length*8))
		if err != nil {
			return err
		}
		if err := th.WriteBytes(newData, old); err != nil {
			return err
		}
		if err := th.WriteBytes(newData+vm.Addr(length*8), zeros((newCap-length)*8)); err != nil {
			return err
		}
		if err := th.Free(data); err != nil {
			return err
		}
		if err := th.Store64(hdr+offData, uint64(newData)); err != nil {
			return err
		}
		if err := th.Store64(hdr+offCap, newCap); err != nil {
			return err
		}
		data = newData
	}
	var raw uint64
	if tag == tagFloatArr {
		raw = math.Float64bits(v.Num)
	} else {
		raw = uint64(int64(v.Num))
	}
	if err := th.Store64(data+vm.Addr(length*8), raw); err != nil {
		return err
	}
	return th.Store64(hdr+offLen, length+1)
}

// arrSetLength is the engine's PLANTED VULNERABILITY, the analogue of the
// type-confusion CVE-2019-11707 the paper exploits: it writes the new
// length without revalidating the backing capacity, so subsequent element
// accesses that bounds-check against the (now inflated) length read and
// write past the buffer — an out-of-bounds primitive in MU that exploit
// scripts escalate to arbitrary reads/writes.
func arrSetLength(th *ffi.Thread, hdr vm.Addr, n uint64) error {
	if _, _, _, _, err := arrInfo(th, hdr); err != nil {
		return err
	}
	return th.Store64(hdr+offLen, n) // BUG: no capacity re-check
}
