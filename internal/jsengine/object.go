package jsengine

import (
	"fmt"

	"repro/internal/ffi"
	"repro/internal/vm"
)

// Objects live in the engine's MU heap like arrays do: a header plus a
// slot table of (key, type, payload) triples. Property names are interned
// Go-side (they are part of the engine's code/metadata, as SpiderMonkey's
// atoms table is) while all property *values* — including references to
// other objects and arrays — sit in simulated memory, where a corruption
// bug can reach them.
//
// Object header layout (offsets, little-endian uint64):
//
//	+0  tag      (tagObject)
//	+8  count    (live properties)
//	+16 capacity (slot table entries)
//	+24 slotsPtr (address of the slot table; 24 bytes per slot)
//
// Slot layout: +0 keyID, +8 typeTag (Kind), +16 payload.
const (
	tagObject uint64 = 0x4a530b1e

	objSlotSize = 24
	objMinCap   = 4
)

// internKey maps a property name to a stable id.
func (e *Engine) internKey(name string) uint64 {
	if id, ok := e.keyIDs[name]; ok {
		return id
	}
	id := uint64(len(e.keyNames))
	e.keyIDs[name] = id
	e.keyNames = append(e.keyNames, name)
	return id
}

// internString maps string contents to a stable id for in-memory storage.
func (e *Engine) internString(s string) uint64 {
	if id, ok := e.strIDs[s]; ok {
		return id
	}
	id := uint64(len(e.strVals))
	e.strIDs[s] = id
	e.strVals = append(e.strVals, s)
	return id
}

// encodeValue lowers a Value to a (type, payload) pair for slot storage.
func (e *Engine) encodeValue(v Value) (uint64, uint64) {
	switch v.Kind {
	case KNum:
		return uint64(KNum), f64bits(v.Num)
	case KBool:
		if v.Bool {
			return uint64(KBool), 1
		}
		return uint64(KBool), 0
	case KStr:
		return uint64(KStr), e.internString(v.Str)
	case KArr:
		return uint64(KArr), uint64(v.Arr)
	case KObj:
		return uint64(KObj), uint64(v.Obj)
	default:
		return uint64(KNull), 0
	}
}

// decodeValue raises a stored (type, payload) pair back to a Value.
func (e *Engine) decodeValue(typ, payload uint64) (Value, error) {
	switch Kind(typ) {
	case KNull:
		return Null(), nil
	case KNum:
		return Num(f64frombits(payload)), nil
	case KBool:
		return Bool(payload != 0), nil
	case KStr:
		if payload >= uint64(len(e.strVals)) {
			return Null(), fmt.Errorf("corrupt string id %d", payload)
		}
		return Str(e.strVals[payload]), nil
	case KArr:
		return Arr(vm.Addr(payload)), nil
	case KObj:
		return Obj(vm.Addr(payload)), nil
	default:
		return Null(), fmt.Errorf("corrupt value type %d", typ)
	}
}

// newObject allocates an empty object in the calling compartment's heap.
func newObject(th *ffi.Thread) (vm.Addr, error) {
	hdr, err := th.Malloc(arrHdrSize)
	if err != nil {
		return 0, err
	}
	slots, err := th.Malloc(objMinCap * objSlotSize)
	if err != nil {
		return 0, err
	}
	if err := storeHeader(th, hdr, tagObject, 0, objMinCap, slots); err != nil {
		return 0, err
	}
	return hdr, nil
}

// objInfo reads and checks an object header.
func objInfo(th *ffi.Thread, hdr vm.Addr) (count, capacity uint64, slots vm.Addr, err error) {
	tag, err := th.Load64(hdr + offTag)
	if err != nil {
		return 0, 0, 0, err
	}
	if tag != tagObject {
		return 0, 0, 0, fmt.Errorf("not an object at %v (tag %#x)", hdr, tag)
	}
	if count, err = th.Load64(hdr + offLen); err != nil {
		return 0, 0, 0, err
	}
	if capacity, err = th.Load64(hdr + offCap); err != nil {
		return 0, 0, 0, err
	}
	d, err := th.Load64(hdr + offData)
	return count, capacity, vm.Addr(d), err
}

// objGet looks a property up by key id; missing properties yield null,
// matching JavaScript's undefined-as-absence semantics.
func (e *Engine) objGet(th *ffi.Thread, hdr vm.Addr, keyID uint64) (Value, error) {
	count, _, slots, err := objInfo(th, hdr)
	if err != nil {
		return Null(), err
	}
	for i := uint64(0); i < count; i++ {
		base := slots + vm.Addr(i*objSlotSize)
		k, err := th.Load64(base)
		if err != nil {
			return Null(), err
		}
		if k != keyID {
			continue
		}
		typ, err := th.Load64(base + 8)
		if err != nil {
			return Null(), err
		}
		payload, err := th.Load64(base + 16)
		if err != nil {
			return Null(), err
		}
		return e.decodeValue(typ, payload)
	}
	return Null(), nil
}

// objSet writes a property, growing the slot table as needed.
func (e *Engine) objSet(th *ffi.Thread, hdr vm.Addr, keyID uint64, v Value) error {
	count, capacity, slots, err := objInfo(th, hdr)
	if err != nil {
		return err
	}
	typ, payload := e.encodeValue(v)
	for i := uint64(0); i < count; i++ {
		base := slots + vm.Addr(i*objSlotSize)
		k, err := th.Load64(base)
		if err != nil {
			return err
		}
		if k == keyID {
			if err := th.Store64(base+8, typ); err != nil {
				return err
			}
			return th.Store64(base+16, payload)
		}
	}
	if count == capacity {
		newCap := capacity * 2
		newSlots, err := th.Malloc(newCap * objSlotSize)
		if err != nil {
			return err
		}
		old, err := th.ReadBytes(slots, int(count*objSlotSize))
		if err != nil {
			return err
		}
		if err := th.WriteBytes(newSlots, old); err != nil {
			return err
		}
		if err := th.Free(slots); err != nil {
			return err
		}
		if err := th.Store64(hdr+offData, uint64(newSlots)); err != nil {
			return err
		}
		if err := th.Store64(hdr+offCap, newCap); err != nil {
			return err
		}
		slots = newSlots
	}
	base := slots + vm.Addr(count*objSlotSize)
	if err := th.Store64(base, keyID); err != nil {
		return err
	}
	if err := th.Store64(base+8, typ); err != nil {
		return err
	}
	if err := th.Store64(base+16, payload); err != nil {
		return err
	}
	return th.Store64(hdr+offLen, count+1)
}

// objKeys returns the object's property names in insertion order.
func (e *Engine) objKeys(th *ffi.Thread, hdr vm.Addr) ([]string, error) {
	count, _, slots, err := objInfo(th, hdr)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, count)
	for i := uint64(0); i < count; i++ {
		k, err := th.Load64(slots + vm.Addr(i*objSlotSize))
		if err != nil {
			return nil, err
		}
		if k < uint64(len(e.keyNames)) {
			out = append(out, e.keyNames[k])
		} else {
			out = append(out, fmt.Sprintf("<corrupt key %d>", k))
		}
	}
	return out, nil
}
