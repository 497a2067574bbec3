package browser

import (
	"fmt"

	"repro/internal/ffi"
	"repro/internal/jsengine"
	"repro/internal/vm"
)

// registerServoLib defines the browser's trusted binding layer: the
// word-ABI functions the JS engine's host bindings call back into. These
// are the exported, instrumented T APIs of §3.3 — invoked from U they
// pass a reverse gate and run with full rights.
func (b *Browser) registerServoLib(reg *ffi.Registry) error {
	lib, err := reg.Library(ServoLib, ffi.Trusted)
	if err != nil {
		return err
	}

	nodeArg := func(id uint64) (*Node, error) {
		n, ok := b.Doc.node(id)
		if !ok {
			return nil, fmt.Errorf("browser: no node %d", id)
		}
		return n, nil
	}
	readStr := func(th *ffi.Thread, ptr, n uint64) (string, error) {
		return th.ReadString(vm.Addr(ptr), int(n))
	}

	lib.Define("by_id", func(th *ffi.Thread, args []uint64) ([]uint64, error) {
		id, err := readStr(th, args[0], args[1])
		if err != nil {
			return nil, err
		}
		n, ok := b.Doc.byID[id]
		if !ok {
			return []uint64{0}, nil
		}
		return []uint64{n.ID}, nil
	})

	lib.Define("create_element", func(th *ffi.Thread, args []uint64) ([]uint64, error) {
		tag, err := readStr(th, args[0], args[1])
		if err != nil {
			return nil, err
		}
		n, err := b.createElement(th, tag)
		if err != nil {
			return nil, err
		}
		return []uint64{n.ID}, nil
	})

	lib.Define("append_child", func(th *ffi.Thread, args []uint64) ([]uint64, error) {
		p, err := nodeArg(args[0])
		if err != nil {
			return nil, err
		}
		c, err := nodeArg(args[1])
		if err != nil {
			return nil, err
		}
		return nil, b.appendChild(th, p, c)
	})

	lib.Define("set_text", func(th *ffi.Thread, args []uint64) ([]uint64, error) {
		n, err := nodeArg(args[0])
		if err != nil {
			return nil, err
		}
		text, err := readStr(th, args[1], args[2])
		if err != nil {
			return nil, err
		}
		return nil, b.setText(th, n, text)
	})

	// get_text_ref returns a zero-copy (ptr, len) reference to the node's
	// text buffer — the cross-compartment data flow PKRU-Safe's profiler
	// must discover: the caller reads the buffer with its own rights.
	lib.Define("get_text_ref", func(_ *ffi.Thread, args []uint64) ([]uint64, error) {
		n, err := nodeArg(args[0])
		if err != nil {
			return nil, err
		}
		return []uint64{uint64(n.textAddr), n.textLen}, nil
	})

	lib.Define("set_attr", func(th *ffi.Thread, args []uint64) ([]uint64, error) {
		n, err := nodeArg(args[0])
		if err != nil {
			return nil, err
		}
		key, err := readStr(th, args[1], args[2])
		if err != nil {
			return nil, err
		}
		val, err := readStr(th, args[3], args[4])
		if err != nil {
			return nil, err
		}
		return nil, b.setAttr(th, n, key, val)
	})

	lib.Define("get_attr_ref", func(th *ffi.Thread, args []uint64) ([]uint64, error) {
		n, err := nodeArg(args[0])
		if err != nil {
			return nil, err
		}
		key, err := readStr(th, args[1], args[2])
		if err != nil {
			return nil, err
		}
		ab, ok := n.attrAddrs[key]
		if !ok {
			return []uint64{0, 0}, nil
		}
		return []uint64{uint64(ab.addr), ab.len}, nil
	})

	lib.Define("inner_html", func(th *ffi.Thread, args []uint64) ([]uint64, error) {
		n, err := nodeArg(args[0])
		if err != nil {
			return nil, err
		}
		html, err := readStr(th, args[1], args[2])
		if err != nil {
			return nil, err
		}
		if err := b.removeSubtree(th, n); err != nil {
			return nil, err
		}
		parsed, err := parseHTML(html)
		if err != nil {
			return nil, err
		}
		for _, hn := range parsed {
			if err := b.materialize(th, hn, n); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})

	lib.Define("child_count", func(_ *ffi.Thread, args []uint64) ([]uint64, error) {
		n, err := nodeArg(args[0])
		if err != nil {
			return nil, err
		}
		return []uint64{uint64(len(n.Children))}, nil
	})

	lib.Define("remove_children", func(th *ffi.Thread, args []uint64) ([]uint64, error) {
		n, err := nodeArg(args[0])
		if err != nil {
			return nil, err
		}
		return nil, b.removeSubtree(th, n)
	})

	lib.Define("node_count", func(_ *ffi.Thread, _ []uint64) ([]uint64, error) {
		return []uint64{uint64(b.Doc.CountNodes())}, nil
	})

	lib.Define("layout", func(th *ffi.Thread, _ []uint64) ([]uint64, error) {
		return nil, b.layout(th)
	})

	// query_tag writes up to cap matching node ids into the caller's out
	// buffer (in the caller's compartment) and returns the match count.
	lib.Define("query_tag", func(th *ffi.Thread, args []uint64) ([]uint64, error) {
		tag, err := readStr(th, args[0], args[1])
		if err != nil {
			return nil, err
		}
		out, capacity := vm.Addr(args[2]), args[3]
		var count uint64
		var walk func(n *Node) error
		walk = func(n *Node) error {
			if n.Tag == tag {
				if count < capacity {
					if err := th.Store64(out+vm.Addr(count*8), n.ID); err != nil {
						return err
					}
				}
				count++
			}
			for _, c := range n.Children {
				if err := walk(c); err != nil {
					return err
				}
			}
			return nil
		}
		if err := walk(b.Doc.Root); err != nil {
			return nil, err
		}
		return []uint64{count}, nil
	})

	return nil
}

// registerHostBindings installs the script-visible DOM API: each binding
// runs inside the engine's compartment (untrusted rights under MPK) and
// reaches the browser through the trusted servo library.
func (b *Browser) registerHostBindings() {
	eng := b.Engine

	callServo := func(th *ffi.Thread, fn string, words ...uint64) ([]uint64, error) {
		return th.Call(ServoLib, fn, words...)
	}

	str1 := func(fn string) jsengine.HostFunc {
		return func(th *ffi.Thread, args []jsengine.Value) (jsengine.Value, error) {
			if len(args) != 1 || args[0].Kind != jsengine.KStr {
				return jsengine.Null(), fmt.Errorf("browser: %s needs one string argument", fn)
			}
			p, err := scratch(th, args[0].Str)
			if err != nil {
				return jsengine.Null(), err
			}
			defer freeScratch(th, p)
			res, err := callServo(th, fn, uint64(p), uint64(len(args[0].Str)))
			if err != nil {
				return jsengine.Null(), err
			}
			return jsengine.Num(float64(res[0])), nil
		}
	}

	eng.RegisterHost("byId", str1("by_id"))
	eng.RegisterHost("createElement", str1("create_element"))

	eng.RegisterHost("appendChild", func(th *ffi.Thread, args []jsengine.Value) (jsengine.Value, error) {
		if len(args) != 2 {
			return jsengine.Null(), fmt.Errorf("browser: appendChild(parent, child)")
		}
		_, err := callServo(th, "append_child", uint64(args[0].Num), uint64(args[1].Num))
		return jsengine.Null(), err
	})

	eng.RegisterHost("setText", func(th *ffi.Thread, args []jsengine.Value) (jsengine.Value, error) {
		if len(args) != 2 || args[1].Kind != jsengine.KStr {
			return jsengine.Null(), fmt.Errorf("browser: setText(id, string)")
		}
		p, err := scratch(th, args[1].Str)
		if err != nil {
			return jsengine.Null(), err
		}
		defer freeScratch(th, p)
		_, err = callServo(th, "set_text", uint64(args[0].Num), uint64(p), uint64(len(args[1].Str)))
		return jsengine.Null(), err
	})

	// getText fetches the trusted buffer reference and reads it with the
	// engine's own rights — the read that faults (and is profiled) when
	// the text site is not shared.
	eng.RegisterHost("getText", func(th *ffi.Thread, args []jsengine.Value) (jsengine.Value, error) {
		if len(args) != 1 {
			return jsengine.Null(), fmt.Errorf("browser: getText(id)")
		}
		res, err := callServo(th, "get_text_ref", uint64(args[0].Num))
		if err != nil {
			return jsengine.Null(), err
		}
		if res[0] == 0 {
			return jsengine.Str(""), nil
		}
		text, err := th.ReadString(vm.Addr(res[0]), int(res[1]))
		if err != nil {
			return jsengine.Null(), err
		}
		return jsengine.Str(text), nil
	})

	eng.RegisterHost("setAttr", func(th *ffi.Thread, args []jsengine.Value) (jsengine.Value, error) {
		if len(args) != 3 || args[1].Kind != jsengine.KStr || args[2].Kind != jsengine.KStr {
			return jsengine.Null(), fmt.Errorf("browser: setAttr(id, key, val)")
		}
		kp, err := scratch(th, args[1].Str)
		if err != nil {
			return jsengine.Null(), err
		}
		defer freeScratch(th, kp)
		vp, err := scratch(th, args[2].Str)
		if err != nil {
			return jsengine.Null(), err
		}
		defer freeScratch(th, vp)
		_, err = callServo(th, "set_attr", uint64(args[0].Num),
			uint64(kp), uint64(len(args[1].Str)), uint64(vp), uint64(len(args[2].Str)))
		return jsengine.Null(), err
	})

	eng.RegisterHost("getAttr", func(th *ffi.Thread, args []jsengine.Value) (jsengine.Value, error) {
		if len(args) != 2 || args[1].Kind != jsengine.KStr {
			return jsengine.Null(), fmt.Errorf("browser: getAttr(id, key)")
		}
		kp, err := scratch(th, args[1].Str)
		if err != nil {
			return jsengine.Null(), err
		}
		defer freeScratch(th, kp)
		res, err := callServo(th, "get_attr_ref", uint64(args[0].Num), uint64(kp), uint64(len(args[1].Str)))
		if err != nil {
			return jsengine.Null(), err
		}
		if res[0] == 0 {
			return jsengine.Str(""), nil
		}
		text, err := th.ReadString(vm.Addr(res[0]), int(res[1]))
		if err != nil {
			return jsengine.Null(), err
		}
		return jsengine.Str(text), nil
	})

	eng.RegisterHost("setInnerHTML", func(th *ffi.Thread, args []jsengine.Value) (jsengine.Value, error) {
		if len(args) != 2 || args[1].Kind != jsengine.KStr {
			return jsengine.Null(), fmt.Errorf("browser: setInnerHTML(id, html)")
		}
		p, err := scratch(th, args[1].Str)
		if err != nil {
			return jsengine.Null(), err
		}
		defer freeScratch(th, p)
		_, err = callServo(th, "inner_html", uint64(args[0].Num), uint64(p), uint64(len(args[1].Str)))
		return jsengine.Null(), err
	})

	num1 := func(fn string) jsengine.HostFunc {
		return func(th *ffi.Thread, args []jsengine.Value) (jsengine.Value, error) {
			if len(args) != 1 {
				return jsengine.Null(), fmt.Errorf("browser: %s(id)", fn)
			}
			res, err := callServo(th, fn, uint64(args[0].Num))
			if err != nil {
				return jsengine.Null(), err
			}
			if len(res) == 0 {
				return jsengine.Null(), nil
			}
			return jsengine.Num(float64(res[0])), nil
		}
	}
	eng.RegisterHost("childCount", num1("child_count"))
	eng.RegisterHost("removeChildren", num1("remove_children"))

	eng.RegisterHost("nodeCount", func(th *ffi.Thread, _ []jsengine.Value) (jsengine.Value, error) {
		res, err := callServo(th, "node_count")
		if err != nil {
			return jsengine.Null(), err
		}
		return jsengine.Num(float64(res[0])), nil
	})

	eng.RegisterHost("reflow", func(th *ffi.Thread, _ []jsengine.Value) (jsengine.Value, error) {
		_, err := callServo(th, "layout")
		return jsengine.Null(), err
	})

	eng.RegisterHost("queryTag", func(th *ffi.Thread, args []jsengine.Value) (jsengine.Value, error) {
		if len(args) != 1 || args[0].Kind != jsengine.KStr {
			return jsengine.Null(), fmt.Errorf("browser: queryTag(tag)")
		}
		tp, err := scratch(th, args[0].Str)
		if err != nil {
			return jsengine.Null(), err
		}
		defer freeScratch(th, tp)
		const capIDs = 4096
		out, err := th.Malloc(capIDs * 8)
		if err != nil {
			return jsengine.Null(), err
		}
		defer freeScratch(th, out)
		res, err := callServo(th, "query_tag", uint64(tp), uint64(len(args[0].Str)), uint64(out), capIDs)
		if err != nil {
			return jsengine.Null(), err
		}
		n := res[0]
		if n > capIDs {
			n = capIDs
		}
		ids := make([]float64, n)
		for i := uint64(0); i < n; i++ {
			raw, err := th.Load64(out + vm.Addr(i*8))
			if err != nil {
				return jsengine.Null(), err
			}
			ids[i] = float64(raw)
		}
		return jsengine.MakeFloatArray(th, ids)
	})
}

// scratch stages a Go string into the calling compartment's heap so its
// bytes can cross the word-based ABI. An empty string stages nothing and
// yields address 0; callers defer freeScratch on the result.
func scratch(th *ffi.Thread, s string) (vm.Addr, error) {
	if len(s) == 0 {
		return 0, nil
	}
	addr, err := th.Malloc(uint64(len(s)))
	if err != nil {
		return 0, err
	}
	if err := th.WriteString(addr, s); err != nil {
		return 0, err
	}
	return addr, nil
}

// freeScratch releases a scratch allocation; address 0 is a no-op.
func freeScratch(th *ffi.Thread, p vm.Addr) {
	if p != 0 {
		_ = th.Free(p)
	}
}
