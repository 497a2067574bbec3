package jsengine

import (
	"errors"
	"fmt"
	"math"
)

// builtin is a script-visible primitive implemented by the engine itself.
// Like a HostFunc's, its args alias the engine's value stack and are
// valid only during the call.
type builtin func(c *execCtx, args []Value) (Value, error)

func wantArgs(args []Value, n int, name string) error {
	if len(args) != n {
		return fmt.Errorf("%s expects %d argument(s), got %d", name, n, len(args))
	}
	return nil
}

func num1(name string, f func(float64) float64) builtin {
	return func(_ *execCtx, args []Value) (Value, error) {
		if err := wantArgs(args, 1, name); err != nil {
			return Null(), err
		}
		return Num(f(args[0].Num)), nil
	}
}

func num2(name string, f func(a, b float64) float64) builtin {
	return func(_ *execCtx, args []Value) (Value, error) {
		if err := wantArgs(args, 2, name); err != nil {
			return Null(), err
		}
		return Num(f(args[0].Num, args[1].Num)), nil
	}
}

// builtins is the engine's global primitive table: math (the Math.*
// surface the benchmark kernels use), string helpers, array constructors
// and print.
var builtins = map[string]builtin{
	"sqrt":  num1("sqrt", math.Sqrt),
	"floor": num1("floor", math.Floor),
	"ceil":  num1("ceil", math.Ceil),
	"round": num1("round", math.Round),
	"abs":   num1("abs", math.Abs),
	"sin":   num1("sin", math.Sin),
	"cos":   num1("cos", math.Cos),
	"tan":   num1("tan", math.Tan),
	"atan":  num1("atan", math.Atan),
	"exp":   num1("exp", math.Exp),
	"log":   num1("log", math.Log),
	"pow":   num2("pow", math.Pow),
	"min":   num2("min", math.Min),
	"max":   num2("max", math.Max),
	"atan2": num2("atan2", math.Atan2),

	"isNaN": func(_ *execCtx, args []Value) (Value, error) {
		if err := wantArgs(args, 1, "isNaN"); err != nil {
			return Null(), err
		}
		return Bool(args[0].Kind == KNum && math.IsNaN(args[0].Num)), nil
	},

	"print": func(c *execCtx, args []Value) (Value, error) {
		for i, a := range args {
			if i > 0 {
				fmt.Fprint(c.eng.out, " ")
			}
			fmt.Fprint(c.eng.out, a.String())
		}
		fmt.Fprintln(c.eng.out)
		return Null(), nil
	},

	// Array(n) and IntArray(n) — constructor-call forms of `new`.
	"Array": func(c *execCtx, args []Value) (Value, error) {
		n := uint64(0)
		if len(args) > 0 {
			n = uint64(int64(args[0].Num))
		}
		hdr, err := newArray(c.th, tagFloatArr, n)
		if err != nil {
			return Null(), err
		}
		return Arr(hdr), nil
	},
	"IntArray": func(c *execCtx, args []Value) (Value, error) {
		n := uint64(0)
		if len(args) > 0 {
			n = uint64(int64(args[0].Num))
		}
		hdr, err := newArray(c.th, tagIntArr, n)
		if err != nil {
			return Null(), err
		}
		return Arr(hdr), nil
	},

	"fromCharCode": func(_ *execCtx, args []Value) (Value, error) {
		buf := make([]byte, len(args))
		for i, a := range args {
			buf[i] = byte(int64(a.Num))
		}
		return Str(string(buf)), nil
	},

	"parseInt": func(_ *execCtx, args []Value) (Value, error) {
		if len(args) == 0 {
			return Num(math.NaN()), nil
		}
		if args[0].Kind == KNum {
			return Num(math.Trunc(args[0].Num)), nil
		}
		var v float64
		var neg bool
		s := args[0].Str
		for i := 0; i < len(s); i++ {
			if i == 0 && (s[i] == '-' || s[i] == '+') {
				neg = s[i] == '-'
				continue
			}
			if s[i] < '0' || s[i] > '9' {
				break
			}
			v = v*10 + float64(s[i]-'0')
		}
		if neg {
			v = -v
		}
		return Num(v), nil
	},

	// seededRandom(state) returns a deterministic pseudo-random value in
	// [0,1) from an integer state the script threads through; scripts that
	// need randomness use it to stay reproducible across configurations.
	"seededRandom": func(_ *execCtx, args []Value) (Value, error) {
		if err := wantArgs(args, 1, "seededRandom"); err != nil {
			return Null(), err
		}
		s := uint64(int64(args[0].Num))
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return Num(float64(s%1_000_000) / 1_000_000), nil
	},
	"nextSeed": func(_ *execCtx, args []Value) (Value, error) {
		if err := wantArgs(args, 1, "nextSeed"); err != nil {
			return Null(), err
		}
		s := uint64(int64(args[0].Num))
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return Num(float64(s % (1 << 52))), nil
	},

	"keyCount": func(c *execCtx, args []Value) (Value, error) {
		if err := wantArgs(args, 1, "keyCount"); err != nil {
			return Null(), err
		}
		if args[0].Kind != KObj {
			return Null(), errors.New("keyCount expects an object")
		}
		count, _, _, err := objInfo(c.th, args[0].Obj)
		if err != nil {
			return Null(), err
		}
		return Num(float64(count)), nil
	},

	"hasKey": func(c *execCtx, args []Value) (Value, error) {
		if err := wantArgs(args, 2, "hasKey"); err != nil {
			return Null(), err
		}
		if args[0].Kind != KObj || args[1].Kind != KStr {
			return Null(), errors.New("hasKey expects (object, string)")
		}
		keys, err := c.eng.objKeys(c.th, args[0].Obj)
		if err != nil {
			return Null(), err
		}
		for _, k := range keys {
			if k == args[1].Str {
				return Bool(true), nil
			}
		}
		return Bool(false), nil
	},

	"strlen": func(_ *execCtx, args []Value) (Value, error) {
		if err := wantArgs(args, 1, "strlen"); err != nil {
			return Null(), err
		}
		if args[0].Kind != KStr {
			return Null(), errors.New("strlen expects a string")
		}
		return Num(float64(len(args[0].Str))), nil
	},
}
