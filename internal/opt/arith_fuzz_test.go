package opt

// Differential fuzz of the interpreter's arithmetic against the
// optimizer's constant folder. foldBinop must agree bit for bit with
// vm's arith on everything it folds — two's-complement wrap, shift
// counts masked to 6 bits, signed compares — and must refuse to fold
// anything whose trap position is replay-observable (Div/Mod). The
// oracle is the whole pipeline: a const/const/op program is run raw,
// optimized (which folds it) and run again; both executions must produce
// the same output or the same trap, and the raw one must match
// foldBinop, or trap with "division by zero" for a zero divisor.

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"dejavu/internal/bytecode"
	"dejavu/internal/vm"
)

var diffOps = []bytecode.Opcode{
	bytecode.Add, bytecode.Sub, bytecode.Mul, bytecode.Div, bytecode.Mod,
	bytecode.And, bytecode.Or, bytecode.Xor, bytecode.Shl, bytecode.Shr,
	bytecode.CmpEq, bytecode.CmpNe, bytecode.CmpLt, bytecode.CmpLe,
	bytecode.CmpGt, bytecode.CmpGe,
}

// binopProg is `print(a OP b); halt`, with the constants interned as
// needed (IConst for int32-range values, LConst otherwise).
func binopProg(a, b int64, op bytecode.Opcode) *bytecode.Program {
	bb := bytecode.NewBuilder("arithdiff")
	cb := bb.Class("Main")
	mb := cb.Method("main", 0, 0)
	mb.Const(a).Const(b).Emit(op).Emit(bytecode.Print).Emit(bytecode.Halt)
	bb.Entry(mb)
	return bb.MustProgram()
}

// checkArithDifferential runs one (a, b, op) case raw and optimized and
// cross-checks both executions plus foldBinop's prediction.
func checkArithDifferential(t *testing.T, a, b int64, op bytecode.Opcode) {
	t.Helper()
	rawOut, rawErr := runProg(t, binopProg(a, b, op))

	res, err := Optimize(binopProg(a, b, op), Options{Natives: vm.NativeSignature})
	if err != nil {
		t.Fatalf("%v %d,%d: optimize: %v", op, a, b, err)
	}
	if !res.Certified {
		t.Fatalf("%v %d,%d: refused:\n%s", op, a, b, res.Report.Text())
	}
	optOut, optErr := runProg(t, res.Program)
	if rawOut != optOut || fmt.Sprint(rawErr) != fmt.Sprint(optErr) {
		t.Fatalf("%v %d,%d: optimizer changed behavior: raw (%q, %v) optimized (%q, %v)",
			op, a, b, rawOut, rawErr, optOut, optErr)
	}

	if r, ok := foldBinop(op, a, b); ok {
		// Foldable: the interpreter must agree with the folder exactly,
		// and the fold must actually have removed the runtime op.
		if rawErr != nil {
			t.Fatalf("%v %d,%d: foldBinop folds but the VM traps: %v", op, a, b, rawErr)
		}
		if want := fmt.Sprintf("%d\n", r); rawOut != want {
			t.Fatalf("%v %d,%d: VM computed %q, foldBinop %q", op, a, b, rawOut, want)
		}
		if opCount(res.Program, op) != 0 {
			t.Fatalf("%v %d,%d: foldable op survived optimization", op, a, b)
		}
	} else if op == bytecode.Div || op == bytecode.Mod {
		// Never folded: the trap (or quotient) stays a runtime event.
		if opCount(res.Program, op) == 0 {
			t.Fatalf("%v %d,%d: trapping op was folded away", op, a, b)
		}
		if b == 0 {
			if rawErr == nil || !strings.Contains(rawErr.Error(), "division by zero") {
				t.Fatalf("%v %d,0: expected division-by-zero trap, got (%q, %v)", op, a, rawOut, rawErr)
			}
		} else {
			want := fmt.Sprintf("%d\n", divModGo(op, a, b))
			if rawErr != nil || rawOut != want {
				t.Fatalf("%v %d,%d: got (%q, %v), want %q", op, a, b, rawOut, rawErr, want)
			}
		}
	}
}

// divModGo is Go's (and the VM's) truncated division: MinInt64 / -1
// wraps to MinInt64 with remainder 0, per the language spec.
func divModGo(op bytecode.Opcode, a, b int64) int64 {
	if op == bytecode.Div {
		return a / b
	}
	return a % b
}

func FuzzArithConstfold(f *testing.F) {
	for i := range diffOps {
		f.Add(int64(math.MinInt64), int64(-1), uint8(i))
		f.Add(int64(7), int64(0), uint8(i))
		f.Add(int64(1), int64(64), uint8(i))
		f.Add(int64(-1), int64(63), uint8(i))
		f.Add(int64(math.MaxInt64), int64(math.MaxInt64), uint8(i))
	}
	f.Fuzz(func(t *testing.T, a, b int64, opSel uint8) {
		checkArithDifferential(t, a, b, diffOps[int(opSel)%len(diffOps)])
	})
}

// TestArithConstfoldPinned pins the edge cases the fuzzer is seeded
// with, so they run on every plain `go test` without the fuzz engine.
func TestArithConstfoldPinned(t *testing.T) {
	cases := []struct {
		a, b int64
		op   bytecode.Opcode
	}{
		{math.MinInt64, -1, bytecode.Div}, // wraps to MinInt64, no trap
		{math.MinInt64, -1, bytecode.Mod}, // remainder 0, no trap
		{7, 0, bytecode.Div},              // division-by-zero trap survives opt
		{7, 0, bytecode.Mod},              // ditto
		{1, 64, bytecode.Shl},             // count masked to 0
		{1, 63, bytecode.Shl},             // sign-bit shift wraps negative
		{1, -1, bytecode.Shl},             // negative count masks to 63
		{-8, 1, bytecode.Shr},             // arithmetic (sign-extending) shift
		{math.MinInt64, -1, bytecode.Mul}, // two's-complement wrap
		{math.MaxInt64, 1, bytecode.Add},  // wrap to MinInt64
		{math.MinInt64, 1, bytecode.Sub},  // wrap to MaxInt64
		{math.MinInt64, math.MinInt64, bytecode.CmpLe},
		{math.MaxInt64, math.MinInt64, bytecode.CmpGt},
	}
	for _, tc := range cases {
		checkArithDifferential(t, tc.a, tc.b, tc.op)
	}
}
