package vm

import (
	"errors"
	"fmt"

	"dejavu/internal/bytecode"
	"dejavu/internal/heap"
	"dejavu/internal/threads"
)

// The interpreter: one handler per opcode and per fused pair, dispatched
// over a per-VM decoded instruction stream (operands pre-resolved, common
// pairs fused into superinstructions). Run executes whole scheduling
// slices with the current method, code and pc cached in Go locals
// (runSlice); Step and native callbacks execute one unfused instruction
// at a time (execOne). Both paths run the same handlers, so record,
// replay, journaled and flight recording, and the debugger share one
// implementation of every opcode.
//
// Everything replay-observable is identical between the two paths:
//
//   - Event accounting: every component of a fused pair counts its own
//     event and reports its own original (pc, opcode) to the Observer,
//     and the MaxEvents budget plus the stack-headroom growth check run
//     at every component boundary, exactly as execOne runs them before
//     every instruction. Yield points (method prologues, taken backward
//     branches) fire from the same helpers (doCall, branch), so the
//     logical clock, trace bytes and switch schedule cannot shift.
//   - Deferred state: runSlice flushes the frame's resume pc and the
//     per-thread heap mirrors whenever they can be observed — at calls
//     (the call site pc must sit in the caller header before pushFrame),
//     at Native instructions (callbacks re-enter execOne through the
//     heap-resident pc, and remote tool VMs read the mirrors), on every
//     thread-state change, before a journal rotation snapshots the VM,
//     and when the slice exits. In between, nothing replay-visible reads
//     them: FinalState renders statics-reachable heap only, and the
//     active heap at every one of those points matches what execOne's
//     per-instruction flushes leave behind.
//   - Inline caches (CallV target, GetF/PutF field refness, SConst
//     intern index, native ids) key on program identity — class layout,
//     string pool and native registry are immutable per program — and
//     are never invalidated by replay state.

type fastFn func(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error)

var fastTab []fastFn

func init() {
	fastTab = make([]fastFn, bytecode.NumTokens())
	fastTab[bytecode.Nop] = fpNop
	fastTab[bytecode.IConst] = fpIConst
	fastTab[bytecode.LConst] = fpIConst // Imm pre-decoded for both
	fastTab[bytecode.SConst] = fpSConst
	fastTab[bytecode.Null] = fpNull
	fastTab[bytecode.Pop] = fpPop
	fastTab[bytecode.Dup] = fpDup
	fastTab[bytecode.Swap] = fpSwap
	fastTab[bytecode.Load] = fpLoad
	fastTab[bytecode.Store] = fpStore
	for _, op := range []bytecode.Opcode{
		bytecode.Add, bytecode.Sub, bytecode.Mul, bytecode.Div, bytecode.Mod,
		bytecode.And, bytecode.Or, bytecode.Xor, bytecode.Shl, bytecode.Shr,
	} {
		fastTab[op] = fpArith
	}
	fastTab[bytecode.Neg] = fpNeg
	fastTab[bytecode.Not] = fpNot
	fastTab[bytecode.CmpEq] = fpCmpRef
	fastTab[bytecode.CmpNe] = fpCmpRef
	for _, op := range []bytecode.Opcode{
		bytecode.CmpLt, bytecode.CmpLe, bytecode.CmpGt, bytecode.CmpGe,
	} {
		fastTab[op] = fpCmpOrd
	}
	fastTab[bytecode.Jmp] = fpJmp
	fastTab[bytecode.Jz] = fpJzJnz
	fastTab[bytecode.Jnz] = fpJzJnz
	fastTab[bytecode.Ret] = fpRet
	fastTab[bytecode.RetV] = fpRet
	fastTab[bytecode.Call] = fpCall
	fastTab[bytecode.CallV] = fpCallV
	fastTab[bytecode.Native] = fpNative
	fastTab[bytecode.New] = fpNew
	fastTab[bytecode.GetF] = fpGetF
	fastTab[bytecode.PutF] = fpPutF
	fastTab[bytecode.GetS] = fpGetS
	fastTab[bytecode.PutS] = fpPutS
	fastTab[bytecode.MonEnter] = fpMonEnter
	fastTab[bytecode.MonExit] = fpMonExit
	fastTab[bytecode.Wait] = fpWait
	fastTab[bytecode.TimedWait] = fpWait
	fastTab[bytecode.Notify] = fpNotify
	fastTab[bytecode.NotifyAll] = fpNotify
	fastTab[bytecode.NewArr] = fpNewArr
	fastTab[bytecode.ALoad] = fpALoad
	fastTab[bytecode.AStore] = fpAStore
	fastTab[bytecode.ArrLen] = fpArrLen
	fastTab[bytecode.InstOf] = fpInstOf
	fastTab[bytecode.Spawn] = fpSpawn
	fastTab[bytecode.ThreadID] = fpThreadID
	fastTab[bytecode.YieldOp] = fpYield
	fastTab[bytecode.Sleep] = fpSleep
	fastTab[bytecode.Interrupt] = fpInterrupt
	fastTab[bytecode.Print] = fpPrint
	fastTab[bytecode.PrintS] = fpPrintS
	fastTab[bytecode.Assert] = fpAssert
	fastTab[bytecode.Halt] = fpHalt

	fastTab[bytecode.TokLoadArith] = fpLoadArith
	fastTab[bytecode.TokIConstArith] = fpIConstArith
	fastTab[bytecode.TokLoadLoad] = fpLoadLoad
	fastTab[bytecode.TokLoadIConst] = fpLoadIConst
	fastTab[bytecode.TokLoadStore] = fpLoadStore
	fastTab[bytecode.TokCmpJz] = fpCmpJump
	fastTab[bytecode.TokCmpJnz] = fpCmpJump
	fastTab[bytecode.TokIConstCall] = fpIConstCall
	for tok, fn := range fastTab {
		if fn == nil {
			panic(fmt.Sprintf("vm: no handler for token %d", tok))
		}
	}
}

// note performs the per-event accounting: the global and per-thread
// event counters plus the Observer step callback, always with the
// component's original pc and opcode.
func (vm *VM) note(t *threads.Thread, mid, pc int, op bytecode.Opcode) {
	vm.events++
	t.EventCount++
	if vm.cfg.Observer != nil {
		vm.noteObs(t, mid, pc, op)
	}
}

// noteObs is note's cold half: hoisting the interface call out keeps
// note itself inlinable into every handler (the noinline stops the
// compiler folding it back in and blowing note's inline budget).
//
//go:noinline
func (vm *VM) noteObs(t *threads.Thread, mid, pc int, op bytecode.Opcode) {
	vm.cfg.Observer.OnStep(t.ID, mid, pc, op)
}

// --- inlinable stack primitives ---
//
// The shared push/pop helpers in stack.go construct formatted errors in
// their failure paths, which keeps the compiler from inlining them, so
// every handler would pay a function call per stack access — plus
// push's per-call segment header decode for its overflow assertion.
// These variants inline; error construction stays in the (cold) caller
// branches. The error text matches the shared helpers byte for byte.

var (
	errUnderflow = errors.New("operand stack underflow")
	errWantPrim  = errors.New("type error: expected primitive, found reference")
	errWantRef   = errors.New("type error: expected reference, found primitive")
	errNullRef   = errors.New("null reference")
)

// fpush writes val at t.SP and bumps it. It skips push's mid-
// instruction overflow assertion: handlers run under the loops' headroom
// guarantee (opHeadroom free slots at every instruction and pair
// boundary), which covers any single instruction's pushes.
func (vm *VM) fpush(t *threads.Thread, val uint64, isRef bool) {
	vm.h.StoreWord(t.StackSeg, t.SP, val)
	t.Tags[t.SP] = isRef
	t.SP++
}

// fpop pops the top slot; ok is false on operand stack underflow.
func (vm *VM) fpop(t *threads.Thread) (val uint64, isRef, ok bool) {
	if t.SP <= t.FP+FrameHeader {
		return 0, false, false
	}
	t.SP--
	val = vm.h.LoadWord(t.StackSeg, t.SP)
	isRef = t.Tags[t.SP]
	t.Tags[t.SP] = false
	return val, isRef, true
}

// boundaryErr marks an error raised at the instruction boundary between
// the two components of a fused pair (event budget, stack growth
// failure). It must surface unwrapped — Step reports these outside any
// trap — with the resume pc pointing at the second component.
type boundaryErr struct{ err error }

func (e *boundaryErr) Error() string { return e.err.Error() }
func (e *boundaryErr) Unwrap() error { return e.err }

// pairBoundary runs the instruction-boundary checks between the two
// components of a fused pair: the MaxEvents budget and the operand
// stack headroom growth, exactly as execOne performs them before every
// instruction. Growth is a heap allocation — a replay-observable event —
// so fusion must neither move nor skip it. spBias is the net stack
// effect the unfused first component would have had that the fused
// handler elided (it kept the value in a Go local instead of pushing):
// the growth condition must see the SP an unfused run would see, or
// Run and Step would grow at different points.
func (vm *VM) pairBoundary(t *threads.Thread, d *bytecode.DInstr, spBias int) error {
	if vm.cfg.MaxEvents > 0 && vm.events >= vm.cfg.MaxEvents {
		return ErrEventBudget
	}
	if vm.stackLen(t)-(t.SP+spBias) < opHeadroom {
		// Mid-pair, execOne would have flushed the second component's
		// pc; the abandoned segment keeps those bytes.
		vm.flushFramePC(t, int(d.PC)+1)
		return vm.growStack(t, opHeadroom+12)
	}
	return nil
}

// buildDecoded builds the per-VM decoded stream and pre-resolves the
// identity-pure caches the bytecode layer cannot know: SConst intern
// indexes and native ids. New calls it once the strings are interned.
func (vm *VM) buildDecoded() {
	dp := bytecode.DecodeProgram(vm.prog, true)
	for mi := range dp.Methods {
		code := dp.Methods[mi].Code
		for i := range code {
			d := &code[i]
			switch d.Op {
			case bytecode.SConst:
				if idx, ok := vm.internIdx[vm.prog.Strings[d.A]]; ok {
					d.Aux = int32(idx)
				}
			case bytecode.Native:
				d.Aux = int32(nativeID(vm.prog.Strings[d.A]))
			case bytecode.GetS, bytecode.PutS:
				// Static-slot refness is a pure function of the program, so
				// it is resolved once here instead of through two dependent
				// table loads on every access (Aux defaults to -1).
				d.Aux = 0
				if vm.prog.Classes[d.A].Statics[d.B].IsRef {
					d.Aux = 1
				}
			}
		}
	}
	vm.decoded = dp
}

// runSlice executes t until it loses the CPU, the program halts, or an
// error stops the run. On every exit it flushes the deferred state (the
// frame's resume pc and all thread mirrors) so the heap looks exactly
// like execOne's at the same boundary.
func (vm *VM) runSlice(t *threads.Thread) error {
	h := vm.h
	m := vm.frameMethod(t)
	code := vm.decoded.Methods[m.ID].Code
	pc := int(int64(h.LoadWord(t.StackSeg, t.FP+FramePC)))

	stop := func(next int) {
		if t.State != threads.Terminated {
			vm.flushFramePC(t, next)
		}
		vm.flushAllMirrors()
	}

	for {
		if vm.cfg.MaxEvents > 0 && vm.events >= vm.cfg.MaxEvents {
			stop(pc)
			vm.err = ErrEventBudget
			return vm.err
		}
		if vm.stackLen(t)-t.SP < opHeadroom {
			// The abandoned segment stays in the heap image until a
			// collection reclaims it; its header must hold the same pc
			// execOne would have flushed.
			vm.flushFramePC(t, pc)
			if err := vm.growStack(t, opHeadroom+12); err != nil {
				stop(pc)
				vm.err = err
				return vm.err
			}
		}
		d := &code[pc]
		tok, after := d.Tok, int(d.Next)
		if vm.rotPoll {
			// The journal must be polled at the very next instruction
			// boundary, which may sit inside a fused pair.
			tok, after = bytecode.Token(d.Op), pc+1
		}
		ctrl, next, err := fastTab[tok](vm, t, m, d)
		if err != nil {
			var be *boundaryErr
			if errors.As(err, &be) {
				stop(next) // resume pc is the second component of the pair
				vm.err = be.err
				return vm.err
			}
			stop(pc)
			vm.err = vm.trapErr(t, m, pc, err)
			return vm.err
		}
		switch ctrl {
		case ctrlNext:
			pc = after
		case ctrlJump, ctrlSwitch:
			pc = next
		case ctrlCall:
			// Frame changed (call or return): re-cache the method.
			m = vm.frameMethod(t)
			code = vm.decoded.Methods[m.ID].Code
			pc = next
		}
		if vm.eng.Err() != nil {
			stop(pc)
			return vm.engineErr()
		}
		if vm.halted {
			stop(pc)
			return nil
		}
		if t.State != threads.Running {
			// Preempted, blocked, waiting, sleeping or terminated: the
			// slice is over. stop stores the resume pc (skipped for a
			// terminated thread, which has no frame left).
			stop(pc)
			return nil
		}
		if vm.rotPoll && vm.rotationDue() {
			// The snapshot must see the deferred state flushed, exactly
			// as stop leaves it.
			stop(pc)
			if err := vm.rotate(); err != nil {
				return err
			}
		}
	}
}

// --- plain handlers ---

func fpNop(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	return ctrlNext, 0, nil
}

func fpIConst(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	vm.fpush(t, uint64(d.Imm), false)
	return ctrlNext, 0, nil
}

func fpSConst(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	if d.Aux >= 0 {
		// Pre-resolved intern index; the address is re-read because the
		// collector may move the interned array.
		vm.fpush(t, uint64(vm.interned[d.Aux].addr), true)
		return ctrlNext, 0, nil
	}
	a, err := vm.intern(vm.prog.Strings[d.A])
	if err != nil {
		return 0, 0, err
	}
	vm.fpush(t, uint64(a), true)
	return ctrlNext, 0, nil
}

func fpNull(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	vm.fpush(t, 0, true)
	return ctrlNext, 0, nil
}

func fpPop(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	if _, _, ok := vm.fpop(t); !ok {
		return 0, 0, errUnderflow
	}
	return ctrlNext, 0, nil
}

func fpDup(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	if t.SP <= t.FP+FrameHeader {
		return 0, 0, errUnderflow
	}
	v, tag := vm.slot(t, t.SP-1)
	vm.fpush(t, v, tag)
	return ctrlNext, 0, nil
}

func fpSwap(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	b, tb, ok := vm.fpop(t)
	if !ok {
		return 0, 0, errUnderflow
	}
	a, ta, ok := vm.fpop(t)
	if !ok {
		return 0, 0, errUnderflow
	}
	vm.fpush(t, b, tb)
	vm.fpush(t, a, ta)
	return ctrlNext, 0, nil
}

func fpLoad(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	v, tag := vm.slot(t, t.FP+FrameHeader+int(d.A))
	vm.fpush(t, v, tag)
	return ctrlNext, 0, nil
}

func fpStore(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	v, tag, ok := vm.fpop(t)
	if !ok {
		return 0, 0, errUnderflow
	}
	vm.setSlot(t, t.FP+FrameHeader+int(d.A), v, tag)
	return ctrlNext, 0, nil
}

func fpArith(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	// Tag checks interleave with the pops exactly as two popPrim calls
	// would: a malformed program must surface the same error.
	b, tb, ok := vm.fpop(t)
	if !ok {
		return 0, 0, errUnderflow
	}
	if tb {
		return 0, 0, errWantPrim
	}
	a, ta, ok := vm.fpop(t)
	if !ok {
		return 0, 0, errUnderflow
	}
	if ta {
		return 0, 0, errWantPrim
	}
	r, err := arith(d.Op, int64(a), int64(b))
	if err != nil {
		return 0, 0, err
	}
	vm.fpush(t, uint64(r), false)
	return ctrlNext, 0, nil
}

func fpNeg(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	a, ta, ok := vm.fpop(t)
	if !ok {
		return 0, 0, errUnderflow
	}
	if ta {
		return 0, 0, errWantPrim
	}
	vm.fpush(t, uint64(-int64(a)), false)
	return ctrlNext, 0, nil
}

func fpNot(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	a, ta, ok := vm.fpop(t)
	if !ok {
		return 0, 0, errUnderflow
	}
	if ta {
		return 0, 0, errWantPrim
	}
	vm.fpush(t, uint64(^int64(a)), false)
	return ctrlNext, 0, nil
}

func fpCmpRef(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	b, tb, ok := vm.fpop(t)
	if !ok {
		return 0, 0, errUnderflow
	}
	a, ta, ok := vm.fpop(t)
	if !ok {
		return 0, 0, errUnderflow
	}
	if ta != tb {
		return 0, 0, fmt.Errorf("type error: comparing reference with primitive")
	}
	r := boolWord(a == b)
	if d.Op == bytecode.CmpNe {
		r = boolWord(a != b)
	}
	vm.fpush(t, r, false)
	return ctrlNext, 0, nil
}

func cmpOrd(op bytecode.Opcode, a, b int64) bool {
	switch op {
	case bytecode.CmpLt:
		return a < b
	case bytecode.CmpLe:
		return a <= b
	case bytecode.CmpGt:
		return a > b
	default: // CmpGe
		return a >= b
	}
}

func fpCmpOrd(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	b, tb, ok := vm.fpop(t)
	if !ok {
		return 0, 0, errUnderflow
	}
	if tb {
		return 0, 0, errWantPrim
	}
	a, ta, ok := vm.fpop(t)
	if !ok {
		return 0, 0, errUnderflow
	}
	if ta {
		return 0, 0, errWantPrim
	}
	vm.fpush(t, boolWord(cmpOrd(d.Op, int64(a), int64(b))), false)
	return ctrlNext, 0, nil
}

func fpJmp(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	return vm.branch(t, int(d.PC), int(d.A))
}

func fpJzJnz(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	w, tag, ok := vm.fpop(t)
	if !ok {
		return 0, 0, errUnderflow
	}
	if tag {
		return 0, 0, errWantPrim
	}
	v := int64(w)
	taken := (v == 0) == (d.Op == bytecode.Jz)
	if !taken {
		return ctrlNext, 0, nil
	}
	return vm.branch(t, int(d.PC), int(d.A))
}

func fpRet(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	// The dying frame's header keeps the Ret's own pc under execOne
	// (written by the previous instruction's epilogue); those bytes
	// persist as garbage above SP after the pop and are part of the
	// perturbation-free heap image.
	vm.flushFramePC(t, int(d.PC))
	var rv uint64
	var rtag bool
	if d.Op == bytecode.RetV {
		var ok bool
		rv, rtag, ok = vm.fpop(t)
		if !ok {
			return 0, 0, errUnderflow
		}
	}
	done, resume, err := vm.popFrame(t)
	if err != nil {
		return 0, 0, err
	}
	if done {
		vm.sched.Terminate(t)
		return ctrlSwitch, 0, nil
	}
	if d.Op == bytecode.RetV {
		vm.fpush(t, rv, rtag)
	}
	// ctrlCall: the frame changed, the loop re-caches the caller method.
	return ctrlCall, resume, nil
}

// flushFramePC writes the frame's resume pc to the heap header; runSlice
// defers it, so call sites and native boundaries restore it before
// anything (pushFrame, nested interpretation, remote mirrors) can look.
func (vm *VM) flushFramePC(t *threads.Thread, pc int) {
	vm.h.StoreWord(t.StackSeg, t.FP+FramePC, uint64(int64(pc)))
}

// stackLen returns the current thread's stack segment length through a
// one-entry cache, avoiding a header decode per instruction. A segment's
// length never changes in place: growStack swaps in a freshly allocated
// segment (address change) and the copying collector moves every live
// object between disjoint semispace ranges (address change), while a
// heap grow reallocates the backing store and may reuse old offsets —
// so the cache is keyed on both the segment address and the heap
// generation counters.
func (vm *VM) stackLen(t *threads.Thread) int {
	h := vm.h
	if g := h.Collections + h.Grows; t.StackSeg != vm.segAddr || g != vm.segGen {
		vm.segAddr, vm.segGen = t.StackSeg, g
		vm.segLen = h.Len(t.StackSeg)
	}
	return vm.segLen
}

func fpCall(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	vm.flushFramePC(t, int(d.PC)) // the call site: returns resume at +1
	return vm.doCall(t, int(d.PC), vm.prog.Methods[d.A], int(d.B))
}

func fpCallV(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	h := vm.h
	name := vm.prog.Strings[d.A]
	nargs := int(d.B)
	if nargs < 1 {
		return 0, 0, fmt.Errorf("callv needs a receiver")
	}
	if t.SP-nargs < t.FP+FrameHeader {
		return 0, 0, fmt.Errorf("operand stack underflow")
	}
	rv, rtag := vm.slot(t, t.SP-nargs)
	if !rtag || rv == 0 {
		return 0, 0, fmt.Errorf("callv %s on null or primitive receiver", name)
	}
	if vm.isStub(heap.Addr(rv)) { // §3.4: invokevirtual on a remote object
		mid, err := vm.remoteCallTarget(heap.Addr(rv), name, nargs)
		if err != nil {
			return 0, 0, err
		}
		vm.flushFramePC(t, int(d.PC))
		return vm.doCall(t, int(d.PC), vm.prog.Methods[mid], nargs)
	}
	typeID := h.TypeID(heap.Addr(rv))
	var target *bytecode.Method
	if int32(typeID) == d.ICKey && h.KindOf(heap.Addr(rv)) == heap.KindObject {
		// Monomorphic hit: the receiver class resolved here before. The
		// arity was checked when the cache was filled and class layout
		// is immutable, so only the kind guard remains.
		target = d.ICMeth
	} else {
		if h.KindOf(heap.Addr(rv)) != heap.KindObject || typeID >= vm.numClasses {
			return 0, 0, fmt.Errorf("callv %s receiver is not a program object", name)
		}
		tgt, ok := vm.prog.Classes[typeID].Method(name)
		if !ok {
			return 0, 0, fmt.Errorf("class %s has no method %s", vm.prog.Classes[typeID].Name, name)
		}
		if tgt.NArgs != nargs {
			return 0, 0, fmt.Errorf("callv %s: %d args passed, %d expected", name, nargs, tgt.NArgs)
		}
		d.ICKey, d.ICMeth = int32(typeID), tgt
		target = tgt
	}
	vm.flushFramePC(t, int(d.PC))
	return vm.doCall(t, int(d.PC), target, nargs)
}

func fpNative(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	// Natives can re-enter the interpreter (callbacks pop frames through
	// the heap-resident resume pc) and remote tool VMs read the thread
	// mirrors, so the deferred state is flushed first — the heap looks
	// exactly like execOne's at this boundary.
	vm.flushFramePC(t, int(d.PC))
	vm.flushAllMirrors()
	vm.logged()
	id := int(d.Aux)
	if id < 0 {
		return 0, 0, fmt.Errorf("unknown native %q", vm.prog.Strings[d.A])
	}
	return vm.doNativeID(t, id, int(d.B))
}

func fpNew(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	a, err := vm.allocObject(int(d.A), len(vm.prog.Classes[d.A].Fields))
	if err != nil {
		return 0, 0, err
	}
	vm.fpush(t, uint64(a), true)
	return ctrlNext, 0, nil
}

// fieldRefnessCached resolves field refness through the DInstr's
// monomorphic cache. Object length is a pure function of the type id
// (allocObject always sizes by the class field count), so a type-id hit
// proves the range check too.
func (vm *VM) fieldRefnessCached(obj heap.Addr, d *bytecode.DInstr) (bool, error) {
	tid := vm.h.TypeID(obj)
	if int32(tid) == d.ICKey && vm.h.KindOf(obj) == heap.KindObject {
		return d.ICRef, nil
	}
	isRef, err := vm.fieldRefness(obj, int(d.A))
	if err != nil {
		return false, err
	}
	d.ICKey, d.ICRef = int32(tid), isRef
	return isRef, nil
}

func fpGetF(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	w, otag, ok := vm.fpop(t)
	if !ok {
		return 0, 0, errUnderflow
	}
	if !otag {
		return 0, 0, errWantRef
	}
	if w == 0 {
		return 0, 0, errNullRef
	}
	obj := heap.Addr(w)
	slotIdx := int(d.A)
	if vm.isStub(obj) { // §3.4: getf extended to remote objects
		v, tag, err := vm.remoteGetF(obj, slotIdx)
		if err != nil {
			return 0, 0, err
		}
		vm.fpush(t, v, tag)
		return ctrlNext, 0, nil
	}
	isRef, err := vm.fieldRefnessCached(obj, d)
	if err != nil {
		return 0, 0, err
	}
	v := vm.h.LoadWord(obj, slotIdx)
	if vm.cfg.MemHook != nil {
		vm.cfg.MemHook.OnHeapAccess(t.ID, obj, slotIdx, false, v)
	}
	vm.fpush(t, v, isRef)
	return ctrlNext, 0, nil
}

func fpPutF(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	v, tag, ok := vm.fpop(t)
	if !ok {
		return 0, 0, errUnderflow
	}
	ow, otag, ok := vm.fpop(t)
	if !ok {
		return 0, 0, errUnderflow
	}
	if !otag {
		return 0, 0, errWantRef
	}
	if ow == 0 {
		return 0, 0, errNullRef
	}
	obj := heap.Addr(ow)
	slotIdx := int(d.A)
	if vm.isStub(obj) {
		return 0, 0, fmt.Errorf("remote objects are read-only (putf on stub)")
	}
	isRef, err := vm.fieldRefnessCached(obj, d)
	if err != nil {
		return 0, 0, err
	}
	if isRef != tag {
		return 0, 0, fmt.Errorf("type error: storing %s into %s field", valKind(tag), valKind(isRef))
	}
	if vm.cfg.MemHook != nil {
		vm.cfg.MemHook.OnHeapAccess(t.ID, obj, slotIdx, true, v)
	}
	vm.h.StoreWord(obj, slotIdx, v)
	return ctrlNext, 0, nil
}

func fpGetS(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	obj := vm.staticsObj[d.A]
	isRef := d.Aux != 0 // refness pre-resolved at decode time
	v := vm.h.LoadWord(obj, int(d.B))
	if vm.cfg.MemHook != nil {
		vm.cfg.MemHook.OnHeapAccess(t.ID, obj, int(d.B), false, v)
	}
	vm.fpush(t, v, isRef)
	return ctrlNext, 0, nil
}

func fpPutS(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	v, tag, ok := vm.fpop(t)
	if !ok {
		return 0, 0, errUnderflow
	}
	isRef := d.Aux != 0 // refness pre-resolved at decode time
	if isRef != tag {
		return 0, 0, fmt.Errorf("type error: storing %s into %s static", valKind(tag), valKind(isRef))
	}
	obj := vm.staticsObj[d.A]
	if vm.cfg.MemHook != nil {
		vm.cfg.MemHook.OnHeapAccess(t.ID, obj, int(d.B), true, v)
	}
	vm.h.StoreWord(obj, int(d.B), v)
	return ctrlNext, 0, nil
}

// fpWait also covers TimedWait and fpNotify also covers NotifyAll, keyed
// off d.Op.
func fpWait(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	if vm.nestedDepth > 0 {
		return 0, 0, fmt.Errorf("blocking wait inside a native callback")
	}
	wakeAt := int64(-1)
	if d.Op == bytecode.TimedWait {
		mw, mtag, ok := vm.fpop(t)
		if !ok {
			return 0, 0, errUnderflow
		}
		if mtag {
			return 0, 0, errWantPrim
		}
		millis := int64(mw)
		if millis < 0 {
			millis = 0
		}
		wakeAt = vm.eng.ClockRead() + millis
		vm.logged()
	}
	w, otag, ok := vm.fpop(t)
	if !ok {
		return 0, 0, errUnderflow
	}
	if !otag {
		return 0, 0, errWantRef
	}
	if w == 0 {
		return 0, 0, errNullRef
	}
	if err := vm.sched.Wait(t, heap.Addr(w), wakeAt); err != nil {
		return 0, 0, err
	}
	return ctrlNext, 0, nil
}

func fpNotify(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	w, otag, ok := vm.fpop(t)
	if !ok {
		return 0, 0, errUnderflow
	}
	if !otag {
		return 0, 0, errWantRef
	}
	if w == 0 {
		return 0, 0, errNullRef
	}
	var err error
	if d.Op == bytecode.Notify {
		_, err = vm.sched.Notify(t, heap.Addr(w))
	} else {
		_, err = vm.sched.NotifyAll(t, heap.Addr(w))
	}
	if err != nil {
		return 0, 0, err
	}
	vm.flushAllMirrors()
	return ctrlNext, 0, nil
}

func fpMonEnter(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	w, otag, ok := vm.fpop(t)
	if !ok {
		return 0, 0, errUnderflow
	}
	if !otag {
		return 0, 0, errWantRef
	}
	if w == 0 {
		return 0, 0, errNullRef
	}
	obj := heap.Addr(w)
	if vm.isStub(obj) {
		return 0, 0, fmt.Errorf("cannot synchronize on a remote object")
	}
	if vm.cfg.SyncHook != nil {
		vm.cfg.SyncHook.OnMonitor(t.ID, obj, true)
	}
	if !vm.sched.MonEnter(t, obj) {
		if vm.nestedDepth > 0 {
			return 0, 0, fmt.Errorf("blocking monitorenter inside a native callback")
		}
		return ctrlNext, 0, nil // blocked; pc+1 saved for resume
	}
	return ctrlNext, 0, nil
}

func fpMonExit(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	w, otag, ok := vm.fpop(t)
	if !ok {
		return 0, 0, errUnderflow
	}
	if !otag {
		return 0, 0, errWantRef
	}
	if w == 0 {
		return 0, 0, errNullRef
	}
	obj := heap.Addr(w)
	if err := vm.sched.MonExit(t, obj); err != nil {
		return 0, 0, err
	}
	if vm.cfg.SyncHook != nil {
		vm.cfg.SyncHook.OnMonitor(t.ID, obj, false)
	}
	vm.flushAllMirrors()
	return ctrlNext, 0, nil
}

func fpALoad(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	h := vm.h
	iw, itag, ok := vm.fpop(t)
	if !ok {
		return 0, 0, errUnderflow
	}
	if itag {
		return 0, 0, errWantPrim
	}
	idx := int64(iw)
	aw, atag, ok := vm.fpop(t)
	if !ok {
		return 0, 0, errUnderflow
	}
	if !atag {
		return 0, 0, errWantRef
	}
	if aw == 0 {
		return 0, 0, errNullRef
	}
	arr := heap.Addr(aw)
	if vm.isStub(arr) { // §3.4: aload extended to remote arrays
		v, tag, err := vm.remoteALoad(arr, int(idx))
		if err != nil {
			return 0, 0, err
		}
		vm.fpush(t, v, tag)
		return ctrlNext, 0, nil
	}
	if err := h.CheckBounds(arr, int(idx)); err != nil {
		return 0, 0, err
	}
	var v uint64
	var tag bool
	switch h.KindOf(arr) {
	case heap.KindInt64Arr:
		v = h.LoadWord(arr, int(idx))
	case heap.KindRefArr:
		v, tag = h.LoadWord(arr, int(idx)), true
	case heap.KindByteArr:
		v = uint64(h.LoadByte(arr, int(idx)))
	default:
		return 0, 0, fmt.Errorf("aload on non-array")
	}
	if vm.cfg.MemHook != nil {
		vm.cfg.MemHook.OnHeapAccess(t.ID, arr, int(idx), false, v)
	}
	vm.fpush(t, v, tag)
	return ctrlNext, 0, nil
}

func fpArrLen(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	aw, atag, ok := vm.fpop(t)
	if !ok {
		return 0, 0, errUnderflow
	}
	if !atag {
		return 0, 0, errWantRef
	}
	if aw == 0 {
		return 0, 0, errNullRef
	}
	arr := heap.Addr(aw)
	if vm.isStub(arr) { // §3.4: arrlen extended to remote arrays
		_, _, length, kind := vm.stubMeta(arr)
		if kind == heap.KindObject {
			return 0, 0, fmt.Errorf("remote arrlen on non-array")
		}
		vm.fpush(t, uint64(length), false)
		return ctrlNext, 0, nil
	}
	if vm.h.KindOf(arr) == heap.KindObject {
		return 0, 0, fmt.Errorf("arrlen on non-array")
	}
	vm.fpush(t, uint64(vm.h.Len(arr)), false)
	return ctrlNext, 0, nil
}

func fpNewArr(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	w, tag, ok := vm.fpop(t)
	if !ok {
		return 0, 0, errUnderflow
	}
	if tag {
		return 0, 0, errWantPrim
	}
	n := int64(w)
	if n < 0 || n > 1<<28 {
		return 0, 0, fmt.Errorf("bad array length %d", n)
	}
	var kind heap.Kind
	switch d.A {
	case bytecode.KindInt64:
		kind = heap.KindInt64Arr
	case bytecode.KindRef:
		kind = heap.KindRefArr
	case bytecode.KindByte:
		kind = heap.KindByteArr
	}
	a, err := vm.allocArray(kind, int(n))
	if err != nil {
		return 0, 0, err
	}
	vm.fpush(t, uint64(a), true)
	return ctrlNext, 0, nil
}

func fpAStore(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	h := vm.h
	v, tag, ok := vm.fpop(t)
	if !ok {
		return 0, 0, errUnderflow
	}
	iw, itag, ok := vm.fpop(t)
	if !ok {
		return 0, 0, errUnderflow
	}
	if itag {
		return 0, 0, errWantPrim
	}
	idx := int(int64(iw))
	aw, atag, ok := vm.fpop(t)
	if !ok {
		return 0, 0, errUnderflow
	}
	if !atag {
		return 0, 0, errWantRef
	}
	if aw == 0 {
		return 0, 0, errNullRef
	}
	arr := heap.Addr(aw)
	if vm.isStub(arr) {
		return 0, 0, fmt.Errorf("remote objects are read-only (astore on stub)")
	}
	if err := h.CheckBounds(arr, idx); err != nil {
		return 0, 0, err
	}
	switch h.KindOf(arr) {
	case heap.KindInt64Arr:
		if tag {
			return 0, 0, fmt.Errorf("type error: reference into int array")
		}
		h.StoreWord(arr, idx, v)
	case heap.KindRefArr:
		if !tag {
			return 0, 0, fmt.Errorf("type error: primitive into ref array")
		}
		h.StoreWord(arr, idx, v)
	case heap.KindByteArr:
		if tag {
			return 0, 0, fmt.Errorf("type error: reference into byte array")
		}
		h.StoreByte(arr, idx, byte(v))
	default:
		return 0, 0, fmt.Errorf("astore on non-array")
	}
	if vm.cfg.MemHook != nil {
		vm.cfg.MemHook.OnHeapAccess(t.ID, arr, idx, true, v)
	}
	return ctrlNext, 0, nil
}

func fpInstOf(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	w, tag, ok := vm.fpop(t)
	if !ok {
		return 0, 0, errUnderflow
	}
	if !tag {
		return 0, 0, errWantRef
	}
	a := heap.Addr(w)
	var r bool
	if vm.isStub(a) { // §3.4: instof consults the remote type
		_, typeID, _, kind := vm.stubMeta(a)
		r = kind == heap.KindObject && typeID == int(d.A)
	} else {
		r = a != 0 && vm.h.KindOf(a) == heap.KindObject && vm.h.TypeID(a) == int(d.A)
	}
	vm.fpush(t, boolWord(r), false)
	return ctrlNext, 0, nil
}

func fpSpawn(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	nargs := int(d.B)
	if t.SP-nargs < t.FP+FrameHeader {
		return 0, 0, errUnderflow
	}
	nt, err := vm.spawnThread(vm.prog.Methods[d.A].ID, t, t.SP-nargs)
	if err != nil {
		return 0, 0, err
	}
	// Pop the arguments now that they are copied.
	for i := 0; i < nargs; i++ {
		vm.fpop(t)
	}
	vm.fpush(t, uint64(nt.ID), false)
	return ctrlNext, 0, nil
}

func fpYield(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	// A voluntary yield is a deterministic thread switch: both modes take
	// it identically, so nothing is recorded.
	if vm.nestedDepth > 0 {
		return ctrlNext, 0, nil
	}
	vm.sched.Preempt(t)
	return ctrlSwitch, int(d.PC) + 1, nil
}

func fpSleep(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	if vm.nestedDepth > 0 {
		return 0, 0, fmt.Errorf("blocking sleep inside a native callback")
	}
	w, tag, ok := vm.fpop(t)
	if !ok {
		return 0, 0, errUnderflow
	}
	if tag {
		return 0, 0, errWantPrim
	}
	millis := int64(w)
	if millis < 0 {
		millis = 0
	}
	vm.sched.Sleep(t, vm.eng.ClockRead()+millis)
	vm.logged()
	return ctrlNext, 0, nil
}

func fpInterrupt(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	w, tag, ok := vm.fpop(t)
	if !ok {
		return 0, 0, errUnderflow
	}
	if tag {
		return 0, 0, errWantPrim
	}
	tid := int64(w)
	target, found := vm.sched.Thread(int(tid))
	if !found {
		return 0, 0, fmt.Errorf("interrupt of unknown thread %d", tid)
	}
	vm.sched.Interrupt(target)
	vm.flushAllMirrors()
	return ctrlNext, 0, nil
}

func fpThreadID(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	vm.fpush(t, uint64(t.ID), false)
	return ctrlNext, 0, nil
}

func fpPrint(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	w, tag, ok := vm.fpop(t)
	if !ok {
		return 0, 0, errUnderflow
	}
	if tag {
		return 0, 0, errWantPrim
	}
	vm.printInt(int64(w))
	return ctrlNext, 0, nil
}

func fpPrintS(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	w, tag, ok := vm.fpop(t)
	if !ok {
		return 0, 0, errUnderflow
	}
	if !tag {
		return 0, 0, errWantRef
	}
	if w == 0 {
		return 0, 0, errNullRef
	}
	a := heap.Addr(w)
	if vm.isStub(a) { // §3.4: remote strings print transparently
		b, err := vm.remoteBytes(a)
		if err != nil {
			return 0, 0, err
		}
		vm.writeOutput(append(b, '\n'))
		return ctrlNext, 0, nil
	}
	if vm.h.KindOf(a) != heap.KindByteArr {
		return 0, 0, fmt.Errorf("prints on non-string")
	}
	vm.printBuf = append(vm.printBuf[:0], vm.h.Bytes(a)...)
	vm.printBuf = append(vm.printBuf, '\n')
	vm.writeOutput(vm.printBuf)
	return ctrlNext, 0, nil
}

func fpAssert(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	w, tag, ok := vm.fpop(t)
	if !ok {
		return 0, 0, errUnderflow
	}
	if tag {
		return 0, 0, errWantPrim
	}
	if w == 0 {
		return 0, 0, fmt.Errorf("assertion failed")
	}
	return ctrlNext, 0, nil
}

func fpHalt(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	vm.halted = true
	return ctrlNext, 0, nil
}

// --- fused superinstruction handlers ---
//
// Each handler executes both components with per-component event
// accounting, runs the pairBoundary checks where the unfused pair has an
// instruction boundary, and attributes second-component traps to the
// second component's pc. Stack round-trips the unfused pair would
// perform (push by component 1, immediate pop by component 2) are
// elided; the net stack effect, the tag array, every trap condition and
// the bytes left above SP are identical. A fused pair runs only when no
// journal poll is due at its inner boundary (runSlice runs the first
// component alone otherwise).

// pairErr wraps a second-component error exactly as execOne would:
// trapped at the component's own pc.
func (vm *VM) pairErr(t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr, err error) error {
	return vm.trap(t, m, int(d.PC)+1, err)
}

func fpLoadArith(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), bytecode.Load)
	b, tag := vm.slot(t, t.FP+FrameHeader+int(d.A))
	if err := vm.pairBoundary(t, d, 1); err != nil {
		return ctrlJump, int(d.PC) + 1, &boundaryErr{err}
	}
	// The unfused Load would have written the value at the stack top;
	// keep the bytes above SP identical (they survive GC segment
	// copies, and the debugger's perturbation-free claim compares whole
	// heap images between Step-driven and Run-driven executions).
	vm.h.StoreWord(t.StackSeg, t.SP, b)
	vm.note(t, m.ID, int(d.PC)+1, d.Op2)
	if tag {
		// The loaded value is the arith's top operand; it is popped
		// first, so the kind trap fires on it first.
		return 0, 0, vm.pairErr(t, m, d, fmt.Errorf("type error: expected primitive, found reference"))
	}
	a, ta, ok := vm.fpop(t)
	if !ok {
		return 0, 0, vm.pairErr(t, m, d, errUnderflow)
	}
	if ta {
		return 0, 0, vm.pairErr(t, m, d, errWantPrim)
	}
	r, err := arith(d.Op2, int64(a), int64(b))
	if err != nil {
		return 0, 0, vm.pairErr(t, m, d, err)
	}
	vm.fpush(t, uint64(r), false)
	return ctrlNext, 0, nil
}

func fpIConstArith(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), bytecode.IConst)
	if err := vm.pairBoundary(t, d, 1); err != nil {
		return ctrlJump, int(d.PC) + 1, &boundaryErr{err}
	}
	vm.h.StoreWord(t.StackSeg, t.SP, uint64(d.Imm)) // elided push: keep bytes identical
	vm.note(t, m.ID, int(d.PC)+1, d.Op2)
	a, ta, ok := vm.fpop(t)
	if !ok {
		return 0, 0, vm.pairErr(t, m, d, errUnderflow)
	}
	if ta {
		return 0, 0, vm.pairErr(t, m, d, errWantPrim)
	}
	r, err := arith(d.Op2, int64(a), d.Imm)
	if err != nil {
		return 0, 0, vm.pairErr(t, m, d, err)
	}
	vm.fpush(t, uint64(r), false)
	return ctrlNext, 0, nil
}

func fpLoadLoad(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), bytecode.Load)
	v, tag := vm.slot(t, t.FP+FrameHeader+int(d.A))
	vm.fpush(t, v, tag)
	if err := vm.pairBoundary(t, d, 0); err != nil {
		return ctrlJump, int(d.PC) + 1, &boundaryErr{err}
	}
	vm.note(t, m.ID, int(d.PC)+1, bytecode.Load)
	v, tag = vm.slot(t, t.FP+FrameHeader+int(d.A2))
	vm.fpush(t, v, tag)
	return ctrlNext, 0, nil
}

func fpLoadIConst(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), bytecode.Load)
	v, tag := vm.slot(t, t.FP+FrameHeader+int(d.A))
	vm.fpush(t, v, tag)
	if err := vm.pairBoundary(t, d, 0); err != nil {
		return ctrlJump, int(d.PC) + 1, &boundaryErr{err}
	}
	vm.note(t, m.ID, int(d.PC)+1, bytecode.IConst)
	vm.fpush(t, uint64(d.Imm2), false)
	return ctrlNext, 0, nil
}

func fpLoadStore(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), bytecode.Load)
	v, tag := vm.slot(t, t.FP+FrameHeader+int(d.A))
	if err := vm.pairBoundary(t, d, 1); err != nil {
		return ctrlJump, int(d.PC) + 1, &boundaryErr{err}
	}
	vm.h.StoreWord(t.StackSeg, t.SP, v) // elided push: keep bytes identical
	vm.note(t, m.ID, int(d.PC)+1, bytecode.Store)
	vm.setSlot(t, t.FP+FrameHeader+int(d.A2), v, tag)
	return ctrlNext, 0, nil
}

func fpCmpJump(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	var r uint64
	switch d.Op {
	case bytecode.CmpEq, bytecode.CmpNe:
		b, tb, ok := vm.fpop(t)
		if !ok {
			return 0, 0, errUnderflow
		}
		a, ta, ok := vm.fpop(t)
		if !ok {
			return 0, 0, errUnderflow
		}
		if ta != tb {
			return 0, 0, fmt.Errorf("type error: comparing reference with primitive")
		}
		r = boolWord(a == b)
		if d.Op == bytecode.CmpNe {
			r = boolWord(a != b)
		}
	default:
		b, tb, ok := vm.fpop(t)
		if !ok {
			return 0, 0, errUnderflow
		}
		if tb {
			return 0, 0, errWantPrim
		}
		a, ta, ok := vm.fpop(t)
		if !ok {
			return 0, 0, errUnderflow
		}
		if ta {
			return 0, 0, errWantPrim
		}
		r = boolWord(cmpOrd(d.Op, int64(a), int64(b)))
	}
	if err := vm.pairBoundary(t, d, 1); err != nil {
		return ctrlJump, int(d.PC) + 1, &boundaryErr{err}
	}
	vm.h.StoreWord(t.StackSeg, t.SP, r) // elided push: keep bytes identical
	vm.note(t, m.ID, int(d.PC)+1, d.Op2)
	taken := (r == 0) == (d.Op2 == bytecode.Jz)
	if !taken {
		return ctrlNext, 0, nil
	}
	// The branch's own pc is the second component.
	return vm.branch(t, int(d.PC)+1, int(d.A2))
}

func fpIConstCall(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), bytecode.IConst)
	vm.fpush(t, uint64(d.Imm), false)
	if err := vm.pairBoundary(t, d, 0); err != nil {
		return ctrlJump, int(d.PC) + 1, &boundaryErr{err}
	}
	vm.note(t, m.ID, int(d.PC)+1, bytecode.Call)
	// The call site is the second component: returns resume at PC+2,
	// the slot after the pair.
	vm.flushFramePC(t, int(d.PC)+1)
	ctrl, next, err := vm.doCall(t, int(d.PC)+1, vm.prog.Methods[d.A2], int(d.B2))
	if err != nil {
		return 0, 0, vm.pairErr(t, m, d, err)
	}
	return ctrl, next, nil
}
