package vm

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"dejavu/internal/bytecode"
	"dejavu/internal/core"
	"dejavu/internal/heap"
	"dejavu/internal/threads"
)

// VMError wraps a runtime trap with its execution context.
type VMError struct {
	ThreadID int
	Method   string
	PC       int
	Line     int
	Reason   error
}

func (e *VMError) Error() string {
	return fmt.Sprintf("vm: trap in thread %d at %s:%d (line %d): %v",
		e.ThreadID, e.Method, e.PC, e.Line, e.Reason)
}

func (e *VMError) Unwrap() error { return e.Reason }

// ErrEventBudget aborts runs that exceed Config.MaxEvents.
var ErrEventBudget = errors.New("vm: event budget exhausted")

func (vm *VM) trap(t *threads.Thread, m *bytecode.Method, pc int, reason error) error {
	line := 0
	if pc < len(m.Lines) {
		line = int(m.Lines[pc])
	}
	return &VMError{ThreadID: t.ID, Method: m.FullName(), PC: pc, Line: line, Reason: reason}
}

// Run executes until the program halts or errs, one scheduling slice at
// a time through the token-threaded loop (runSlice). With a journal
// attached, rotation is answered at the same instruction boundaries as
// under Step (see rotate), so a journal recorded by Run and one recorded
// by stepping are identical.
func (vm *VM) Run() error {
	vm.rotPoll = vm.cfg.Journal != nil
	for {
		// This boundary is Step's: before any dispatching.
		if vm.rotPoll && vm.rotationDue() {
			if err := vm.rotate(); err != nil {
				return err
			}
		}
		done, err := vm.EnsureDispatched()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		if err := vm.runSlice(vm.sched.Current()); err != nil {
			return err
		}
		if vm.halted {
			return nil
		}
	}
}

// Step executes exactly one instruction (dispatching threads and expiring
// timers as needed first) and returns done=true when the program has
// terminated. Debuggers drive the VM through Step so every stop lands on
// an instruction boundary, including the one inside a fused pair.
func (vm *VM) Step() (done bool, err error) {
	// Segmented-journal rotation happens here, at the instruction boundary
	// before any dispatching, so every event the coming dispatch or
	// instruction logs lands in the new segment.
	if vm.cfg.Journal != nil && vm.rotationDue() {
		if err := vm.rotate(); err != nil {
			return true, err
		}
	}
	if done, err := vm.EnsureDispatched(); done || err != nil {
		return done, err
	}
	t := vm.sched.Current()
	if vm.cfg.MaxEvents > 0 && vm.events >= vm.cfg.MaxEvents {
		vm.err = ErrEventBudget
		return true, vm.err
	}
	if err := vm.execOne(t); err != nil {
		vm.err = err
		return true, err
	}
	if err := vm.engineErr(); err != nil {
		return true, err
	}
	return vm.halted, nil
}

// engineErr turns a sticky engine error into the VM's terminal error.
func (vm *VM) engineErr() error {
	e := vm.eng.Err()
	if e == nil {
		return nil
	}
	if errors.Is(e, core.ErrStalled) {
		// A stall is a watchdog abort, not a divergence: the trace may be
		// fine and the replay simply stuck.
		vm.err = fmt.Errorf("vm: %w", e)
	} else {
		vm.err = fmt.Errorf("vm: replay diverged after %d events: %w", vm.events, e)
	}
	return vm.err
}

// logged notes that the trace may have grown, so a journal's rotation
// policy must be polled at the next instruction boundary. Only dispatch,
// natives, yield-point switches and timed blocking write to the trace.
func (vm *VM) logged() { vm.rotPoll = vm.cfg.Journal != nil }

// rotationDue polls the journal's rotation policy at an instruction
// boundary. A policy only changes its answer when the trace grows or a
// rotation happens, so Run polls only after either (rotPoll); Step polls
// at every boundary.
func (vm *VM) rotationDue() bool {
	vm.rotPoll = false
	return vm.err == nil && !vm.halted && vm.nestedDepth == 0 && vm.cfg.Journal.RotatePending()
}

// rotate seals the current journal segment with a checkpoint of the VM as
// it stands at this instruction boundary: the snapshot is exactly the
// state a seeded replay restores, and every event logged from here on
// lands in the new segment. When the fresh segment is already due (a
// byte threshold below the segment header), rotPoll stays set and Run
// executes the next instruction unfused, so the next boundary is polled
// even inside a fused pair.
func (vm *VM) rotate() error {
	nyp, ok := vm.eng.RecordPos()
	if !ok {
		return nil // a replaying VM never rotates: its journal is read-only
	}
	snap, err := vm.Snapshot()
	if err == nil {
		err = vm.cfg.Journal.Rotate(snap.Encode(vm.progHash), vm.events, nyp)
	}
	if err != nil {
		vm.err = fmt.Errorf("vm: journal rotation: %w", err)
		return vm.err
	}
	vm.rotPoll = vm.cfg.Journal.RotatePending()
	return nil
}

// EnsureDispatched brings the VM to a state where CurrentSite is valid —
// expiring timers and dispatching the next thread as needed — without
// executing any program instruction. Debuggers call it before checking
// breakpoints; Step calls it implicitly.
func (vm *VM) EnsureDispatched() (done bool, err error) {
	if vm.err != nil {
		return true, vm.err
	}
	if vm.halted {
		return true, nil
	}
	for vm.sched.Current() == nil {
		vm.dispatch()
		if vm.err != nil {
			return true, vm.err
		}
		if vm.halted {
			return true, nil
		}
	}
	return false, nil
}

// dispatch picks the next runnable thread, expiring timers first. Timer
// expiry is driven by clock reads that flow through the DejaVu engine, so
// it reproduces exactly under replay (§2.2). Returns nil when the VM must
// idle (some thread sleeps) — the caller loops.
func (vm *VM) dispatch() *threads.Thread {
	if _, ok := vm.sched.NextWake(); ok {
		now := vm.eng.ClockRead()
		vm.logged()
		if e := vm.eng.Err(); e != nil {
			vm.err = fmt.Errorf("vm: replay diverged in timer check: %w", e)
			return nil
		}
		vm.sched.ExpireTimers(now)
	}
	t := vm.sched.PickNext()
	if t != nil {
		vm.eng.NotePosition(t.ID)
		vm.flushAllMirrors()
		if vm.cfg.Observer != nil {
			vm.cfg.Observer.OnSwitch(t.ID)
		}
		return t
	}
	if vm.sched.LiveCount() == 0 {
		vm.halted = true
		return nil
	}
	if err := vm.sched.CheckDeadlock(); err != nil {
		vm.err = fmt.Errorf("%w\n%s", err, vm.sched.DeadlockReport())
		return nil
	}
	// All live threads are sleeping or in timed waits: let wall time pass.
	// Replay consumes recorded clock values instead, so it never sleeps.
	if vm.cfg.IdleSleep > 0 && vm.eng.Mode() != core.ModeReplay {
		time.Sleep(vm.cfg.IdleSleep)
	}
	return nil
}

// control outcomes of one instruction.
type control int

const (
	ctrlNext   control = iota // fall through to the next instruction
	ctrlJump                  // pc set explicitly
	ctrlCall                  // frame pushed or popped; pc set explicitly
	ctrlSwitch                // current thread gave up the CPU
)

// opHeadroom is the operand-stack margin guaranteed before each
// instruction: no opcode pushes more than this many values net, so the
// stack never grows (and the collector never runs) in the middle of an
// instruction while object addresses sit in interpreter locals.
const opHeadroom = 4

// execOne interprets a single instruction of t — one "event" in the
// paper's model — from the decoded stream. It runs the plain handler of
// the instruction at the frame's pc, never a fused pair, so a fused head
// executes only its first component and the next call resumes in the
// pair's shadow slot. Unlike runSlice it keeps nothing in locals: the
// resume pc and the thread mirrors are flushed after every instruction,
// which is what lets debuggers stop anywhere.
func (vm *VM) execOne(t *threads.Thread) error {
	if vm.stackLen(t)-t.SP < opHeadroom {
		// Grow at the instruction boundary, where every live value is in
		// a tagged slot the collector can see and update.
		if err := vm.growStack(t, opHeadroom+12); err != nil {
			return err
		}
	}
	m := vm.frameMethod(t)
	pc := int(int64(vm.h.LoadWord(t.StackSeg, t.FP+FramePC)))
	d := &vm.decoded.Methods[m.ID].Code[pc]
	ctrl, next, err := fastTab[d.Op](vm, t, m, d)
	if err != nil {
		return vm.trapErr(t, m, pc, err)
	}
	if ctrl == ctrlNext {
		next = pc + 1
	}
	// Save the resume pc — for the running thread, a blocked thread (it
	// resumes after this instruction), a preempted one, the callee of a
	// call (0, as pushFrame left it) or the caller after a return. A
	// terminated thread has no frame left to update.
	if t.State != threads.Terminated {
		vm.flushFramePC(t, next)
	}
	if t.State == threads.Running {
		vm.flushMirror(t)
	} else {
		vm.flushAllMirrors()
	}
	return nil
}

// trapErr attributes a handler error to the instruction at pc, unless it
// already carries its own position (a fused second component, or a trap
// inside a native callback).
func (vm *VM) trapErr(t *threads.Thread, m *bytecode.Method, pc int, err error) error {
	var ve *VMError
	if errors.As(err, &ve) {
		return err
	}
	return vm.trap(t, m, pc, err)
}

// yieldHere runs the DejaVu yield-point instrumentation; if a preemptive
// switch is due, the current thread is moved to the back of the ready
// queue. Inside a nested (callback) interpretation the switch is deferred
// to the next outer yield point, like a pending threadswitch bit.
func (vm *VM) yieldHere(t *threads.Thread) (switched bool) {
	doSwitch := vm.eng.AtYieldPoint(t)
	if doSwitch {
		vm.logged() // a recording engine logged the switch
	}
	if vm.nestedDepth > 0 {
		if doSwitch {
			vm.deferred = true
		}
		return false
	}
	if vm.deferred {
		vm.deferred = false
		doSwitch = true
	}
	if doSwitch {
		vm.sched.Preempt(t)
		return true
	}
	return false
}

// branch handles a taken jump. A backward jump is a loop backedge and
// therefore a yield point (Jalapeño's placement).
func (vm *VM) branch(t *threads.Thread, pc, target int) (control, int, error) {
	if target <= pc { // loop backedge: yield point
		if vm.yieldHere(t) {
			return ctrlSwitch, target, nil
		}
	}
	return ctrlJump, target, nil
}

// doCall pushes the callee frame; method entry is a yield point (method
// prologue placement).
func (vm *VM) doCall(t *threads.Thread, pc int, target *bytecode.Method, nargs int) (control, int, error) {
	if t.SP-nargs < t.FP+FrameHeader {
		return 0, 0, fmt.Errorf("operand stack underflow")
	}
	// The caller's pc (the call site) is already flushed in its header.
	if err := vm.pushFrame(t, target, t.SP-nargs); err != nil {
		return 0, 0, err
	}
	// Method prologue yield point. If it preempts, the thread resumes in
	// the callee at pc 0, which is already what the new frame header says.
	vm.yieldHere(t)
	return ctrlCall, 0, nil
}

func arith(op bytecode.Opcode, a, b int64) (int64, error) {
	switch op {
	case bytecode.Add:
		return a + b, nil
	case bytecode.Sub:
		return a - b, nil
	case bytecode.Mul:
		return a * b, nil
	case bytecode.Div:
		if b == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		return a / b, nil
	case bytecode.Mod:
		if b == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		return a % b, nil
	case bytecode.And:
		return a & b, nil
	case bytecode.Or:
		return a | b, nil
	case bytecode.Xor:
		return a ^ b, nil
	case bytecode.Shl:
		return a << uint(b&63), nil
	case bytecode.Shr:
		return a >> uint(b&63), nil
	}
	return 0, fmt.Errorf("not an arithmetic op: %s", op)
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func valKind(isRef bool) string {
	if isRef {
		return "reference"
	}
	return "primitive"
}

// fieldRefness reports whether field slot i of obj holds a reference,
// validating the access.
func (vm *VM) fieldRefness(obj heap.Addr, i int) (bool, error) {
	if vm.h.KindOf(obj) != heap.KindObject {
		return false, fmt.Errorf("field access on non-object")
	}
	if i < 0 || i >= vm.h.Len(obj) {
		return false, fmt.Errorf("field slot %d out of range", i)
	}
	refMap := vm.h.Types().RefMaps[vm.h.TypeID(obj)]
	return i < len(refMap) && refMap[i], nil
}

// writeOutput forwards one output line to the sink and observer. Both
// copy the bytes before returning, so callers may pass reused buffers.
func (vm *VM) writeOutput(b []byte) {
	vm.out.write(b)
	if vm.cfg.Observer != nil {
		vm.cfg.Observer.OnOutput(b)
	}
}

// printInt writes "%d\n" through the VM's scratch buffer — the record
// hot path must not allocate per event.
func (vm *VM) printInt(v int64) {
	vm.printBuf = strconv.AppendInt(vm.printBuf[:0], v, 10)
	vm.printBuf = append(vm.printBuf, '\n')
	vm.writeOutput(vm.printBuf)
}
