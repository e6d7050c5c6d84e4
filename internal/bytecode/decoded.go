package bytecode

// Decoded instruction stream for the interpreter's token-threaded fast
// path. DecodeProgram expands every method into []DInstr with operands
// pre-decoded (constant pool lookups done once, at load) and adjacent
// instruction pairs fused into superinstructions where that cannot be
// observed: a pair is fused only when the second instruction is not a
// jump target, so no control transfer — branch, call return, blocked
// resume, or preemption resume — can ever land in the middle of a pair.
// The fused handler executes both components with their original per-
// component event accounting, which keeps yield-point placement and the
// logical clock bit-identical to the unfused program.

// Token indexes the interpreter's handler table. The first NumOpcodes()
// tokens are the opcodes themselves; the remainder are fused
// superinstructions.
type Token uint16

const (
	// TokLoadArith is Load a; op2 ∈ {Add..Shr minus Div/Mod}. Div and
	// Mod are excluded from fusion: they can trap on a zero divisor and
	// the trap must be attributed to the second component's pc.
	TokLoadArith = Token(numOpcodes) + iota
	// TokIConstArith is IConst imm; op2 ∈ {Add..Shr minus Div/Mod}.
	TokIConstArith
	// TokLoadLoad is Load a; Load a2.
	TokLoadLoad
	// TokLoadIConst is Load a; IConst imm2.
	TokLoadIConst
	// TokLoadStore is Load a; Store a2 (a local-to-local copy).
	TokLoadStore
	// TokCmpJz is cmp ∈ {CmpEq..CmpGe}; Jz target.
	TokCmpJz
	// TokCmpJnz is cmp ∈ {CmpEq..CmpGe}; Jnz target.
	TokCmpJnz
	// TokIConstCall is IConst imm; Call m, nargs.
	TokIConstCall
	tokenCount
)

// NumTokens returns the size of the token space (plain opcodes plus
// fused superinstructions).
func NumTokens() int { return int(tokenCount) }

// DInstr is one decoded instruction (or fused pair). The Op/A/B fields
// hold the first component exactly as encoded — observers see original
// (pc, opcode) per component — and Op2/A2/B2 hold the second component
// of a fused pair. Imm/Imm2 carry pre-decoded IConst/LConst values. Aux
// and the IC* fields are interpreter-owned caches: they depend only on
// program identity (string pool, native registry, class layout), never
// on replay state, so warming them is invisible to record/replay.
type DInstr struct {
	Tok    Token
	Op     Opcode // first component, as encoded
	Op2    Opcode // second component (fused pairs only)
	A, B   int32
	A2, B2 int32
	PC     int32 // original pc of the first component
	Next   int32 // pc after this instruction (PC+1, or PC+2 when fused)
	Imm    int64 // pre-decoded constant for the first component
	Imm2   int64 // pre-decoded constant for the second component
	Aux    int32 // interpreter-resolved id (intern index, native id); -1 unset

	// Monomorphic inline caches, filled by the interpreter on first
	// execution. ICKey is the receiver/object type id (-1 empty);
	// ICMeth caches a CallV target, ICRef a GetF/PutF field refness.
	ICKey  int32
	ICRef  bool
	ICMeth *Method
}

// DecodedMethod is one method's decoded code, indexed by original pc.
// Shadow slots (the second instruction of a fused pair) keep their
// plain decoding. No branch lands on one, since fusion never consumes a
// jump target, but an interpreter that runs a fused head's components
// one at a time (a debugger's single step) resumes there.
type DecodedMethod struct {
	Code []DInstr
}

// DecodedProgram is the per-program decoded form.
type DecodedProgram struct {
	Methods    []DecodedMethod
	FusedPairs int
}

// FuseToken classifies an adjacent instruction pair, returning the fused
// token when the pair has a superinstruction handler.
func FuseToken(a, b Instr) (Token, bool) {
	switch a.Op {
	case Load:
		switch b.Op {
		case Add, Sub, Mul, And, Or, Xor, Shl, Shr:
			return TokLoadArith, true
		case Load:
			return TokLoadLoad, true
		case IConst:
			return TokLoadIConst, true
		case Store:
			return TokLoadStore, true
		}
	case IConst:
		switch b.Op {
		case Add, Sub, Mul, And, Or, Xor, Shl, Shr:
			return TokIConstArith, true
		case Call:
			return TokIConstCall, true
		}
	case CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe:
		switch b.Op {
		case Jz:
			return TokCmpJz, true
		case Jnz:
			return TokCmpJnz, true
		}
	}
	return 0, false
}

// JumpTargets marks every pc that is the target of an explicit branch in
// m. Fusion must not swallow a target: anything jumped to stays the
// first component of whatever instruction sits at that pc.
func JumpTargets(m *Method) []bool {
	target := make([]bool, len(m.Code))
	for _, in := range m.Code {
		switch in.Op {
		case Jmp, Jz, Jnz:
			if t := int(in.A); t >= 0 && t < len(m.Code) {
				target[t] = true
			}
		}
	}
	return target
}

// DecodeProgram builds the decoded instruction stream for p. With fuse
// set, adjacent pairs are fused greedily left to right (pairs never
// overlap, so every slot is deterministically a head or a shadow).
func DecodeProgram(p *Program, fuse bool) *DecodedProgram {
	dp := &DecodedProgram{Methods: make([]DecodedMethod, len(p.Methods))}
	for id, m := range p.Methods {
		code := make([]DInstr, len(m.Code))
		for pc, in := range m.Code {
			d := &code[pc]
			d.Tok = Token(in.Op)
			d.Op = in.Op
			d.A, d.B = in.A, in.B
			d.PC = int32(pc)
			d.Next = int32(pc + 1)
			d.Aux = -1
			d.ICKey = -1
			switch in.Op {
			case IConst:
				d.Imm = int64(in.A)
			case LConst:
				d.Imm = p.Ints[in.A]
			}
		}
		if fuse {
			target := JumpTargets(m)
			for pc := 0; pc+1 < len(m.Code); pc++ {
				if target[pc+1] {
					continue
				}
				tok, ok := FuseToken(m.Code[pc], m.Code[pc+1])
				if !ok {
					continue
				}
				d := &code[pc]
				n := m.Code[pc+1]
				d.Tok = tok
				d.Op2 = n.Op
				d.A2, d.B2 = n.A, n.B
				d.Next = int32(pc + 2)
				if n.Op == IConst {
					d.Imm2 = int64(n.A)
				}
				dp.FusedPairs++
				pc++ // the pair consumed pc+1; never overlap pairs
			}
		}
		dp.Methods[id] = DecodedMethod{Code: code}
	}
	return dp
}
