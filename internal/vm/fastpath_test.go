package vm

// Golden tests for the token-threaded interpreter: every fused
// superinstruction gets (a) a decode assertion proving the pair actually
// fuses (so the behavioral check cannot pass vacuously on the plain
// handlers), (b) a pinned output, and (c) a run that single-steps through
// the pair's head and shadow slot before running on, which must leave the
// same output and final state as the uninterrupted run. Fusion must also
// respect jump targets: a pc that any branch lands on stays the head of
// its own instruction.

import (
	"strings"
	"testing"

	"dejavu/internal/bytecode"
)

// decodeTokens returns every token appearing at a head slot across all
// methods of p, fused greedily as the VM decodes it.
func decodeTokens(p *bytecode.Program) map[bytecode.Token]int {
	counts := map[bytecode.Token]int{}
	dp := bytecode.DecodeProgram(p, true)
	for _, dm := range dp.Methods {
		for pc := 0; pc < len(dm.Code); {
			d := &dm.Code[pc]
			counts[d.Tok]++
			if int(d.Next) > pc+1 {
				pc += 2
			} else {
				pc++
			}
		}
	}
	return counts
}

// runStepped runs prog uninterrupted, then again stepping through the
// head and the shadow slot of the first fused pair with token tok before
// running the rest, and asserts both leave the same output and final
// state. It returns the output.
func runStepped(t *testing.T, prog *bytecode.Program, tok bytecode.Token) string {
	t.Helper()
	whole := run(t, prog, Config{})
	m, err := New(prog, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for {
		if done, err := m.EnsureDispatched(); done || err != nil {
			t.Fatalf("no fused %v head executed (done=%v, err=%v)", tok, done, err)
		}
		_, mid, pc, _ := m.CurrentSite()
		if m.decoded.Methods[mid].Code[pc].Tok == tok {
			break
		}
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	_, mid, head, _ := m.CurrentSite()
	for i := 0; i < 2; i++ {
		before := m.Events()
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
		if m.Events() != before+1 {
			t.Fatalf("step %d ran %d events, want 1", i, m.Events()-before)
		}
		if i == 0 {
			if _, m2, pc, ok := m.CurrentSite(); !ok || m2 != mid || pc != head+1 {
				t.Fatalf("after the head: site m%d pc%d, want the shadow slot m%d pc%d", m2, pc, mid, head+1)
			}
		}
	}
	if err := m.Run(); err != nil {
		t.Fatalf("run after stepping: %v", err)
	}
	wo, so := string(whole.Output()), string(m.Output())
	if wo != so {
		t.Fatalf("output diverged:\nrun:     %q\nstepped: %q", wo, so)
	}
	wf, sf := whole.FinalState(), m.FinalState()
	if len(wf) != len(sf) {
		t.Fatalf("final state shape diverged: %d vs %d entries", len(wf), len(sf))
	}
	for i := range wf {
		if wf[i] != sf[i] {
			t.Fatalf("final state diverged: %q vs %q", wf[i], sf[i])
		}
	}
	if whole.Events() != m.Events() {
		t.Fatalf("event counts diverged: %d vs %d", whole.Events(), m.Events())
	}
	return wo
}

func TestFusedSuperinstructionsGolden(t *testing.T) {
	cases := []struct {
		name string
		tok  bytecode.Token
		src  string
		want string
	}{
		{"load-arith", bytecode.TokLoadArith, `
program f
class Main {
  method main 0 1 {
    iconst 7
    store 0
    iconst 5
    load 0
    add
    print
    halt
  }
}
entry Main.main
`, "12\n"},
		{"load-arith-sub-order", bytecode.TokLoadArith, `
program f
class Main {
  method main 0 1 {
    iconst 3
    store 0
    iconst 10
    load 0
    sub
    print
    halt
  }
}
entry Main.main
`, "7\n"},
		{"iconst-arith", bytecode.TokIConstArith, `
program f
class Main {
  method main 0 0 {
    iconst 10
    iconst 3
    sub
    print
    halt
  }
}
entry Main.main
`, "7\n"},
		{"iconst-arith-shift-mask", bytecode.TokIConstArith, `
program f
class Main {
  method main 0 0 {
    iconst 1
    iconst 65
    shl
    print
    iconst 1
    iconst 63
    shl
    print
    halt
  }
}
entry Main.main
`, "2\n-9223372036854775808\n"},
		{"load-load", bytecode.TokLoadLoad, `
program f
class Main {
  method main 0 2 {
    iconst 2
    store 0
    iconst 3
    store 1
    load 0
    load 1
    add
    print
    halt
  }
}
entry Main.main
`, "5\n"},
		{"load-iconst", bytecode.TokLoadIConst, `
program f
class Main {
  method main 0 1 {
    iconst 9
    store 0
    load 0
    iconst 4
    sub
    print
    halt
  }
}
entry Main.main
`, "5\n"},
		{"load-store", bytecode.TokLoadStore, `
program f
class Main {
  method main 0 2 {
    iconst 41
    store 0
    load 0
    store 1
    load 1
    iconst 1
    add
    print
    halt
  }
}
entry Main.main
`, "42\n"},
		{"cmp-jz", bytecode.TokCmpJz, `
program f
class Main {
  method main 0 0 {
    iconst 1
    iconst 2
    cmplt
    jz no
    iconst 100
    print
    halt
  no:
    iconst 200
    print
    halt
  }
}
entry Main.main
`, "100\n"},
		{"cmp-jz-taken", bytecode.TokCmpJz, `
program f
class Main {
  method main 0 0 {
    iconst 2
    iconst 1
    cmplt
    jz no
    iconst 100
    print
    halt
  no:
    iconst 200
    print
    halt
  }
}
entry Main.main
`, "200\n"},
		{"cmp-jnz-loop", bytecode.TokCmpJnz, `
program f
class Main {
  method main 0 2 {
    iconst 0
    store 0
  loop:
    load 1
    load 0
    add
    store 1
    load 0
    iconst 1
    add
    store 0
    load 0
    iconst 10
    cmplt
    jnz loop
    load 1
    print
    halt
  }
}
entry Main.main
`, "45\n"},
		{"iconst-call", bytecode.TokIConstCall, `
program f
class Main {
  method double 1 1 {
    load 0
    iconst 2
    mul
    retv
  }
  method main 0 0 {
    iconst 21
    call Main.double
    print
    halt
  }
}
entry Main.main
`, "42\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := asm(t, tc.src)
			if n := decodeTokens(p)[tc.tok]; n == 0 {
				t.Fatalf("pair did not fuse: no %v token in decoded program", tc.tok)
			}
			if got := runStepped(t, p, tc.tok); got != tc.want {
				t.Fatalf("output = %q, want %q", got, tc.want)
			}
		})
	}
}

// TestFusionRespectsJumpTargets: a pc that is the target of any branch
// must stay a head — fusing it into the preceding instruction's shadow
// slot would skip it when the branch lands there.
func TestFusionRespectsJumpTargets(t *testing.T) {
	p := asm(t, `
program f
class Main {
  method main 0 0 {
    iconst 1
    jmp tgt
    iconst 3
    iconst 4
    cmplt
  tgt:
    jz zero
    iconst 100
    print
    halt
  zero:
    iconst 200
    print
    halt
  }
}
entry Main.main
`)
	// The (cmplt, jz) pair straddles the jump target: it must NOT fuse.
	dp := bytecode.DecodeProgram(p, true)
	code := dp.Methods[p.Entry].Code
	for pc := range code {
		if code[pc].Op == bytecode.CmpLt && code[pc].Tok != bytecode.Token(bytecode.CmpLt) {
			t.Fatalf("cmplt at pc %d fused (token %v) across a jump target", pc, code[pc].Tok)
		}
	}
	if got := string(run(t, p, Config{}).Output()); got != "100\n" {
		t.Fatalf("output = %q, want %q", got, "100\n")
	}
}

// TestHaltInNativeCallback pins the callNested fix: a Halt executed
// inside a native-driven callback cannot unwind the native frame, so the
// VM must reject it deterministically instead of running past the
// callback or leaving the stack imbalanced.
func TestHaltInNativeCallback(t *testing.T) {
	src := `
program haltcb
class Main {
  method handler 2 2 {
    halt
  }
  method main 0 1 {
    iconst 0
    store 0
  loop:
    sconst "Main.handler"
    iconst 8
    native "pollevents" 2
    pop
    load 0
    iconst 1
    add
    store 0
    load 0
    iconst 20
    cmplt
    jnz loop
    halt
  }
}
entry Main.main
`
	m, err := New(asm(t, src), Config{})
	if err != nil {
		t.Fatal(err)
	}
	runErr := m.Run()
	if runErr == nil {
		t.Fatal("no callback fired in 20 polls; cannot exercise halt-in-callback")
	}
	if !strings.Contains(runErr.Error(), "halt inside a native callback") {
		t.Fatalf("got %q, want halt-in-callback rejection", runErr)
	}
}
