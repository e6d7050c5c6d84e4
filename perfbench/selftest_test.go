package main

import (
	"math/rand"
	"testing"

	"dejavu/internal/workloads"
)

func newTestBench(t *testing.T) *bench {
	t.Setenv("TMPDIR", t.TempDir())
	return &bench{
		m: newMeter(), rng: rand.New(rand.NewSource(1)), dir: t.TempDir(), phase: "op/",
		layer: map[string]float64{}, phaseOps: map[string]int{},
	}
}

// A check whose trace was damaged between record and replay must count as
// a failed op, whichever byte was hit.
func TestCorruptTraceByteFailsTheOp(t *testing.T) {
	b := newTestBench(t)
	p := &program{name: "bank", prog: workloads.Bank(2, 4, 40), want: line(400)}
	b.op(p, func() error { return b.check(p, 7) })
	if b.t.failed != 0 {
		t.Fatalf("clean check failed: %s", b.t.firstFailure)
	}
	traceLen := 0
	b.tamper = func(tr []byte) { traceLen = len(tr) }
	b.op(p, func() error { return b.check(p, 7) })
	for i := 0; i < traceLen; i++ {
		b = newTestBench(t)
		b.tamper = func(tr []byte) { tr[i] ^= 0x5a }
		b.op(p, func() error { return b.check(p, 7) })
		if b.t.failed != 1 {
			t.Errorf("trace byte %d of %d corrupted: op passed", i, traceLen)
		}
	}
}

// An op whose output disagrees with the benchmark's own reference fails,
// on each op kind that checks outputs.
func TestWrongReferenceFailsTheOp(t *testing.T) {
	p := &program{name: "bank", prog: workloads.Bank(2, 4, 40), want: line(401)}
	for name, op := range map[string]func(b *bench) error{
		"check":   func(b *bench) error { return b.check(p, 7) },
		"capture": func(b *bench) error { return b.capture(p, 7) },
	} {
		b := newTestBench(t)
		b.op(p, func() error { return op(b) })
		if b.t.failed != 1 || b.t.ops != 1 {
			t.Errorf("%s: %d of %d ops failed with a wrong reference", name, b.t.failed, b.t.ops)
		}
	}
}
