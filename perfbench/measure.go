package main

import (
	"os"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// cpuNow returns the CPU time consumed by the whole process (every thread,
// so GC work on other cores is charged to the op that caused it), in ns.
func cpuNow() int64 {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// The reference kernel is the yardstick every time metric is divided by.
// Host noise on a small VM (steal, cache and memory-bandwidth pressure
// from neighbours) slows the kernel and the ops next to it together, so
// op CPU time ÷ kernel CPU time repeats far better than either alone. The
// kernel is a fixed-seed dependent xorshift walk over a 4 MB table plus a
// sort: memory-latency bound like the interpreter's heap traffic, and
// compute bound like its dispatch. It shares no code with the program and
// must stay byte-for-byte the same on every commit.
const (
	kernelWords    = 1 << 19 // 4 MB of uint64
	kernelLoads    = 12_000
	kernelSort     = 6_000
	kernelMapBytes = 1 << 20
	kernelSteps    = 1_000_000
	// kernelNominalNS is the CPU time the kernel is scaled to: a
	// normalised millisecond is a CPU millisecond on a machine where one
	// kernel pass takes exactly this long.
	kernelNominalNS = 6_000_000
	// kernelEveryNS is the op CPU time allowed between two kernel passes.
	kernelEveryNS = 20_000_000
)

type refKernel struct {
	table   []uint64
	sortBuf []uint32
	code    [256]uint8
	zero    []byte
	page    [4096]byte
	sink    uint64
}

func newRefKernel() *refKernel {
	k := &refKernel{table: make([]uint64, kernelWords), sortBuf: make([]uint32, kernelSort),
		zero: make([]byte, kernelMapBytes)}
	x := uint64(0x2545F4914F6CDD1D)
	for i := range k.table {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.table[i] = x
	}
	for i := range k.code {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.code[i] = uint8(x % 8)
	}
	return k
}

func (k *refKernel) run() {
	x := uint64(0x9E3779B97F4A7C15)
	acc := uint64(0)
	for i := 0; i < kernelLoads; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += k.table[(x^acc)&(kernelWords-1)]
	}
	for i := range k.sortBuf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.sortBuf[i] = uint32(x)
	}
	slices.Sort(k.sortBuf)
	k.sink += acc + uint64(k.sortBuf[len(k.sortBuf)/2]) + k.dispatch()
	// Zeroing, fresh pages and a small temp-file round trip: the memory
	// bandwidth, page-fault and file-system paths that VM set-up and the
	// engine's I/O warm-up take. None of it touches the Go heap, so the
	// kernel does not depend on the collector's state.
	clear(k.zero)
	if mem, err := syscall.Mmap(-1, 0, kernelMapBytes, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE); err == nil {
		for i := 0; i < len(mem); i += 4096 {
			mem[i] = byte(i)
		}
		syscall.Munmap(mem)
	}
	if f, err := os.CreateTemp("", "kernel-"); err == nil {
		f.Write(k.page[:])
		f.Seek(0, 0)
		f.Read(k.page[:])
		f.Close()
		os.Remove(f.Name())
	}
}

// dispatch runs a fixed pseudo-random program on a tiny stack machine:
// the jump-table dispatch loop with L1-resident, high-IPC work that the
// VM's interpreter spends its time in. Without it the kernel missed host
// phases that sped the interpreter up and left memory-bound code as it
// was.
func (k *refKernel) dispatch() uint64 {
	var stack [16]int64
	sp, pc, acc := 0, 0, int64(1)
	for i := 0; i < kernelSteps; i++ {
		op := k.code[pc]
		pc = (pc + 1) & (len(k.code) - 1)
		switch op {
		case 0:
			stack[sp&15] = int64(i)
			sp++
		case 1:
			acc += stack[(sp-1)&15]
		case 2:
			acc ^= acc << 7
		case 3:
			acc = acc*3 + 1
		case 4:
			if acc&1 == 0 {
				pc = (pc + 3) & (len(k.code) - 1)
			}
		case 5:
			sp--
		case 6:
			stack[sp&15] = acc
		case 7:
			acc -= int64(pc)
		}
	}
	return uint64(acc)
}

// sample is one timed call: its raw CPU time and the index of the kernel
// pass that preceded it, so it can be normalised against the passes
// around it once the run is over.
type sample struct {
	raw    int64 // CPU ns
	kernel int
	key    string  // what the op ran (program, build), see meter.key
	events float64 // VM events the call covered, where it runs a program
	alloc  uint64  // Go heap bytes allocated by the call
	allocs uint64  // Go heap objects allocated by the call
}

// span is one traced call. Times are process CPU ns since the meter
// started; parent is an index into the span list (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// meter times calls into the program. It interleaves reference-kernel
// passes between calls (never inside one), keeps per-name samples for
// the end-to-end figures and, when tracing, a span per call.
type meter struct {
	k       *refKernel
	kernel  []int64 // raw CPU ns of each kernel pass
	sinceK  int64   // op CPU ns since the last kernel pass
	samples map[string][]sample
	tracing bool
	origin  int64
	spans   []span
	open    []int // stack of open span indices
	op      int
	key     string // the current op's program, stamped on its samples
	ms      runtime.MemStats
}

func newMeter() *meter {
	m := &meter{k: newRefKernel(), samples: map[string][]sample{}, origin: cpuNow()}
	m.k.run() // fault the table in before the first timed pass
	m.kernelPass()
	return m
}

func (m *meter) kernelPass() {
	t0 := cpuNow()
	m.k.run()
	m.kernel = append(m.kernel, cpuNow()-t0)
	m.sinceK = 0
}

// beginOp starts a new op (the unit ops_per_s counts); spans opened until
// the next beginOp carry its id.
func (m *meter) beginOp() {
	m.op++
	if m.sinceK >= kernelEveryNS {
		m.kernelPass()
	}
}

// time runs fn as one timed call named name ("layer.Call"). Alloc counts
// and, when tracing, the span are taken outside the CPU-time window.
func (m *meter) time(name string, fn func() error) error {
	runtime.ReadMemStats(&m.ms)
	a0, n0 := m.ms.TotalAlloc, m.ms.Mallocs
	idx := -1
	if m.tracing {
		parent := -1
		if len(m.open) > 0 {
			parent = m.open[len(m.open)-1]
		}
		idx = len(m.spans)
		m.spans = append(m.spans, span{Name: name, Parent: parent, Op: m.op})
		m.open = append(m.open, idx)
	}
	t0 := cpuNow()
	err := fn()
	t1 := cpuNow()
	if m.tracing {
		m.spans[idx].Start, m.spans[idx].End = t0-m.origin, t1-m.origin
		m.open = m.open[:len(m.open)-1]
	}
	runtime.ReadMemStats(&m.ms)
	if len(m.open) == 0 {
		m.sinceK += t1 - t0
	}
	m.samples[name] = append(m.samples[name], sample{
		raw: t1 - t0, kernel: len(m.kernel) - 1, key: m.key,
		alloc: m.ms.TotalAlloc - a0, allocs: m.ms.Mallocs - n0,
	})
	return err
}

// factor is the normalisation factor for a call that followed kernel pass
// i: nominal ÷ the median of the passes around it.
func (m *meter) factor(i int) float64 {
	lo, hi := i-1, i+3
	if lo < 0 {
		lo = 0
	}
	if hi > len(m.kernel) {
		hi = len(m.kernel)
	}
	return kernelNominalNS / median(floats(m.kernel[lo:hi]))
}

// addEvents credits VM events to the latest sample of the named call.
func (m *meter) addEvents(name string, events float64) {
	ss := m.samples[name]
	ss[len(ss)-1].events += events
}

// robustTime is the named calls' total time in seconds, normalised or
// raw, with each call's time replaced by the median time of its kind: the
// same call on the same program. Every kind recurs many times a run, so
// one call that a collection or a host hiccup hit does not move the
// total, and noise averages out over the many kinds. It also returns the
// VM events the calls covered.
func (m *meter) robustTime(normalised bool, names ...string) (seconds, events float64) {
	kinds := map[string][]float64{}
	for _, n := range names {
		for _, s := range m.samples[n] {
			ns := float64(s.raw)
			if normalised {
				ns *= m.factor(s.kernel)
			}
			kinds[n+"|"+s.key] = append(kinds[n+"|"+s.key], ns)
			events += s.events
		}
	}
	for _, ns := range kinds {
		seconds += median(ns) * float64(len(ns)) / 1e9
	}
	return seconds, events
}

// runFactor normalises figures that are not tied to one call.
func (m *meter) runFactor() float64 { return kernelNominalNS / median(floats(m.kernel)) }

// norm returns the normalised ms of every sample of the named calls.
func (m *meter) norm(names ...string) []float64 {
	var out []float64
	for _, n := range names {
		for _, s := range m.samples[n] {
			out = append(out, float64(s.raw)/1e6*m.factor(s.kernel))
		}
	}
	return out
}

// raw returns the raw CPU ms of every sample of the named calls.
func (m *meter) raw(names ...string) []float64 {
	var out []float64
	for _, n := range names {
		for _, s := range m.samples[n] {
			out = append(out, float64(s.raw)/1e6)
		}
	}
	return out
}

func floats(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank quantile of xs (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// wallMS converts a wall-clock duration the program reports
// (Result.RunTime) to ms.
func wallMS(d time.Duration) float64 { return float64(d) / 1e6 }
