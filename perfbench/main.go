// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives the public functions of the replay platform's
// packages from outside, checks every op against references it computes
// itself, and prints one JSON result line last. See README.md.
//
//	perfbench --workload capture-long --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"dejavu/internal/obs"
	"dejavu/internal/vm"
	"dejavu/internal/workloads"
)

// workload is one benchmark workload: how to build its inputs and state,
// and one stratified round of ops (every round runs the same mix, so a
// run's figures do not hinge on which programs a seed happened to draw).
type workload struct {
	setup    func(b *bench) error
	teardown func(b *bench)
	round    func(b *bench)
	record   []string // op-loop calls whose events make record_mevs
	replay   []string // op-loop calls whose events make replay_mevs
}

var workloadDefs = map[string]workload{
	"capture-long": {
		setup:    setupCapture,
		teardown: func(*bench) {},
		round:    roundCapture,
		record:   []string{"replaycheck.RecordSink"},
		replay:   []string{"replaycheck.ReplayJournalFrom"},
	},
	"debug-sessions": {
		setup:    setupSessions,
		teardown: teardownSessions,
		round:    roundSessions,
		record:   []string{"sessions.Create"},
		replay:   []string{"sessions.VerifyReplay"},
	},
	"short-checks": {
		setup:    setupChecks,
		teardown: func(*bench) {},
		round:    roundChecks,
		record:   []string{"replaycheck.Record"},
		replay:   []string{"replaycheck.Replay"},
	},
}

const setupRepeats = 5

func main() {
	name := flag.String("workload", "", "capture-long, debug-sessions or short-checks")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	traced := flag.Int("trace", 0, "1 for the traced per-layer run")
	flag.Parse()
	w, ok := workloadDefs[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad flags (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("work-%s-%d", *name, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(filepath.Join(dir, "tmp"), 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	// The engine's I/O warm-up writes temp files: keep them in the checkout.
	os.Setenv("TMPDIR", filepath.Join(dir, "tmp"))
	// One client, one P: the collector then works on the client's own
	// CPU, so its cost lands in the op that caused it instead of varying
	// with how idle the second CPU happens to be.
	runtime.GOMAXPROCS(1)
	res, err := run(w, *name, *seed, *seconds, *traced == 1, dir)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(w workload, name string, seed int64, seconds int, traced bool, dir string) (*result, error) {
	b := &bench{m: newMeter(), dir: dir, layer: map[string]float64{}, phaseOps: map[string]int{},
		images: filepath.Join(dir, "images")}
	if traced {
		b.reg = obs.NewRegistry()
	}
	b.phase = "setup/"
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			w.teardown(b)
		}
		b.m.kernelPass()
		b.rng = rand.New(rand.NewSource(seed))
		if err := b.time("setup", func() error { return w.setup(b) }); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	b.m.kernelPass()
	b.rng = rand.New(rand.NewSource(seed ^ 0x5bd1e995))
	budget := cpuNow() + int64(seconds)*1e9
	for r := 0; cpuNow() < budget || r == 0; r++ {
		// The traced run alternates traced and plain rounds, so the cost
		// of tracing itself is measured within one run.
		b.phase, b.m.tracing = "op/", traced
		if traced && r%2 == 1 {
			b.phase, b.m.tracing = "plain/", false
		}
		w.round(b)
	}
	b.m.tracing = false
	if traced {
		if err := b.sweep(name); err != nil {
			b.fail(nil, fmt.Errorf("layer sweep: %w", err))
		}
	}
	w.teardown(b)
	b.m.kernelPass()

	res := &result{Attempted: b.t.ops, Failed: b.t.failed, Metrics: map[string]metric{}}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	report := b.endToEnd(w)
	if traced {
		report = b.perLayer(w)
		if err := b.writeSpans(name, seed); err != nil {
			return nil, err
		}
	}
	b.printReport(name, seed, report)
	for _, m := range report {
		res.Metrics[m.name] = metric{m.value, m.unit}
	}
	if b.t.firstFailure != "" {
		fmt.Printf("first failure: %s\n", b.t.firstFailure)
	}
	return res, nil
}

// op runs one op of the loop: it counts as attempted, and as failed when
// any call errs or any check fails.
//
// Each op starts from a freshly collected heap (untimed): the collector
// then runs at the same points inside every op of a kind, instead of
// phase-locking with the op mix in a way that differs from run to run.
// The collections an op's own allocation triggers stay in its time.
func (b *bench) op(p *program, fn func() error) {
	runtime.GC()
	b.m.key = ""
	if p != nil {
		b.m.key = p.name
	}
	b.m.beginOp()
	b.t.ops++
	b.phaseOps[b.phase]++
	if err := fn(); err != nil {
		b.fail(p, err)
	}
}

// ---------------------------------------------------------------------------
// Workload set-up and rounds.

// build builds and verifies one program, timed as the bytecode layer.
func (b *bench) build(name string, mk func() *program) (*program, error) {
	var p *program
	err := b.time("bytecode.Build", func() error {
		p = mk()
		_, err := vm.VerifyProgram(p.prog)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	b.count("bytecode.programs", 1)
	b.count("bytecode.instrs", float64(instrs(p.prog)))
	return p, nil
}

// servicePool builds the four variants of each service family, each
// sized uniformly in [lo, hi) events.
func (b *bench) servicePool(lo, hi int) error {
	b.pool = b.pool[:0]
	for _, f := range serviceFamilies {
		for v := 0; v < 4; v++ {
			target := lo + b.rng.Intn(hi-lo)
			p, err := b.build(f, func() *program { p := service(b.rng, f, v, target); return &p })
			if err != nil {
				return err
			}
			b.pool = append(b.pool, p)
		}
	}
	return nil
}

func setupCapture(b *bench) error { return b.servicePool(700_000, 800_000) }

func roundCapture(b *bench) {
	for _, i := range b.rng.Perm(len(b.pool)) {
		p, seed := b.pool[i], b.rng.Int63()
		b.op(p, func() error { return b.capture(p, seed) })
		if b.reg != nil {
			b.baseline(p, seed)
		}
	}
}

// short-checks runs the registry programs at their default sizes plus
// seeded workloads.RandomProgram inputs: randomPrograms of them per run,
// randomPerRound in each round, cycling. Random programs are tiny but log
// many bytes per event, so cycling many of them keeps a run's figures
// from hinging on a few draws.
const (
	randomPrograms = 64
	randomPerRound = 8
)

func setupChecks(b *bench) error {
	b.pool = b.pool[:0]
	for _, n := range workloads.Names() {
		p, err := b.build(n, func() *program {
			return &program{name: n, prog: workloads.Registry[n](), want: registryWant(n)}
		})
		if err != nil {
			return err
		}
		b.pool = append(b.pool, p)
	}
	for i := 0; i < randomPrograms; i++ {
		s := b.rng.Int63()
		p, err := b.build("random", func() *program {
			return &program{name: fmt.Sprintf("random-%d", s), prog: workloads.RandomProgram(s)}
		})
		if err != nil {
			return err
		}
		b.pool = append(b.pool, p)
	}
	b.nextPrg = 0
	return nil
}

func roundChecks(b *bench) {
	fixed := len(b.pool) - randomPrograms
	round := b.pool[:fixed:fixed]
	for i := 0; i < randomPerRound; i++ {
		round = append(round, b.pool[fixed+b.nextPrg%randomPrograms])
		b.nextPrg++
	}
	for _, i := range b.rng.Perm(len(round)) {
		p, seed := round[i], b.rng.Int63()
		b.op(p, func() error { return b.check(p, seed) })
		if b.reg != nil {
			b.baseline(p, seed)
		}
	}
}

// debug-sessions: the sixteen service variants at about 120k events,
// written as .dva images; sessions cycle through them, every other one
// optimized.
func setupSessions(b *bench) error {
	if err := b.servicePool(110_000, 130_000); err != nil {
		return err
	}
	for _, p := range b.pool {
		if err := b.writeImage(p); err != nil {
			return err
		}
	}
	if err := b.openManager(); err != nil {
		return err
	}
	b.nextPrg = 0
	rss0 := rssMB()
	for len(b.live) < workingSet {
		if err := b.createNext(); err != nil {
			return err
		}
	}
	b.count("sessions.rss_mb", rssMB()-rss0)
	b.count("sessions.rss_sessions", workingSet)
	return nil
}

// createNext creates the next session of the fixed cycle and adds it to
// the working set.
func (b *bench) createNext() error {
	p := b.pool[b.nextPrg%len(b.pool)]
	optimize := b.nextPrg/len(b.pool)%2 == b.nextPrg%2
	b.nextPrg++
	seed := b.rng.Int63()
	ls, err := b.create(p, seed, optimize)
	if err != nil {
		return err
	}
	b.live = append(b.live, ls)
	if b.reg != nil && b.phase != "setup/" {
		b.baseline(p, seed)
	}
	return nil
}

func teardownSessions(b *bench) {
	for _, ls := range b.live {
		b.mgr.Kill(ls.id, true)
	}
	b.live = nil
	b.mgr = nil
	os.RemoveAll(filepath.Join(b.dir, "data"))
	os.RemoveAll(b.images)
}

// Per round: replace the oldest session, then six travels, two
// continue-to-breakpoint and two step commands, and one replay check,
// each on a seeded live session.
func roundSessions(b *bench) {
	if len(b.live) > 0 {
		old := b.live[0]
		b.live = b.live[1:]
		b.op(old.p, func() error { return b.retire(old) })
	}
	b.op(nil, b.createNext)
	if len(b.live) == 0 {
		return
	}
	pick := func() *liveSession { return b.live[b.rng.Intn(len(b.live))] }
	for i := 0; i < 6; i++ {
		ls := pick()
		target := uint64(b.rng.Int63n(int64(ls.events) + 1))
		b.op(ls.p, func() error { return b.travel(ls, target) })
	}
	for i := 0; i < 2; i++ {
		ls := pick()
		b.op(ls.p, func() error { return b.stepCmd(ls, 20_000, true) })
	}
	for i := 0; i < 2; i++ {
		ls, n := pick(), 500+b.rng.Intn(2500)
		b.op(ls.p, func() error { return b.stepCmd(ls, n, false) })
	}
	ls := pick()
	b.op(ls.p, func() error { return b.verify(ls) })
}

// ---------------------------------------------------------------------------
// Figures.

type figure struct {
	name  string
	value float64
	unit  string
	note  string
}

// opNames lists, sorted, the sample names that start with prefix (a
// phase such as "op/", or "" for all).
func (b *bench) opNames(phase string) []string {
	var out []string
	for n := range b.m.samples {
		if strings.HasPrefix(n, phase) {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

func prefixed(phase string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = phase + n
	}
	return out
}

func (b *bench) endToEnd(w workload) []figure {
	m := b.m
	var alloc, allocs float64
	for _, n := range b.opNames("op/") {
		for _, s := range m.samples[n] {
			alloc += float64(s.alloc)
			allocs += float64(s.allocs)
		}
	}
	ops := float64(b.t.ops)
	// Time metrics in normalised CPU time, and in raw CPU time for the
	// noise study (printed, never a metric).
	times := func(normalised bool) []float64 {
		t := m.raw
		if normalised {
			t = m.norm
		}
		opS, _ := m.robustTime(normalised, b.opNames("op/")...)
		recS, recEv := m.robustTime(normalised, prefixed("op/", w.record)...)
		repS, repEv := m.robustTime(normalised, prefixed("op/", w.replay)...)
		return []float64{
			median(t("setup/setup")) / 1e3,
			float64(b.phaseOps["op/"]) / opS,
			recEv / 1e6 / recS,
			repEv / 1e6 / repS,
		}
	}
	norm, raw := times(true), times(false)
	rawNote := func(i int) string { return fmt.Sprintf("raw CPU %.4f", raw[i]) }
	return []figure{
		{"setup_s", norm[0], "s", fmt.Sprintf("median of %d set-ups; ", setupRepeats) + rawNote(0)},
		{"ops_per_s", norm[1], "1/s", fmt.Sprintf("%d ops; ", b.t.ops) + rawNote(1)},
		{"record_mevs", norm[2], "Mev/s", strings.Join(w.record, "+") + "; " + rawNote(2)},
		{"replay_mevs", norm[3], "Mev/s", strings.Join(w.replay, "+") + "; " + rawNote(3)},
		{"trace_bytes_per_kev", b.t.traceBytes / b.t.tracedEvents * 1e3, "B/kev", ""},
		{"alloc_mb_per_op", alloc / ops / 1e6, "MB", ""},
		{"allocs_per_op", allocs / ops, "count", ""},
		{"peak_rss_mb", peakRSSMB(), "MB", "VmHWM of this process"},
	}
}

// layerNorm is the normalised ms of the named calls over every phase.
func (b *bench) layerNorm(names ...string) []float64 { return b.m.norm(b.anyPhase(names)...) }

// layerRaw is the raw CPU ms of the named calls over every phase.
func (b *bench) layerRaw(names ...string) []float64 { return b.m.raw(b.anyPhase(names)...) }

func (b *bench) anyPhase(names []string) []string {
	var all []string
	for n := range b.m.samples {
		_, call, _ := strings.Cut(n, "/")
		for _, want := range names {
			if call == want {
				all = append(all, n)
			}
		}
	}
	sort.Strings(all)
	return all
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (b *bench) perLayer(w workload) []figure {
	c := b.layer
	med := func(names ...string) float64 { return median(b.layerNorm(names...)) }
	mevs := func(mode string) float64 { return ratio(c["vm.run_events."+mode]/1e3, c["vm.run_ms."+mode]) }
	var vmNewKB, vmNewN float64
	for n, ss := range b.m.samples {
		if strings.HasSuffix(n, "/vm.New") {
			for _, s := range ss {
				vmNewKB += float64(s.alloc) / 1024
				vmNewN++
			}
		}
	}
	callMS := sum(b.layerRaw("replaycheck.Record", "replaycheck.Replay"))
	stepMS := sum(b.layerNorm("debugger.StepInstr", "sessions.Exec.step", "sessions.Exec.continue"))
	refusals := 0.0
	for _, s := range b.reg.Snapshot() {
		if strings.HasPrefix(s.Name, "dv_sessions_rejected_total") {
			refusals += float64(s.Value)
		}
	}
	rec := b.mevs("op/ plain/", w.record)
	rep := b.mevs("op/ plain/", w.replay)
	off := b.mevs("base/", []string{"replaycheck.RunOff"})
	tracedS, _ := b.m.robustTime(true, b.opNames("op/")...)
	plainS, _ := b.m.robustTime(true, b.opNames("plain/")...)
	traced, plain := float64(b.phaseOps["op/"])/tracedS, float64(b.phaseOps["plain/"])/plainS
	kev := c["core.events"] / 1e3
	return []figure{
		{"bytecode.build_ms", med("bytecode.Build"), "ms", "build + verify, per program"},
		{"bytecode.decode_ms", med("bytecode.DecodeProgram"), "ms", ""},
		{"bytecode.instrs", ratio(c["bytecode.instrs"], c["bytecode.programs"]), "count", "per program"},
		{"opt.optimize_ms", med("opt.Optimize"), "ms", ""},
		{"opt.certified_ratio", ratio(c["opt.certified"]+c["opt.session_certified"], c["opt.runs"]+c["opt.session_runs"]), "ratio", ""},
		{"opt.instrs_removed_pct", 100 * ratio(c["opt.instrs_before"]-c["opt.instrs_after"], c["opt.instrs_before"]), "%", ""},
		{"vm.new_ms", med("vm.New"), "ms", ""},
		{"vm.new_alloc_kb", ratio(vmNewKB, vmNewN), "KB", ""},
		{"vm.run_mevs.off", mevs("off"), "Mev/s", "Run only, wall"},
		{"vm.run_mevs.record", mevs("record"), "Mev/s", "Result.RunTime, wall"},
		{"vm.run_mevs.ring", mevs("ring"), "Mev/s", "Result.RunTime, wall"},
		{"vm.run_mevs.journal", mevs("journal"), "Mev/s", "Result.RunTime, wall"},
		{"vm.run_mevs.replay", mevs("replay"), "Mev/s", "Result.RunTime, wall"},
		{"vm.setup_share", 1 - ratio(c["vm.check_run_ms"], callMS), "ratio", "1 - RunTime / Record+Replay call time"},
		{"core.engine_new_ms", med("core.NewEngine"), "ms", ""},
		{"core.switches_per_kev", ratio(c["core.switches"], kev), "count/kev", ""},
		{"core.yield_points_per_kev", ratio(c["core.yield_points"], kev), "count/kev", ""},
		{"core.clock_reads_per_kev", ratio(c["core.clock_reads"], kev), "count/kev", ""},
		{"core.warmup_bytes_per_op", ratio(c["core.warmup_bytes"], c["core.runs"]), "B", ""},
		{"trace.seal_ms", med("trace.SegmentWriter.Close"), "ms", ""},
		{"trace.open_ms", med("trace.OpenJournal"), "ms", ""},
		{"trace.bytes_per_kev", ratio(c["trace.journal_bytes"], c["trace.journal_events"]/1e3), "B/kev", "segments + checkpoints + manifest"},
		{"trace.checkpoint_bytes_per_kev", ratio(c["trace.checkpoint_bytes"], c["trace.journal_events"]/1e3), "B/kev", ""},
		{"trace.segments_per_op", ratio(c["trace.segments"], c["trace.journals"]), "count", "per journal"},
		{"flightrec.evictions_per_kev", ratio(c["flightrec.evictions"], c["flightrec.events"]/1e3), "count/kev", ""},
		{"flightrec.window_bytes", ratio(c["flightrec.window_bytes"], c["flightrec.flushes"]), "B", "per flush"},
		{"flightrec.flush_ms", med("flightrec.FlushTo"), "ms", ""},
		{"replaycheck.record_ms", med("replaycheck.Record", "replaycheck.RecordSink"), "ms", ""},
		{"replaycheck.replay_ms", med("replaycheck.Replay", "replaycheck.ReplayJournalFrom", "replaycheck.ReplayJournal"), "ms", ""},
		{"replaycheck.compare_ms", med("replaycheck.CompareRuns"), "ms", ""},
		{"debugger.open_ms", med("debugger.OpenJournalSession"), "ms", ""},
		{"debugger.travel_ms", med("debugger.TravelTo"), "ms", ""},
		{"debugger.reseed_ratio", ratio(c["debugger.reseeds"]+c["sessions.reseeds"], c["debugger.travels"]+c["sessions.travels"]), "ratio", "durable re-seeds / travels"},
		{"debugger.step_mevs", ratio(c["debugger.step_events"]/1e3, stepMS), "Mev/s", "StepInstr under debugger control"},
		{"sessions.create_ms", med("sessions.Create"), "ms", ""},
		{"sessions.travel_ms", med("sessions.Travel"), "ms", ""},
		{"sessions.verify_ms", med("sessions.VerifyReplay"), "ms", ""},
		{"sessions.kill_ms", med("sessions.Kill"), "ms", ""},
		{"sessions.refusals", refusals, "count", "dv_sessions_rejected_total"},
		{"sessions.rss_per_session_mb", ratio(c["sessions.rss_mb"], c["sessions.rss_sessions"]), "MB", ""},
		{"rr.off_mevs", off, "Mev/s", "RunOff of the op's program, same preemption seed"},
		{"rr.record_over_off", ratio(off, rec), "ratio", "per-event cost of the op's record call / off"},
		{"rr.replay_over_off", ratio(off, rep), "ratio", "per-event cost of the op's replay call / off"},
		{"tracing.overhead_pct", 100 * (1 - ratio(traced, plain)), "%", fmt.Sprintf("traced %.3f vs plain %.3f ops/s", traced, plain)},
	}
}

// mevs is the million VM events per normalised CPU-second of the named
// calls in the given phases, over the whole run.
func (b *bench) mevs(phases string, calls []string) float64 {
	ev, ms := 0.0, 0.0
	for _, ph := range strings.Fields(phases) {
		for _, n := range prefixed(ph, calls) {
			for _, s := range b.m.samples[n] {
				ev += s.events
			}
			ms += sum(b.m.norm(n))
		}
	}
	return ratio(ev/1e3, ms)
}

// ---------------------------------------------------------------------------
// Output.

func (b *bench) printReport(name string, seed int64, figs []figure) {
	fmt.Printf("perfbench %s seed %d: %d ops, %d failed, %d kernel passes (median %.3f ms raw CPU, nominal %.3f)\n",
		name, seed, b.t.ops, b.t.failed, len(b.m.kernel), median(floats(b.m.kernel))/1e6, kernelNominalNS/1e6)
	for _, f := range figs {
		fmt.Printf("  %-32s %14.4f %-10s %s\n", f.name, f.value, f.unit, f.note)
	}
	fmt.Println("  per call (normalised ms; percentiles over one call kind only):")
	for _, n := range b.opNames("") {
		norm := b.m.norm(n)
		p90 := quantile(norm, 0.9)
		above := 0
		for _, v := range norm {
			if v > p90 {
				above++
			}
		}
		fmt.Printf("    %-42s n=%-6d p50 %9.4f  p90 %9.4f (%d above)  raw p50 %9.4f\n",
			n, len(norm), median(norm), p90, above, median(b.m.raw(n)))
	}
	if name == "debug-sessions" {
		step := sum(b.m.norm("op/sessions.Exec.step", "op/sessions.Exec.continue"))
		fmt.Printf("  step_mevs %.4f Mev/s (continue-to-breakpoint and step commands)\n", ratio(b.t.stepEvents/1e3, step))
	}
}

func (b *bench) writeSpans(name string, seed int64) error {
	path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", name, seed))
	data, err := json.Marshal(b.m.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	// Self time: a span's duration minus what its child spans cover.
	self := map[string]float64{}
	child := make([]int64, len(b.m.spans))
	for _, s := range b.m.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range b.m.spans {
		phase, call, _ := strings.Cut(s.Name, "/")
		layer, _, _ := strings.Cut(call, ".")
		if phase == "base" {
			layer = "off baseline"
		}
		self[layer] += float64(s.End-s.Start-child[i]) / 1e6 * b.m.runFactor()
	}
	var layers []string
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Printf("spans: %d written to %s; self time per layer (normalised ms per traced op):\n", len(b.m.spans), path)
	for _, l := range layers {
		fmt.Printf("    %-12s %10.4f\n", l, self[l]/float64(b.phaseOps["op/"]))
	}
	return nil
}

// procStatusMB reads a kB field of /proc/self/status, in MB.
func procStatusMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

func peakRSSMB() float64 { return procStatusMB("VmHWM") }

// rssMB is the resident set after a full collection.
func rssMB() float64 {
	runtime.GC()
	return procStatusMB("VmRSS")
}
