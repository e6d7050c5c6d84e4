package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"

	"dejavu/internal/bytecode"
	"dejavu/internal/cli"
	"dejavu/internal/core"
	"dejavu/internal/debugger"
	"dejavu/internal/faults/memfs"
	"dejavu/internal/flightrec"
	"dejavu/internal/obs"
	"dejavu/internal/opt"
	"dejavu/internal/replaycheck"
	"dejavu/internal/sessions"
	"dejavu/internal/trace"
	"dejavu/internal/vm"
)

// totals are the end-to-end counts of the op loop (never the traced-only
// extras).
type totals struct {
	ops, failed  int
	traceBytes   float64 // bytes the user stores for the recordings
	tracedEvents float64 // events those bytes cover
	stepEvents   float64
	firstFailure string
}

// bench holds one workload run: the meter, the seeded stream every choice
// comes from, the scratch directory inside the checkout, and the counters
// the per-layer figures are computed from.
type bench struct {
	m       *meter
	rng     *rand.Rand
	dir     string
	phase   string // sample-name prefix: "setup/", "op/" or "plain/" (loop), "base/", "sweep/"
	t       totals
	layer   map[string]float64 // per-layer counters, all phases
	pool    []*program
	mgr     *sessions.Manager
	reg     *obs.Registry
	live    []*liveSession
	nextPrg int
	images  string

	phaseOps map[string]int // ops per phase ("op/" traced, "plain/" untraced rounds)

	// tamper, when set, corrupts each recorded trace before its replay:
	// the self-test's way to prove a damaged trace fails the op.
	tamper func(trace []byte)
}

// noteEvents credits the events a timed call covered to its sample.
func (b *bench) noteEvents(call string, events uint64) {
	b.m.addEvents(b.phase+call, float64(events))
}

func (b *bench) time(name string, fn func() error) error {
	return b.m.time(b.phase+name, fn)
}

func (b *bench) count(name string, v float64) { b.layer[name] += v }

// fail records a failed op.
func (b *bench) fail(p *program, err error) {
	b.t.failed++
	if b.t.firstFailure == "" {
		name := "?"
		if p != nil {
			name = p.name
		}
		b.t.firstFailure = fmt.Sprintf("%s: %v", name, err)
	}
}

// checkOutput compares a run's output with the Go reference.
func checkOutput(p *program, out []byte) error {
	if p.want != "" && string(out) != p.want {
		return fmt.Errorf("output %q, reference %q", out, p.want)
	}
	return nil
}

// ---------------------------------------------------------------------------
// capture-long: record a long service run into a flight-recorder ring,
// flush the retained window, and replay it from its origin.

func (b *bench) capture(p *program, seed int64) error {
	var ring *flightrec.Ring
	var rec *replaycheck.Result
	err := b.time("replaycheck.RecordSink", func() error {
		var err error
		if ring, err = flightrec.NewRing(vm.ProgramHash(p.prog), flightrec.Options{}); err != nil {
			return err
		}
		rec, err = replaycheck.RecordSink(p.prog, ring, replaycheck.Options{Seed: seed})
		return err
	})
	if err != nil {
		return err
	}
	if rec.RunErr != nil {
		return rec.RunErr
	}
	if err := checkOutput(p, rec.Output); err != nil {
		return err
	}
	b.noteRecord(rec, "ring", "replaycheck.RecordSink")
	b.count("flightrec.evictions", float64(ring.Evicted()))
	b.count("flightrec.events", float64(rec.Events))
	fs := memfs.New()
	var info *flightrec.FlushInfo
	if err := b.time("flightrec.FlushTo", func() error {
		info, err = ring.FlushTo(fs, "bench")
		return err
	}); err != nil {
		return err
	}
	b.count("flightrec.flushes", 1)
	b.count("flightrec.window_bytes", float64(info.Bytes))
	var rep *replaycheck.Result
	var si *replaycheck.SeedInfo
	if err := b.time("replaycheck.ReplayJournalFrom", func() error {
		rep, si, err = replaycheck.ReplayJournalFrom(p.prog, fs, info.Origin, replaycheck.Options{})
		return err
	}); err != nil {
		return err
	}
	if rep.RunErr != nil {
		return rep.RunErr
	}
	if err := sameEnd(rec, rep); err != nil {
		return fmt.Errorf("window replay: %w", err)
	}
	b.noteReplay(rep, rep.Events-si.VMEvents, "replaycheck.ReplayJournalFrom")
	if b.phase == "op/" {
		b.t.traceBytes += float64(ring.Stats().TotalBytes)
		b.t.tracedEvents += float64(rec.Events)
	}
	return nil
}

// sameEnd checks that a replay seeded mid-run ended exactly where the
// recording did: same event count, output, final heap image and
// per-thread logical clocks. (The digests differ by construction: the
// replay's covers only the window.)
func sameEnd(rec, rep *replaycheck.Result) error {
	if rec.Events != rep.Events {
		return fmt.Errorf("events %d, recorded %d", rep.Events, rec.Events)
	}
	if !bytes.Equal(rec.Output, rep.Output) {
		return fmt.Errorf("output %q, recorded %q", rep.Output, rec.Output)
	}
	rh, ru := replaycheck.HeapDigest(rec.VM)
	ph, pu := replaycheck.HeapDigest(rep.VM)
	if rh != ph || ru != pu {
		return fmt.Errorf("final heap %x/%d, recorded %x/%d", ph, pu, rh, ru)
	}
	rt, pt := rec.VM.Scheduler().Threads(), rep.VM.Scheduler().Threads()
	if len(rt) != len(pt) {
		return fmt.Errorf("%d threads, recorded %d", len(pt), len(rt))
	}
	for i := range rt {
		if rt[i].YieldCount != pt[i].YieldCount {
			return fmt.Errorf("thread %d clock %d, recorded %d", i, pt[i].YieldCount, rt[i].YieldCount)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// short-checks: CI-style record, replay, compare with in-memory traces.

func (b *bench) check(p *program, seed int64) error {
	var rec, rep *replaycheck.Result
	err := b.time("replaycheck.Record", func() error {
		var err error
		rec, err = replaycheck.Record(p.prog, replaycheck.Options{Seed: seed})
		return err
	})
	if err != nil {
		return err
	}
	if rec.RunErr != nil {
		return rec.RunErr
	}
	if err := checkOutput(p, rec.Output); err != nil {
		return err
	}
	b.noteRecord(rec, "record", "replaycheck.Record")
	if b.tamper != nil {
		b.tamper(rec.Trace)
	}
	if err := b.time("replaycheck.Replay", func() error {
		rep, err = replaycheck.Replay(p.prog, rec.Trace, replaycheck.Options{})
		return err
	}); err != nil {
		return err
	}
	if rep.RunErr != nil {
		return rep.RunErr
	}
	b.noteReplay(rep, rep.Events, "replaycheck.Replay")
	b.count("vm.check_run_ms", wallMS(rec.RunTime+rep.RunTime))
	// Replay of a halted program never reads the trace's end marker, so
	// the trace is also walked end to end (untimed).
	if _, err := trace.Summarize(rec.Trace); err != nil {
		return fmt.Errorf("recorded trace: %w", err)
	}
	if err := b.time("replaycheck.CompareRuns", func() error { return replaycheck.CompareRuns(rec, rep) }); err != nil {
		return err
	}
	if b.phase == "op/" {
		b.t.traceBytes += float64(len(rec.Trace))
		b.t.tracedEvents += float64(rec.Events)
	}
	return nil
}

// noteRecord and noteReplay collect the counters the program exposes on
// its results: engine statistics and the Run-only wall time.
func (b *bench) noteRecord(r *replaycheck.Result, mode, call string) {
	b.noteEvents(call, r.Events)
	b.count("core.events", float64(r.Events))
	b.count("core.switches", float64(r.EngStats.Switches))
	b.count("core.yield_points", float64(r.EngStats.YieldPoints))
	b.count("core.clock_reads", float64(r.EngStats.ClockReads))
	b.count("core.warmup_bytes", float64(r.EngStats.WarmupBytes))
	b.count("core.runs", 1)
	b.count("vm.run_events."+mode, float64(r.Events))
	b.count("vm.run_ms."+mode, wallMS(r.RunTime))
}

func (b *bench) noteReplay(r *replaycheck.Result, events uint64, call string) {
	b.noteEvents(call, events)
	b.count("vm.run_events.replay", float64(events))
	b.count("vm.run_ms.replay", wallMS(r.RunTime))
}

// ---------------------------------------------------------------------------
// debug-sessions: one sessions.Manager with a working set of live
// sessions, each recorded from a .dva image and then served commands.

const workingSet = 16

type liveSession struct {
	id      string
	p       *program
	events  uint64
	digest  string
	reseeds uint64 // durable re-seeds seen so far
	key     string // sample key: the program, and whether it was optimized
}

// rotateEvents sizes journal segments (in logged trace entries, which is
// what the journal rotates on) so each family's recording gets about
// four segments, each sealed with a durable checkpoint.
// Programs of other shapes (the registry's short ones) rotate every 16.
var rotateEvents = map[string]int{"server": 1280, "prodcons": 56, "bank": 20, "philosophers": 72}

func rotation(p *program) int {
	family, _, _ := strings.Cut(p.name, "-")
	if n, ok := rotateEvents[family]; ok {
		return n
	}
	return 16
}

func (b *bench) create(p *program, seed int64, optimize bool) (*liveSession, error) {
	key := p.name
	if optimize {
		key += "+opt"
	}
	b.m.key = key
	var info *sessions.Info
	err := b.time("sessions.Create", func() error {
		var err error
		info, err = b.mgr.Create(sessions.CreateRequest{
			Program: p.image, Seed: seed, RotateEvents: rotation(p), Optimize: optimize,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	if optimize {
		b.count("opt.session_runs", 1)
		if info.OptVerdict == "certified" {
			b.count("opt.session_certified", 1)
		}
	}
	ls := &liveSession{id: info.ID, p: p, events: info.Events, digest: info.Digest, key: key}
	bytes := b.noteJournal(filepath.Join(b.dir, "data", "sessions", info.ID, "journal"), info.Events)
	b.noteEvents("sessions.Create", info.Events)
	if b.phase == "op/" {
		b.t.traceBytes += float64(bytes)
		b.t.tracedEvents += float64(info.Events)
	}
	return ls, nil
}

// noteJournal counts what a journal directory stores (segments,
// checkpoints and the manifest) and returns the total bytes.
func (b *bench) noteJournal(dir string, events uint64) float64 {
	ents, _ := os.ReadDir(dir)
	total := 0.0
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			continue
		}
		total += float64(fi.Size())
		switch {
		case strings.HasPrefix(e.Name(), "ckpt-"):
			b.count("trace.checkpoint_bytes", float64(fi.Size()))
		case strings.HasPrefix(e.Name(), "seg-"):
			b.count("trace.segments", 1)
		}
	}
	b.count("trace.journal_bytes", total)
	b.count("trace.journals", 1)
	b.count("trace.journal_events", float64(events))
	return total
}

func (b *bench) travel(ls *liveSession, target uint64) error {
	b.m.key = ls.key
	var info *sessions.Info
	err := b.time("sessions.Travel", func() error {
		var err error
		info, err = b.mgr.Travel(ls.id, target)
		return err
	})
	if err != nil {
		return err
	}
	if err := landed(target, info.Position); err != nil {
		return err
	}
	b.count("sessions.travels", 1)
	b.count("sessions.reseeds", float64(info.Reseeds-ls.reseeds))
	ls.reseeds = info.Reseeds
	return nil
}

// maxCallbackEvents bounds how far past its target a travel or a step may
// stop. The debugger stops on top-level instruction boundaries, and a step
// into a native that calls back into bytecode runs the whole callback, so
// a target inside a callback lands on the boundary after it (the
// registry's events program does this).
const maxCallbackEvents = 256

func landed(target, at uint64) error {
	if at < target || at > target+maxCallbackEvents {
		return fmt.Errorf("travel to event %d landed at %d", target, at)
	}
	return nil
}

// stepCmd runs one debugger command through the session's Exec: with bp
// set, continue to a breakpoint (bounded by limit instructions); without,
// step limit instructions.
func (b *bench) stepCmd(ls *liveSession, limit int, bp bool) error {
	b.m.key = ls.key
	h, err := b.mgr.AttachSession(ls.id)
	if err != nil {
		return err
	}
	defer h.Detach()
	var method *bytecode.Method
	var pc int
	if bp {
		ms := ls.p.prog.Methods
		method = ms[b.rng.Intn(len(ms))]
		pc = b.rng.Intn(len(method.Code))
	}
	name := "sessions.Exec.step"
	if bp {
		name = "sessions.Exec.continue"
	}
	var stepped uint64
	err = b.time(name, func() error {
		return h.Exec(func(cur func() *debugger.Debugger, _ func(uint64) error) error {
			d := cur()
			n := 0
			if bp {
				var err error
				if n, err = d.BreakAt(method.FullName(), pc); err != nil {
					return err
				}
				defer d.ClearBreakpoint(n)
			}
			before := d.VM.Events()
			why, err := d.StepInstr(limit)
			if err != nil {
				return err
			}
			stepped = d.VM.Events() - before
			switch why {
			case debugger.StopStep:
				if err := landed(before+uint64(limit), d.VM.Events()); err != nil {
					return fmt.Errorf("step %d: %w", limit, err)
				}
			case debugger.StopBreakpoint:
				if _, mid, at, ok := d.VM.CurrentSite(); !ok || mid != method.ID || at != pc {
					return fmt.Errorf("stopped at method %d pc %d, breakpoint at %d/%d", mid, at, method.ID, pc)
				}
			case debugger.StopHalted:
				if d.VM.Events() != ls.events {
					return fmt.Errorf("halted at event %d of %d", d.VM.Events(), ls.events)
				}
			}
			return nil
		})
	})
	b.count("debugger.step_events", float64(stepped))
	if b.phase == "op/" {
		b.t.stepEvents += float64(stepped)
	}
	return err
}

func (b *bench) verify(ls *liveSession) error {
	b.m.key = ls.key
	var digest string
	err := b.time("sessions.VerifyReplay", func() error {
		var err error
		_, digest, err = b.mgr.VerifyReplay(ls.id)
		return err
	})
	if err != nil {
		return err
	}
	if digest != ls.digest {
		return fmt.Errorf("replay digest %s, recorded %s", digest, ls.digest)
	}
	b.noteEvents("sessions.VerifyReplay", ls.events)
	return nil
}

// retire checks a session's recorded output against the Go reference
// (untimed: travel to the end and read the VM's output), then kills it.
func (b *bench) retire(ls *liveSession) error {
	b.m.key = ls.key
	h, err := b.mgr.AttachSession(ls.id)
	if err != nil {
		return err
	}
	var out []byte
	err = h.Exec(func(cur func() *debugger.Debugger, travel func(uint64) error) error {
		if err := travel(ls.events); err != nil {
			return err
		}
		out = append(out, cur().VM.Output()...)
		return nil
	})
	h.Detach()
	if err == nil {
		err = checkOutput(ls.p, out)
	}
	kerr := b.time("sessions.Kill", func() error { return b.mgr.Kill(ls.id, true) })
	return errors.Join(err, kerr)
}

// ---------------------------------------------------------------------------
// Traced-run extras, outside the op loop's spans and totals.

// baseline runs the rr-style uninstrumented baseline of an op's program
// with the same preemption seed, right after the op.
func (b *bench) baseline(p *program, seed int64) {
	defer b.setPhase(b.phase)()
	b.phase = "base/"
	var res *replaycheck.Result
	err := b.time("replaycheck.RunOff", func() error {
		var err error
		res, err = replaycheck.RunOff(p.prog, replaycheck.Options{Seed: seed})
		return err
	})
	if err == nil {
		err = res.RunErr
	}
	if err == nil {
		b.noteEvents("replaycheck.RunOff", res.Events)
		err = checkOutput(p, res.Output)
	}
	if err != nil {
		b.fail(p, fmt.Errorf("off baseline: %w", err))
	}
}

func (b *bench) setPhase(old string) func() { return func() { b.phase = old } }

// probe times the per-program layers the op path calls only from inside
// the program: decode, optimize, engine and VM construction, and a bare
// off-mode Run.
func (b *bench) probe(p *program, seed int64) error {
	if err := b.time("bytecode.DecodeProgram", func() error {
		bytecode.DecodeProgram(p.prog, true)
		return nil
	}); err != nil {
		return err
	}
	var res *opt.Result
	if err := b.time("opt.Optimize", func() error {
		var err error
		res, err = cli.OptimizeProgram(p.prog, nil)
		return err
	}); err != nil {
		return err
	}
	b.count("opt.runs", 1)
	if res.Certified {
		b.count("opt.certified", 1)
	}
	b.count("opt.instrs_before", float64(res.InstrsBefore))
	b.count("opt.instrs_after", float64(res.InstrsAfter))

	ecfg := core.DefaultConfig(core.ModeOff)
	ecfg.Time = &core.FakeTime{Base: 1_000_000, Step: 3}
	ecfg.Preempt = core.NewSeededPreemptor(seed, 5, 60)
	var eng *core.Engine
	if err := b.time("core.NewEngine", func() error {
		var err error
		eng, err = core.NewEngine(ecfg)
		return err
	}); err != nil {
		return err
	}
	var m *vm.VM
	if err := b.time("vm.New", func() error {
		var err error
		m, err = vm.New(p.prog, vm.Config{Engine: eng, IdleSleep: 1})
		return err
	}); err != nil {
		return err
	}
	start := time.Now()
	if err := m.Run(); err != nil {
		return err
	}
	b.count("vm.run_events.off", float64(m.Events()))
	b.count("vm.run_ms.off", wallMS(time.Since(start)))
	return checkOutput(p, m.Output())
}

// journalDebug records p into an on-disk segmented journal, seals it,
// opens it in the debugger, travels and steps, then replays it whole: the
// journal and debugger layers called directly rather than through a
// session.
func (b *bench) journalDebug(p *program, seed int64) error {
	dir, err := os.MkdirTemp(b.dir, "journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fs, err := trace.NewDirFS(dir)
	if err != nil {
		return err
	}
	sw, err := trace.NewSegmentWriter(fs, vm.ProgramHash(p.prog), trace.SegmentOptions{RotateEvents: rotation(p)})
	if err != nil {
		return err
	}
	var rec *replaycheck.Result
	if err := b.time("replaycheck.RecordSink", func() error {
		rec, err = replaycheck.RecordSink(p.prog, sw, replaycheck.Options{Seed: seed})
		return err
	}); err != nil {
		return err
	}
	if rec.RunErr != nil {
		return rec.RunErr
	}
	b.noteRecord(rec, "journal", "replaycheck.RecordSink")
	if err := b.time("trace.SegmentWriter.Close", sw.Close); err != nil {
		return err
	}
	b.noteJournal(dir, rec.Events)
	if err := b.time("trace.OpenJournal", func() error {
		_, err := trace.OpenJournal(fs)
		return err
	}); err != nil {
		return err
	}
	var js *debugger.JournalSession
	if err := b.time("debugger.OpenJournalSession", func() error {
		js, err = debugger.OpenJournalSession(p.prog, fs)
		return err
	}); err != nil {
		return err
	}
	travels := 0
	for i := 0; i < 4; i++ {
		target := uint64(b.rng.Int63n(int64(rec.Events)))
		if err := b.time("debugger.TravelTo", func() error { return js.TravelTo(target) }); err != nil {
			return err
		}
		travels++
		if err := landed(target, js.D.VM.Events()); err != nil {
			return err
		}
	}
	b.count("debugger.travels", float64(travels))
	b.count("debugger.reseeds", float64(js.Reseeds()))
	before := js.D.VM.Events()
	if err := b.time("debugger.StepInstr", func() error {
		_, err := js.D.StepInstr(2000)
		return err
	}); err != nil {
		return err
	}
	b.count("debugger.step_events", float64(js.D.VM.Events()-before))
	var rep *replaycheck.Result
	if err := b.time("replaycheck.ReplayJournal", func() error {
		rep, _, err = replaycheck.ReplayJournal(p.prog, fs, replaycheck.Options{})
		return err
	}); err != nil {
		return err
	}
	if rep.RunErr != nil {
		return rep.RunErr
	}
	b.noteReplay(rep, rep.Events, "replaycheck.ReplayJournal")
	return replaycheck.CompareRuns(rec, rep)
}

// sweep runs, on the workload's own first programs, every kind of op the
// workload does not run itself, so each layer has figures on each
// workload. Only the traced run sweeps.
func (b *bench) sweep(kind string) error {
	defer b.setPhase(b.phase)()
	b.phase = "sweep/"
	for i, p := range b.pool[:2] {
		seed := int64(1000 + i)
		if err := b.probe(p, seed); err != nil {
			return fmt.Errorf("%s probe: %w", p.name, err)
		}
		if err := b.journalDebug(p, seed); err != nil {
			return fmt.Errorf("%s journal: %w", p.name, err)
		}
		if kind != "capture-long" {
			if err := b.capture(p, seed); err != nil {
				return fmt.Errorf("%s capture: %w", p.name, err)
			}
		}
		if kind != "short-checks" {
			if err := b.check(p, seed); err != nil {
				return fmt.Errorf("%s check: %w", p.name, err)
			}
		}
		if kind != "debug-sessions" {
			if err := b.sessionCycle(p, seed); err != nil {
				return fmt.Errorf("%s session: %w", p.name, err)
			}
		}
	}
	return nil
}

// sessionCycle drives one session through its life on a manager of its
// own: create, travel, step, verify, retire.
func (b *bench) sessionCycle(p *program, seed int64) error {
	if b.mgr == nil {
		if err := b.openManager(); err != nil {
			return err
		}
	}
	if p.image == "" {
		if err := b.writeImage(p); err != nil {
			return err
		}
	}
	// One session is small against the process: return every free page
	// to the OS before each reading, or collector slack swamps it.
	debug.FreeOSMemory()
	rss0 := procStatusMB("VmRSS")
	ls, err := b.create(p, seed, true)
	if err != nil {
		return err
	}
	debug.FreeOSMemory()
	b.count("sessions.rss_mb", procStatusMB("VmRSS")-rss0)
	b.count("sessions.rss_sessions", 1)
	for i := 0; i < 2; i++ {
		if err := b.travel(ls, uint64(b.rng.Int63n(int64(ls.events)))); err != nil {
			return err
		}
	}
	if err := b.stepCmd(ls, 2000, false); err != nil {
		return err
	}
	if err := b.verify(ls); err != nil {
		return err
	}
	return b.retire(ls)
}

func (b *bench) openManager() error {
	root := filepath.Join(b.dir, "data")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	var err error
	b.mgr, err = sessions.NewManager(sessions.Config{DataRoot: root, Obs: b.reg})
	return err
}

func (b *bench) writeImage(p *program) error {
	if err := os.MkdirAll(b.images, 0o755); err != nil {
		return err
	}
	p.image = filepath.Join(b.images, p.name+".dva")
	return os.WriteFile(p.image, bytecode.EncodeImage(p.prog), 0o644)
}
