package replaycheck_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"dejavu/internal/bytecode"
	"dejavu/internal/core"
	"dejavu/internal/faults/memfs"
	"dejavu/internal/flightrec"
	"dejavu/internal/replaycheck"
	"dejavu/internal/trace"
	"dejavu/internal/vm"
	"dejavu/internal/workloads"
)

// goldenSeeds are the preemption seeds every corpus workload is pinned at.
var goldenSeeds = []int64{1, 4, 9}

// goldenJournalHeap keeps the journal goldens' checkpoints small: every
// checkpoint is a full heap image, and the per-instruction rotation case
// writes one per executed instruction. No corpus workload collects at
// this size, so the layouts match the default-heap runs.
const goldenJournalHeap = 1 << 14

// journalCase is one pinned journal recording.
type journalCase struct {
	name     string
	workload string
	o        replaycheck.Options
}

// journalCases lists the pinned journal recordings: every workload at
// RotateEvents 1 (a rotation after every logged entry) and 64, plus the
// small workloads at a RotateBytes below a chunk header, where rotation is
// due again the moment a segment opens and so falls on every instruction
// boundary, including the one inside a fused pair.
func journalCases() []journalCase {
	var cs []journalCase
	for _, w := range workloads.Names() {
		for _, every := range []int{1, 64} {
			o := optsFor(w, 1)
			o.HeapBytes = goldenJournalHeap
			o.RotateEvents = every
			cs = append(cs, journalCase{fmt.Sprintf("%s/rotate-events-%d", w, every), w, o})
		}
	}
	for _, w := range []string{"events", "fig1ab", "fig1cd", "sleepy", "sumlines"} {
		o := optsFor(w, 1)
		o.HeapBytes = goldenJournalHeap
		o.RotateBytes = 1
		cs = append(cs, journalCase{w + "/rotate-bytes-1", w, o})
	}
	return cs
}

// stepReplay replays tr by driving VM.Step, the debugger's loop, and
// returns the digest, event count and output.
func stepReplay(prog *bytecode.Program, tr []byte) (*replaycheck.Digest, uint64, []byte, error) {
	ecfg := core.DefaultConfig(core.ModeReplay)
	ecfg.ProgHash = vm.ProgramHash(prog)
	ecfg.TraceIn = tr
	ecfg.Time = &core.FakeTime{Base: -1 << 40}
	eng, err := core.NewEngine(ecfg)
	if err != nil {
		return nil, 0, nil, err
	}
	d := replaycheck.NewDigest()
	m, err := vm.New(prog, vm.Config{Engine: eng, Observer: d, IdleSleep: 1, MaxEvents: 50_000_000})
	if err != nil {
		return nil, 0, nil, err
	}
	for {
		done, err := m.Step()
		if err != nil {
			return nil, 0, nil, err
		}
		if done {
			return d, m.Events(), m.Output(), nil
		}
	}
}

// goldenRun records workload at seed, replays the trace through Run and
// through Step, and returns the run's fingerprint. The two replays must
// agree with each other and with the recording.
func goldenRun(workload string, seed int64) (replaycheck.RunGolden, error) {
	prog := workloads.Registry[workload]
	o := optsFor(workload, seed)
	rec, err := replaycheck.Record(prog(), o)
	if err != nil || rec.RunErr != nil {
		return replaycheck.RunGolden{}, fmt.Errorf("record: %v %v", err, rec.RunErr)
	}
	rep, err := replaycheck.Replay(prog(), rec.Trace, o)
	if err != nil || rep.RunErr != nil {
		return replaycheck.RunGolden{}, fmt.Errorf("replay: %v %v", err, rep.RunErr)
	}
	if err := replaycheck.CompareRuns(rec, rep); err != nil {
		return replaycheck.RunGolden{}, err
	}
	sd, sev, sout, err := stepReplay(prog(), rec.Trace)
	if err != nil {
		return replaycheck.RunGolden{}, fmt.Errorf("step replay: %v", err)
	}
	if sd.Sum() != rep.Digest.Sum() || sev != rep.Events || !bytes.Equal(sout, rep.Output) {
		return replaycheck.RunGolden{}, fmt.Errorf("step-driven replay diverged from Run: digest %016x vs %016x, %d vs %d events",
			sd.Sum(), rep.Digest.Sum(), sev, rep.Events)
	}
	return replaycheck.FingerprintRun(workload, seed, rec, rep.Digest.Sum()), nil
}

// goldenJournal records c into a fresh in-memory journal and reads back
// its layout.
func goldenJournal(c journalCase) (replaycheck.JournalGolden, error) {
	fs := memfs.New()
	res, err := replaycheck.RecordJournal(workloads.Registry[c.workload](), fs, c.o)
	if err != nil || res.RunErr != nil {
		return replaycheck.JournalGolden{}, fmt.Errorf("record journal: %v %v", err, res.RunErr)
	}
	return journalLayout(c.name, fs)
}

// goldenFlight records server through a flight ring small enough to
// rotate and evict, flushes the window and reads back its layout.
func goldenFlight() (replaycheck.JournalGolden, error) {
	prog := workloads.Registry["server"]()
	ring, err := flightrec.NewRing(vm.ProgramHash(prog), flightrec.Options{WindowEvents: 32})
	if err != nil {
		return replaycheck.JournalGolden{}, err
	}
	o := optsFor("server", 1)
	o.HeapBytes = goldenJournalHeap
	res, err := replaycheck.RecordSink(prog, ring, o)
	if err != nil || res.RunErr != nil {
		return replaycheck.JournalGolden{}, fmt.Errorf("record ring: %v %v", err, res.RunErr)
	}
	fs := memfs.New()
	if _, err := ring.FlushTo(fs, "golden"); err != nil {
		return replaycheck.JournalGolden{}, err
	}
	return journalLayout("server/flight-window-32", fs)
}

// readGoldens loads the corpus and checks it covers what the generator
// writes.
func readGoldens(t *testing.T) *replaycheck.Goldens {
	t.Helper()
	g, err := replaycheck.ReadGoldens("testdata/goldens.json")
	if err != nil {
		t.Fatal(err)
	}
	if want := len(workloads.Names()) * len(goldenSeeds); len(g.Runs) != want {
		t.Fatalf("corpus has %d runs, want %d (workloads x seeds); regenerate the goldens", len(g.Runs), want)
	}
	if want := len(journalCases()) + 1; len(g.Journals) != want {
		t.Fatalf("corpus has %d journals, want %d; regenerate the goldens", len(g.Journals), want)
	}
	return g
}

// TestCrossDispatchDifferential pins the two ways an instruction is
// dispatched — Run's token stream with fused pairs, and Step's one
// unfused instruction at a time — to the golden corpus: for every
// workload and seed, the recording must reproduce its pinned trace bytes,
// output, events, switches, digest and final state, and its trace must
// replay to the pinned digest under both.
func TestCrossDispatchDifferential(t *testing.T) {
	for _, want := range readGoldens(t).Runs {
		want := want
		t.Run(fmt.Sprintf("%s/seed%d", want.Workload, want.Seed), func(t *testing.T) {
			got, err := goldenRun(want.Workload, want.Seed)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("run diverged from its golden:\ngot  %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestGoldenJournals pins where journals and a flight-ring flush cut
// their segments and what each checkpoint holds.
func TestGoldenJournals(t *testing.T) {
	g := readGoldens(t)
	cases := journalCases()
	for i, c := range cases {
		c, want := c, g.Journals[i]
		t.Run(c.name, func(t *testing.T) {
			got, err := goldenJournal(c)
			if err != nil {
				t.Fatal(err)
			}
			checkLayout(t, got, want)
		})
	}
	t.Run("server/flight-window-32", func(t *testing.T) {
		got, err := goldenFlight()
		if err != nil {
			t.Fatal(err)
		}
		checkLayout(t, got, g.Journals[len(cases)])
	})
}

// journalLayout reads the journal stored on fs into its golden form.
func journalLayout(name string, fs trace.FS) (replaycheck.JournalGolden, error) {
	j, err := trace.OpenJournal(fs)
	if err != nil {
		return replaycheck.JournalGolden{}, err
	}
	g := replaycheck.JournalGolden{Name: name, Origin: j.Origin(), Complete: j.Complete()}
	for _, s := range j.Manifest.Segments {
		g.Segments = append(g.Segments, replaycheck.SegmentGolden{Events: s.Events, Switches: s.Switches})
	}
	for _, info := range j.Manifest.Checkpoints {
		ck, err := j.LoadCheckpoint(info)
		if err != nil {
			return replaycheck.JournalGolden{}, err
		}
		g.Checkpoints = append(g.Checkpoints, replaycheck.CheckpointGolden{
			Index: ck.Index, VMEvents: ck.VMEvents, NYP: ck.BoundaryNYP, SHA256: replaycheck.SHA256Hex(ck.State),
		})
	}
	return g, nil
}

func checkLayout(t *testing.T, got, want replaycheck.JournalGolden) {
	t.Helper()
	if got.Name != want.Name || got.Origin != want.Origin || got.Complete != want.Complete {
		t.Fatalf("journal header: got %s origin %d complete %v, want %s origin %d complete %v",
			got.Name, got.Origin, got.Complete, want.Name, want.Origin, want.Complete)
	}
	if !reflect.DeepEqual(got.Segments, want.Segments) {
		t.Fatalf("segment layout diverged:\ngot  %v\nwant %v", got.Segments, want.Segments)
	}
	if len(got.Checkpoints) != len(want.Checkpoints) {
		t.Fatalf("%d checkpoints, want %d", len(got.Checkpoints), len(want.Checkpoints))
	}
	for i := range want.Checkpoints {
		if got.Checkpoints[i] != want.Checkpoints[i] {
			t.Fatalf("checkpoint %d diverged:\ngot  %+v\nwant %+v", i, got.Checkpoints[i], want.Checkpoints[i])
		}
	}
}
