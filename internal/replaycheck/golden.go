package replaycheck

// The pinned behaviour contract. testdata/goldens.json fixes, for the
// workload corpus × seeds, what record and replay must produce — trace
// bytes, output, event and switch counts, record and replay digests and
// the FinalState rendering — plus the segment and checkpoint layout of
// segmented journals and of a flight-recorder flush. The interpreter is
// checked against these hashes rather than against a second
// implementation of the instruction set.
//
// Regenerate after an intentional behaviour change with
//
//	go test -tags goldens -run TestWriteGoldens ./internal/replaycheck

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// GoldensFile is the corpus location relative to the repository root.
const GoldensFile = "internal/replaycheck/testdata/goldens.json"

// Goldens is the decoded corpus.
type Goldens struct {
	Runs     []RunGolden     `json:"runs"`
	Journals []JournalGolden `json:"journals"`
}

// RunGolden pins one record run and the replay of its trace.
type RunGolden struct {
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	TraceSHA256  string `json:"trace_sha256"`
	TraceLen     int    `json:"trace_len"`
	OutputSHA256 string `json:"output_sha256"`
	Events       uint64 `json:"events"`
	Switches     uint64 `json:"switches"`
	RecordDigest string `json:"record_digest"`
	ReplayDigest string `json:"replay_digest"`
	FinalState   string `json:"final_state_sha256"`
}

// JournalGolden pins the layout of one segmented journal: where its
// segments were cut, and the checkpoint that seeds each cut.
type JournalGolden struct {
	Name        string             `json:"name"`
	Origin      uint64             `json:"origin,omitempty"`
	Complete    bool               `json:"complete"`
	Segments    []SegmentGolden    `json:"segments"`
	Checkpoints []CheckpointGolden `json:"checkpoints"`
}

// SegmentGolden is one sealed segment's entry counts.
type SegmentGolden struct {
	Events   int `json:"events"`
	Switches int `json:"switches"`
}

// CheckpointGolden is one checkpoint: its position and a hash of the
// encoded VM snapshot it carries.
type CheckpointGolden struct {
	Index    int    `json:"index"`
	VMEvents uint64 `json:"vm_events"`
	NYP      uint64 `json:"nyp"`
	SHA256   string `json:"sha256"`
}

// SHA256Hex returns the hex sha256 of b.
func SHA256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// DigestHex renders a digest value the way goldens store it.
func DigestHex(sum uint64) string { return fmt.Sprintf("%016x", sum) }

// FingerprintRun renders a record run and the digest its trace replayed
// to as a RunGolden.
func FingerprintRun(workload string, seed int64, rec *Result, replayDigest uint64) RunGolden {
	return RunGolden{
		Workload:     workload,
		Seed:         seed,
		TraceSHA256:  SHA256Hex(rec.Trace),
		TraceLen:     len(rec.Trace),
		OutputSHA256: SHA256Hex(rec.Output),
		Events:       rec.Events,
		Switches:     rec.Digest.Switches(),
		RecordDigest: DigestHex(rec.Digest.Sum()),
		ReplayDigest: DigestHex(replayDigest),
		FinalState:   SHA256Hex([]byte(strings.Join(rec.VM.FinalState(), "\n"))),
	}
}

// ReadGoldens loads a corpus written by the goldens generator.
func ReadGoldens(path string) (*Goldens, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g Goldens
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("replaycheck: %s: %w", path, err)
	}
	return &g, nil
}
