//go:build goldens

package replaycheck_test

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"

	"dejavu/internal/replaycheck"
	"dejavu/internal/workloads"
)

// TestWriteGoldens regenerates testdata/goldens.json. It runs only under
// the goldens build tag and refuses to write unless every run replays to
// its recording, under Run and under Step alike.
func TestWriteGoldens(t *testing.T) {
	var g replaycheck.Goldens
	for _, w := range workloads.Names() {
		for _, seed := range goldenSeeds {
			r, err := goldenRun(w, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w, seed, err)
			}
			g.Runs = append(g.Runs, r)
		}
	}
	for _, c := range journalCases() {
		j, err := goldenJournal(c)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		g.Journals = append(g.Journals, j)
	}
	f, err := goldenFlight()
	if err != nil {
		t.Fatalf("flight: %v", err)
	}
	g.Journals = append(g.Journals, f)
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	// One line per leaf object keeps the file reviewable as a diff.
	b = leafObject.ReplaceAllFunc(b, func(m []byte) []byte {
		return indentRun.ReplaceAll(m, []byte(" "))
	})
	if err := os.WriteFile("testdata/goldens.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

var (
	leafObject = regexp.MustCompile(`\{[^{}\[\]]*\}`)
	indentRun  = regexp.MustCompile(`\n\s*`)
)
