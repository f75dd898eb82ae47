package harness

import (
	"strings"
	"testing"

	"stmdiag/internal/synth"
)

func corpusTestConfig() Config {
	return Config{
		FailRuns:     4,
		SuccRuns:     4,
		CBIRuns:      10,
		OverheadRuns: 1,
		MaxAttempts:  200,
		Seed:         0,
		Jobs:         1,
	}
}

// TestCorpusProgramShortDistance: at propagation distance 2 the root cause
// sits well inside the 16-entry record, so every bug class must be
// diagnosed with the ground-truth root cause ranked by every ranker — the
// anchor the Table 9 distance sweep degrades from.
func TestCorpusProgramShortDistance(t *testing.T) {
	cfg := corpusTestConfig().withDefaults()
	for _, class := range synth.BugClasses() {
		out, err := corpusProgram(class, 2, 0, cfg, nil)
		if err != nil {
			t.Fatalf("%s: %v", class, err)
		}
		if !out.Diagnosed {
			t.Fatalf("%s: profile collection starved at distance 2", class)
		}
		for r, rank := range out.Ranks {
			if rank < 1 || rank > 5 {
				t.Errorf("%s: ranker %d ranked the root cause %d, want top-5", class, r, rank)
			}
		}
	}
}

// TestCorpusProgramLongDistanceEvicts: at distance 20 the root cause has
// been pushed out of the 16-entry record before the failure site fires, so
// no ranker can place it — rank 0 (absent) is the only honest answer.
func TestCorpusProgramLongDistanceEvicts(t *testing.T) {
	cfg := corpusTestConfig().withDefaults()
	for _, class := range synth.BugClasses() {
		out, err := corpusProgram(class, 20, 0, cfg, nil)
		if err != nil {
			t.Fatalf("%s: %v", class, err)
		}
		if !out.Diagnosed {
			t.Fatalf("%s: profile collection starved at distance 20", class)
		}
		for r, rank := range out.Ranks {
			if rank != 0 {
				t.Errorf("%s: ranker %d ranked the evicted root cause %d, want 0", class, r, rank)
			}
		}
	}
}

// TestTable9RespectsPerCell: the -corpus-n knob scales the corpus and the
// header reports the real program count.
func TestTable9RespectsPerCell(t *testing.T) {
	cfg := corpusTestConfig()
	cfg.CorpusPerCell = 1
	out, err := Table9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := len(synth.BugClasses()) * len(corpusDistances)
	if !strings.Contains(out, "bug corpus (16 programs)") {
		t.Errorf("header does not report %d programs:\n%s", want, out)
	}
	if got := strings.Count(out, "/ 1 |"); got != want {
		t.Errorf("rendered %d single-program cells, want %d", got, want)
	}
}
