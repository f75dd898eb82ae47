package harness

import (
	"fmt"
	"testing"

	"stmdiag/internal/apps"
)

// pinAdaptive fails unless res matches want field for field, so a change
// in how adaptive runs execute (which trials derive from a recording, how
// the active branch set reaches each trial) cannot silently move a result.
func pinAdaptive(t *testing.T, app string, res *AdaptiveResult, want string) {
	t.Helper()
	got := fmt.Sprintf("found=%v iters=%d runs=%d frac=%.4f",
		res.Found, res.Iterations, res.RunsUsed, res.EvaluatedFraction)
	if got != want {
		t.Errorf("%s: %s, want %s", app, got, want)
	}
}

func TestAdaptiveFindsRootCause(t *testing.T) {
	// sort's root-cause branch executes (with contrasting outcomes) in both
	// run classes, so the adaptive expansion converges once the layer
	// containing it is instrumented; dense per-layer sampling means far
	// fewer runs than vanilla CBI's 1000+1000.
	a := apps.ByName("sort")
	res, err := RunAdaptive(a, 1.0, 10, 40, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sort adaptive: %+v", res)
	pinAdaptive(t, "sort", res, "found=true iters=4 runs=80 frac=0.5556")
	if !res.Found {
		t.Fatal("adaptive CBI did not converge on sort")
	}
	if res.RunsUsed >= 2000 {
		t.Errorf("adaptive used %d runs, should undercut vanilla CBI's 2000", res.RunsUsed)
	}
	if res.EvaluatedFraction <= 0 || res.EvaluatedFraction > 1 {
		t.Errorf("EvaluatedFraction = %v", res.EvaluatedFraction)
	}
}

func TestAdaptiveIterationGrowth(t *testing.T) {
	// ln's root cause sits many branch layers before the failure site, so
	// adaptive needs more expansion iterations than sort — the
	// iteration-count pathology paper §8 describes.
	sortRes, err := RunAdaptive(apps.ByName("sort"), 1.0, 10, 40, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	lnRes, err := RunAdaptive(apps.ByName("ln"), 1.0, 10, 40, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sort: %d iters (%.0f%% predicates); ln: %d iters (%.0f%% predicates)",
		sortRes.Iterations, 100*sortRes.EvaluatedFraction,
		lnRes.Iterations, 100*lnRes.EvaluatedFraction)
	pinAdaptive(t, "sort", sortRes, "found=true iters=4 runs=80 frac=0.5556")
	pinAdaptive(t, "ln", lnRes, "found=true iters=14 runs=280 frac=0.5952")
	if !lnRes.Found {
		t.Fatal("adaptive CBI did not converge on ln")
	}
	if lnRes.Iterations <= sortRes.Iterations {
		t.Errorf("ln (deep root cause) took %d iters, sort took %d; want ln > sort",
			lnRes.Iterations, sortRes.Iterations)
	}
}

func TestAdaptiveCannotFixContextOnePredicates(t *testing.T) {
	// Apache2's failing region executes only in failing runs; no amount of
	// adaptive expansion gives its predicates Increase > 0.
	res, err := RunAdaptive(apps.ByName("Apache2"), 1.0, 6, 12, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pinAdaptive(t, "Apache2", res, "found=false iters=12 runs=144 frac=0.6364")
	if res.Found {
		t.Error("adaptive CBI claimed the Apache2 root cause; Context=1 predicates cannot be ranked")
	}
	if res.Iterations != 12 {
		t.Errorf("iterations = %d, want the full budget", res.Iterations)
	}
}
