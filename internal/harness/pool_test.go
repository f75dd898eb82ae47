package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"stmdiag/internal/faultinj"
	"stmdiag/internal/obs"
)

func testPoolJobs() []int { return []int{1, 2, 4, 9} }

// The pool tests fan out the test-only "script" kind: trial i's value,
// verdict, error and panics are pure functions of (params, i, attempt), so
// the in-process executor and a subprocess worker (this test binary, via
// TestMain) compute the same outcome.
func init() { registerKind("script", scriptKind) }

// scriptParams scripts one fan-out of the "script" kind.
type scriptParams struct {
	// The value of trial i is i*Scale (Scale 0 means 1), i*i with Square,
	// or the string Prefix+i when Prefix is set.
	Scale  int    `json:"scale,omitempty"`
	Square bool   `json:"square,omitempty"`
	Prefix string `json:"prefix,omitempty"`
	// Trial i is accepted when i%Every == Offset; Every 0 accepts none.
	Every  int `json:"every,omitempty"`
	Offset int `json:"offset,omitempty"`
	// ErrAt returns errScript from that trial; PanicAt panics in it, on
	// its first PanicAttempts attempts (0: on every attempt).
	ErrAt         *int `json:"errAt,omitempty"`
	PanicAt       *int `json:"panicAt,omitempty"`
	PanicAttempts int  `json:"panicAttempts,omitempty"`
	// Counter, when set, is bumped on the trial sink by every attempt
	// that runs to completion.
	Counter string `json:"counter,omitempty"`
}

// acceptAll scripts trials that all return their index.
var acceptAll = scriptParams{Every: 1}

// at points at a trial index, for ErrAt and PanicAt.
func at(i int) *int { return &i }

var errScript = errors.New("script trial failed")

// scriptCalls counts in-process script trial bodies entered.
var scriptCalls atomic.Int64

func scriptKind(raw json.RawMessage, _ string, tc *Trial) (any, bool, error) {
	scriptCalls.Add(1)
	var P scriptParams
	if err := json.Unmarshal(raw, &P); err != nil {
		return nil, false, err
	}
	i := tc.Index
	if P.PanicAt != nil && *P.PanicAt == i && (P.PanicAttempts == 0 || tc.Attempt < P.PanicAttempts) {
		panic(fmt.Sprintf("trial %d attempt %d exploded", i, tc.Attempt))
	}
	if P.ErrAt != nil && *P.ErrAt == i {
		return nil, false, errScript
	}
	if P.Counter != "" {
		tc.Sink.Counter(P.Counter).Inc()
	}
	ok := P.Every > 0 && i%P.Every == P.Offset
	switch {
	case P.Prefix != "":
		return fmt.Sprintf("%s%d", P.Prefix, i), ok, nil
	case P.Square:
		return i * i, ok, nil
	case P.Scale != 0:
		return i * P.Scale, ok, nil
	}
	return i, ok, nil
}

// isScriptErr matches errScript locally (errors.Is) and across the
// subprocess wire, which carries only the message.
func isScriptErr(err error) bool {
	return errors.Is(err, errScript) || (err != nil && err.Error() == errScript.Error())
}

func TestTrialSeedProperties(t *testing.T) {
	if TrialSeed(0, "sort/fail", 3) != TrialSeed(0, "sort/fail", 3) {
		t.Error("TrialSeed not deterministic")
	}
	seen := make(map[int64]string)
	for _, base := range []int64{0, 1, 12345} {
		for _, stream := range []string{"sort/fail", "sort/succ", "FFT/conf2-fail"} {
			for trial := 0; trial < 64; trial++ {
				s := TrialSeed(base, stream, trial)
				if s < 0 {
					t.Fatalf("TrialSeed(%d, %q, %d) = %d < 0", base, stream, trial, s)
				}
				key := fmt.Sprintf("%d/%s/%d", base, stream, trial)
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed collision: %s and %s both map to %d", prev, key, s)
				}
				seen[s] = key
			}
		}
	}
}

// TestCollectJobsInvariance pins Collect's contract: accepted values,
// attempt counts and merged telemetry are identical for every worker count,
// and exactly the sequential prefix of trials is committed.
func TestCollectJobsInvariance(t *testing.T) {
	const (
		max  = 30
		need = 4
	)
	var wantVals []int
	wantAttempts := 0
	for i := 0; i < max && len(wantVals) < need; i++ {
		if i%3 == 0 {
			wantVals = append(wantVals, i*10)
		}
		wantAttempts = i + 1
	}
	for _, jobs := range testPoolJobs() {
		sink := &obs.Sink{Metrics: obs.NewRegistry()}
		p := NewPool(jobs, sink)
		out, attempts, err := CollectKind[int](p, max, need, "test", "script",
			scriptParams{Scale: 10, Every: 3, Counter: "test.trials"})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if attempts != wantAttempts {
			t.Errorf("jobs=%d: attempts = %d, want %d", jobs, attempts, wantAttempts)
		}
		if len(out) != len(wantVals) {
			t.Fatalf("jobs=%d: out = %v, want %v", jobs, out, wantVals)
		}
		for i := range out {
			if out[i] != wantVals[i] {
				t.Errorf("jobs=%d: out[%d] = %d, want %d", jobs, i, out[i], wantVals[i])
			}
		}
		snap := sink.Metrics.Snapshot()
		if got := snap.Counter("test.trials"); got != uint64(wantAttempts) {
			t.Errorf("jobs=%d: committed trial telemetry = %d, want exactly the sequential prefix %d",
				jobs, got, wantAttempts)
		}
		if got := snap.Counter("harness.pool.committed"); got != uint64(wantAttempts) {
			t.Errorf("jobs=%d: pool.committed = %d, want %d", jobs, got, wantAttempts)
		}
		executed := snap.Counter("harness.pool.trials")
		discarded := snap.Counter("harness.pool.discarded")
		if executed < uint64(wantAttempts) {
			t.Errorf("jobs=%d: pool.trials = %d < attempts %d", jobs, executed, wantAttempts)
		}
		if executed != uint64(wantAttempts)+discarded {
			t.Errorf("jobs=%d: trials(%d) != committed(%d) + discarded(%d)",
				jobs, executed, wantAttempts, discarded)
		}
		if jobs == 1 && discarded != 0 {
			t.Errorf("sequential path did speculative work: discarded = %d", discarded)
		}
	}
}

func TestCollectExhaustsBudget(t *testing.T) {
	for _, jobs := range testPoolJobs() {
		p := NewPool(jobs, nil)
		out, attempts, err := CollectKind[int](p, 6, 5, "test", "script", scriptParams{Every: 4})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if attempts != 6 {
			t.Errorf("jobs=%d: attempts = %d, want the full budget 6", jobs, attempts)
		}
		if len(out) != 2 || out[0] != 0 || out[1] != 4 {
			t.Errorf("jobs=%d: out = %v, want [0 4]", jobs, out)
		}
	}
}

func TestCollectErrorAborts(t *testing.T) {
	for _, jobs := range testPoolJobs() {
		p := NewPool(jobs, nil)
		out, attempts, err := CollectKind[int](p, 20, 3, "test", "script",
			scriptParams{Every: 20, Offset: 8, ErrAt: at(5)})
		if !errors.Is(err, errScript) {
			t.Fatalf("jobs=%d: err = %v, want %v", jobs, err, errScript)
		}
		if attempts != 6 {
			t.Errorf("jobs=%d: attempts = %d, want 6 (abort at trial 5)", jobs, attempts)
		}
		if len(out) != 0 {
			t.Errorf("jobs=%d: out = %v, want empty", jobs, out)
		}
	}
}

func TestCollectDegenerate(t *testing.T) {
	p := NewPool(4, nil)
	before := scriptCalls.Load()
	called := func() bool { return scriptCalls.Load() != before }
	if out, n, err := CollectKind[int](p, 0, 3, "test", "script", acceptAll); out != nil || n != 0 || err != nil || called() {
		t.Errorf("Collect(max=0) = %v, %d, %v (called=%v)", out, n, err, called())
	}
	if out, n, err := CollectKind[int](p, 3, 0, "test", "script", acceptAll); out != nil || n != 0 || err != nil || called() {
		t.Errorf("Collect(need=0) = %v, %d, %v (called=%v)", out, n, err, called())
	}
}

func TestMapOrderAndAbort(t *testing.T) {
	for _, jobs := range testPoolJobs() {
		p := NewPool(jobs, nil)
		out, err := MapKind[int](p, 7, "test", "script", scriptParams{Square: true, Every: 1})
		if err != nil || len(out) != 7 {
			t.Fatalf("jobs=%d: Map = %v, %v", jobs, out, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Errorf("jobs=%d: out[%d] = %d, want %d", jobs, i, v, i*i)
			}
		}
		_, err = MapKind[int](p, 7, "test", "script", scriptParams{Every: 1, ErrAt: at(3)})
		if !errors.Is(err, errScript) {
			t.Errorf("jobs=%d: Map error = %v, want %v", jobs, err, errScript)
		}
	}
}

func TestFirstIndexSemantics(t *testing.T) {
	for _, jobs := range testPoolJobs() {
		p := NewPool(jobs, nil)
		v, idx, err := FirstKind[string](p, 20, "test", "script",
			scriptParams{Prefix: "trial-", Every: 20, Offset: 7})
		if err != nil || idx != 7 || v != "trial-7" {
			t.Errorf("jobs=%d: First = %q, %d, %v; want trial-7, 7", jobs, v, idx, err)
		}
		_, idx, err = FirstKind[string](p, 5, "test", "script", scriptParams{Prefix: "trial-"})
		if err != nil || idx != -1 {
			t.Errorf("jobs=%d: First(no match) idx = %d, err = %v; want -1, nil", jobs, idx, err)
		}
	}
}

// TestCollectSurvivesPanickingTrial is the graceful-degradation regression
// test: a trial whose every attempt panics must not abort the run or
// swallow any other trial's result — it is simply rejected, and the
// degradation is visible in the merged telemetry, identically for every
// worker count.
func TestCollectSurvivesPanickingTrial(t *testing.T) {
	const (
		max    = 12
		need   = 11
		victim = 4
	)
	for _, jobs := range testPoolJobs() {
		sink := &obs.Sink{Metrics: obs.NewRegistry()}
		p := NewPool(jobs, sink)
		out, attempts, err := CollectKind[int](p, max, need, "test", "script",
			scriptParams{Every: 1, PanicAt: at(victim)})
		if err != nil {
			t.Fatalf("jobs=%d: err = %v, want nil (degraded trial is not fatal)", jobs, err)
		}
		if attempts != max {
			t.Errorf("jobs=%d: attempts = %d, want %d", jobs, attempts, max)
		}
		want := make([]int, 0, max-1)
		for i := 0; i < max; i++ {
			if i != victim {
				want = append(want, i)
			}
		}
		if len(out) != len(want) {
			t.Fatalf("jobs=%d: out = %v, want every trial but %d: %v", jobs, out, victim, want)
		}
		for i := range out {
			if out[i] != want[i] {
				t.Errorf("jobs=%d: out[%d] = %d, want %d", jobs, i, out[i], want[i])
			}
		}
		snap := sink.Metrics.Snapshot()
		wantAttempts := uint64(faultinj.DefaultRetries + 1)
		if got := snap.Counter("harness.pool.panics"); got != wantAttempts {
			t.Errorf("jobs=%d: pool.panics = %d, want %d", jobs, got, wantAttempts)
		}
		if got := snap.Counter("harness.pool.retries"); got != wantAttempts-1 {
			t.Errorf("jobs=%d: pool.retries = %d, want %d", jobs, got, wantAttempts-1)
		}
		if got := snap.Counter("harness.pool.degraded"); got != 1 {
			t.Errorf("jobs=%d: pool.degraded = %d, want 1", jobs, got)
		}
	}
}

// TestRetryRecoversTransientPanic pins the retry contract: an attempt-0
// panic that clears on the retry yields the trial's value as if nothing
// happened, costing one retry and zero degradations.
func TestRetryRecoversTransientPanic(t *testing.T) {
	for _, jobs := range testPoolJobs() {
		sink := &obs.Sink{Metrics: obs.NewRegistry()}
		p := NewPool(jobs, sink)
		out, _, err := CollectKind[int](p, 5, 5, "test", "script",
			scriptParams{Every: 1, PanicAt: at(2), PanicAttempts: 1})
		if err != nil || len(out) != 5 {
			t.Fatalf("jobs=%d: Collect = %v, %v; want all 5 trials", jobs, out, err)
		}
		for i, v := range out {
			if v != i {
				t.Errorf("jobs=%d: out[%d] = %d, want %d", jobs, i, v, i)
			}
		}
		snap := sink.Metrics.Snapshot()
		if got := snap.Counter("harness.pool.retries"); got != 1 {
			t.Errorf("jobs=%d: pool.retries = %d, want 1", jobs, got)
		}
		if got := snap.Counter("harness.pool.degraded"); got != 0 {
			t.Errorf("jobs=%d: pool.degraded = %d, want 0", jobs, got)
		}
	}
}

// TestMapDegradedIsHardError: Map callers index results positionally, so a
// degraded trial must surface as a *TrialError, not silently go missing.
func TestMapDegradedIsHardError(t *testing.T) {
	for _, jobs := range testPoolJobs() {
		p := NewPool(jobs, nil)
		_, err := MapKind[int](p, 6, "maptest", "script", scriptParams{Every: 1, PanicAt: at(3)})
		var te *TrialError
		if !errors.As(err, &te) {
			t.Fatalf("jobs=%d: Map error = %v, want *TrialError", jobs, err)
		}
		if te.Trial != 3 || te.Label != "maptest" || te.Attempts != faultinj.DefaultRetries+1 {
			t.Errorf("jobs=%d: TrialError = %+v, want trial 3 of maptest after %d attempts",
				jobs, te, faultinj.DefaultRetries+1)
		}
	}
}

// TestWithFaultsInjectedPanicDeterminism: armed with a panic layer, the
// pool schedules crashes from the derived plan — which trials degrade, the
// surviving values, and every faultinj/pool counter must be identical for
// all worker counts and across repeated runs.
func TestWithFaultsInjectedPanicDeterminism(t *testing.T) {
	spec, err := faultinj.ParseSpec("panic=0.3,retries=1,seed=99")
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		vals     []int
		attempts int
		metrics  string
	}
	var want *outcome
	for _, jobs := range testPoolJobs() {
		for rep := 0; rep < 2; rep++ {
			sink := &obs.Sink{Metrics: obs.NewRegistry()}
			p := NewPool(jobs, sink).WithFaults(spec, 7)
			out, attempts, err := CollectKind[int](p, 40, 40, "faulttest", "script", acceptAll)
			if err != nil {
				t.Fatalf("jobs=%d rep=%d: %v", jobs, rep, err)
			}
			snap := sink.Metrics.Snapshot()
			got := &outcome{vals: out, attempts: attempts}
			for _, c := range []string{
				"harness.pool.panics", "harness.pool.retries", "harness.pool.degraded",
				"faultinj.injected.panic", "faultinj.injected",
			} {
				got.metrics += fmt.Sprintf("%s=%d ", c, snap.Counter(c))
			}
			if want == nil {
				want = got
				if snap.Counter("harness.pool.panics") == 0 {
					t.Fatal("panic layer at rate 0.3 never fired over 40 trials")
				}
				if len(out) == 40 {
					t.Log("no trial degraded (retry budget absorbed every panic)")
				}
				continue
			}
			if got.attempts != want.attempts || got.metrics != want.metrics ||
				fmt.Sprint(got.vals) != fmt.Sprint(want.vals) {
				t.Errorf("jobs=%d rep=%d: outcome diverged\n got: %v %d %s\nwant: %v %d %s",
					jobs, rep, got.vals, got.attempts, got.metrics,
					want.vals, want.attempts, want.metrics)
			}
		}
	}
}

// TestCollectSubprocExecutor runs the acceptance, abort and retry cases
// once through worker processes (this test binary, via TestMain): the
// outcomes and the committed telemetry match the in-process pool's.
func TestCollectSubprocExecutor(t *testing.T) {
	sink := &obs.Sink{Metrics: obs.NewRegistry()}
	e, err := NewSubprocExecutor(SubprocOptions{Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	p := NewPool(2, sink).WithExecutor(e)

	out, attempts, err := CollectKind[int](p, 30, 4, "test", "script",
		scriptParams{Scale: 10, Every: 3, Counter: "test.trials"})
	if err != nil || attempts != 10 || fmt.Sprint(out) != "[0 30 60 90]" {
		t.Errorf("acceptance: Collect = %v, %d, %v; want [0 30 60 90], 10, nil", out, attempts, err)
	}
	out, attempts, err = CollectKind[int](p, 20, 3, "test", "script",
		scriptParams{Every: 20, Offset: 8, ErrAt: at(5)})
	if !isScriptErr(err) || attempts != 6 || len(out) != 0 {
		t.Errorf("abort: Collect = %v, %d, %v; want [], 6, %v", out, attempts, err, errScript)
	}
	out, _, err = CollectKind[int](p, 5, 5, "test", "script",
		scriptParams{Every: 1, PanicAt: at(2), PanicAttempts: 1})
	if err != nil || fmt.Sprint(out) != "[0 1 2 3 4]" {
		t.Errorf("retry: Collect = %v, %v; want all 5 trials", out, err)
	}

	snap := sink.Metrics.Snapshot()
	for name, want := range map[string]uint64{
		"test.trials":           10,
		"harness.pool.retries":  1,
		"harness.pool.degraded": 0,
	} {
		if got := snap.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if snap.Counter("harness.executor.spawns") == 0 {
		t.Error("subprocess run spawned no workers")
	}
}
