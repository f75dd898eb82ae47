package harness

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"stmdiag/internal/apps"
	"stmdiag/internal/artifact"
	"stmdiag/internal/obs"
)

// TestMain lets the test binary double as a subprocess-executor worker:
// the executor spawns os.Executable() with the WorkerEnv marker set, and
// the marked process runs the protocol loop instead of the test suite —
// exactly how the real binaries behave via cliobs.MaybeTrialWorker.
func TestMain(m *testing.M) {
	if os.Getenv(WorkerEnv) != "" {
		if err := WorkerMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "trial worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// ovParams is the cheap portable trial the executor tests fan out: one
// uninstrumented run of the Table 3 micro-benchmark per trial.
func ovParams() meanCyclesParams {
	return meanCyclesParams{App: apps.RWWMicro.Name, Seed: 7}
}

func testWireSink() *obs.Sink { return &obs.Sink{Metrics: obs.NewRegistry()} }

// TestExecutorEquivalence is the tentpole acceptance at the API level:
// portable trial results are identical across executor {inproc,subprocess}
// × jobs {1,4} × {fresh, store-backed, resumed-from-store}.
func TestExecutorEquivalence(t *testing.T) {
	const n = 6
	dir := t.TempDir()
	variants := []struct {
		name string
		run  func(t *testing.T) []uint64
	}{
		{"inproc-jobs1", func(t *testing.T) []uint64 {
			out, err := MapKind[uint64](NewPool(1, nil), n, "eq/ov", "mean-cycles", ovParams())
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
		{"inproc-jobs4", func(t *testing.T) []uint64 {
			out, err := MapKind[uint64](NewPool(4, nil), n, "eq/ov", "mean-cycles", ovParams())
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
		{"subprocess-jobs1", func(t *testing.T) []uint64 { return subprocMap(t, 1, n) }},
		{"subprocess-jobs4", func(t *testing.T) []uint64 { return subprocMap(t, 4, n) }},
		{"store-fresh", func(t *testing.T) []uint64 {
			// Populates dir for the resumed variant below.
			store, err := artifact.Open(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			out, err := MapKind[uint64](NewPool(4, nil).WithArtifacts(store), n, "eq/ov", "mean-cycles", ovParams())
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
		{"store-resumed", func(t *testing.T) []uint64 {
			sink := testWireSink()
			store, err := artifact.Open(dir, sink)
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			out, err := MapKind[uint64](NewPool(2, sink).WithArtifacts(store), n, "eq/ov", "mean-cycles", ovParams())
			if err != nil {
				t.Fatal(err)
			}
			if hits := sink.Metrics.Snapshot().Counter("artifact.hits"); hits != n {
				t.Errorf("resumed run hit the store %d times, want %d (no re-execution)", hits, n)
			}
			return out
		}},
	}
	var want []uint64
	for _, v := range variants {
		got := v.run(t)
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: results diverge: %v vs %v", v.name, got, want)
		}
	}
}

func subprocMap(t *testing.T, jobs, n int) []uint64 {
	t.Helper()
	sink := testWireSink()
	e, err := NewSubprocExecutor(SubprocOptions{Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	out, err := MapKind[uint64](NewPool(jobs, sink).WithExecutor(e), n, "eq/ov", "mean-cycles", ovParams())
	if err != nil {
		t.Fatal(err)
	}
	if spawns := sink.Metrics.Snapshot().Counter("harness.executor.spawns"); spawns == 0 {
		t.Error("subprocess run spawned no workers")
	}
	return out
}

// TestKillResumeEquivalence is the durability acceptance: populate a store,
// truncate its manifest at several record boundaries (the deterministic
// stand-in for SIGKILL), and re-run — the results are identical and only
// the missing trials re-execute. Each resumed run fully repairs the
// manifest, so the next, shorter truncation starts from a complete store.
func TestKillResumeEquivalence(t *testing.T) {
	const n = 8
	dir := t.TempDir()
	open := func(sink *obs.Sink) *artifact.Store {
		s, err := artifact.Open(dir, sink)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	store := open(nil)
	manifest := store.ManifestPath()
	want, err := MapKind[uint64](NewPool(3, nil).WithArtifacts(store), n, "kr/ov", "mean-cycles", ovParams())
	if err != nil {
		t.Fatal(err)
	}
	store.Close()

	for _, keep := range []int{5, 2, 0} {
		if err := artifact.TruncateJournal(manifest, keep); err != nil {
			t.Fatal(err)
		}
		sink := testWireSink()
		store := open(sink)
		got, err := MapKind[uint64](NewPool(3, sink).WithArtifacts(store), n, "kr/ov", "mean-cycles", ovParams())
		if err != nil {
			t.Fatalf("keep=%d: %v", keep, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("keep=%d: resumed results diverge: %v vs %v", keep, got, want)
		}
		snap := sink.Metrics.Snapshot()
		if hits := snap.Counter("artifact.hits"); hits != uint64(keep) {
			t.Errorf("keep=%d: store hits = %d, want %d", keep, hits, keep)
		}
		if puts := snap.Counter("artifact.puts"); puts != uint64(n-keep) {
			t.Errorf("keep=%d: fresh puts = %d, want %d", keep, puts, n-keep)
		}
		store.Close()
	}
}

// TestCorruptArtifactReexecuted damages every stored blob: resume must
// detect the mismatches, quarantine, re-execute, and still produce the
// identical results — and the fresh puts repair the store, so a final run
// is all verified hits.
func TestCorruptArtifactReexecuted(t *testing.T) {
	const n = 4
	dir := t.TempDir()
	store, err := artifact.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MapKind[uint64](NewPool(2, nil).WithArtifacts(store), n, "ca/ov", "mean-cycles", ovParams())
	if err != nil {
		t.Fatal(err)
	}
	store.Close()

	// Flip a byte in every blob. Identical trial results share one
	// content-addressed blob, so there may be fewer blobs than trials.
	blobs := 0
	err = filepath.Walk(filepath.Join(dir, "blobs"), func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		data[len(data)/2] ^= 0xff
		blobs++
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if blobs == 0 {
		t.Fatal("no blobs written by the primer run")
	}

	sink := testWireSink()
	store2, err := artifact.Open(dir, sink)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MapKind[uint64](NewPool(2, sink).WithArtifacts(store2), n, "ca/ov", "mean-cycles", ovParams())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("re-executed results diverge: %v vs %v", got, want)
	}
	snap := sink.Metrics.Snapshot()
	if re := snap.Counter("artifact.reexecuted"); re == 0 {
		t.Error("no trial re-executed after blob corruption")
	}
	if q := snap.Counter("artifact.quarantined"); q == 0 {
		t.Error("no blobs quarantined")
	}
	store2.Close()

	// The fresh puts repaired the store: a third run is all hits.
	sink3 := testWireSink()
	store3, err := artifact.Open(dir, sink3)
	if err != nil {
		t.Fatal(err)
	}
	defer store3.Close()
	if _, err := MapKind[uint64](NewPool(1, sink3).WithArtifacts(store3), n, "ca/ov", "mean-cycles", ovParams()); err != nil {
		t.Fatal(err)
	}
	if hits := sink3.Metrics.Snapshot().Counter("artifact.hits"); hits != n {
		t.Errorf("post-repair hits = %d, want %d", hits, n)
	}
}

// TestSubprocWorkerCrashRecovery spawns a worker that dies on its first
// checkout (a sentinel-guarded shell wrapper) and becomes the real worker
// on respawn: the executor must retry on a fresh worker and the trial must
// succeed without surfacing a failure.
func TestSubprocWorkerCrashRecovery(t *testing.T) {
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	sentinel := filepath.Join(t.TempDir(), "crashed-once")
	script := fmt.Sprintf("if [ ! -e %q ]; then : > %q; exit 1; fi; exec %q", sentinel, sentinel, self)
	sink := testWireSink()
	e, err := NewSubprocExecutor(SubprocOptions{
		Bin: "/bin/sh", Args: []string{"-c", script},
		Backoff: time.Millisecond, Sink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	out, err := MapKind[uint64](NewPool(1, sink).WithExecutor(e), 1, "crash/ov", "mean-cycles", ovParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("out = %v", out)
	}
	snap := sink.Metrics.Snapshot()
	if r := snap.Counter("harness.executor.respawns"); r == 0 {
		t.Error("no respawn recorded after worker crash")
	}
	if f := snap.Counter("harness.executor.failures"); f != 0 {
		t.Errorf("executor reported %d failures for a recoverable crash", f)
	}
}

// TestSubprocExecutorFailureDegrades pins the give-up path: a worker binary
// that always dies exhausts the retry budget, Run errors, and the pool maps
// the trial onto the degraded/insufficient-evidence path instead of
// crashing the run.
func TestSubprocExecutorFailureDegrades(t *testing.T) {
	sink := testWireSink()
	e, err := NewSubprocExecutor(SubprocOptions{
		Bin: "/bin/false", Retries: 1, Backoff: time.Millisecond, Sink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Direct executor contract.
	if _, err := e.Run(&TrialRequest{Stream: "s", Kind: "mean-cycles"}); err == nil {
		t.Fatal("Run succeeded against a worker that always dies")
	}
	if f := sink.Metrics.Snapshot().Counter("harness.executor.failures"); f != 1 {
		t.Errorf("failures = %d, want 1", f)
	}

	// Pool-level: MapKind surfaces a *TrialError (degraded), not a panic.
	_, err = MapKind[uint64](NewPool(1, sink).WithExecutor(e), 1, "dead/ov", "mean-cycles", ovParams())
	var te *TrialError
	if err == nil || !errors.As(err, &te) {
		t.Fatalf("MapKind error = %v, want *TrialError", err)
	}
	if ft := sink.Metrics.Snapshot().Counter("harness.executor.failed_trials"); ft == 0 {
		t.Error("failed_trials not counted")
	}
}

// TestSubprocTimeoutKillsWorker pins the hang path: a worker that never
// answers costs one bounded attempt per retry, and the hung process is
// killed rather than awaited.
func TestSubprocTimeoutKillsWorker(t *testing.T) {
	sink := testWireSink()
	e, err := NewSubprocExecutor(SubprocOptions{
		// exec: the kill must land on sleep itself, not a sh parent that
		// would orphan it holding the inherited pipes.
		Bin: "/bin/sh", Args: []string{"-c", "exec sleep 600"},
		Timeout: 100 * time.Millisecond, Retries: 1, Backoff: time.Millisecond,
		Sink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	start := time.Now()
	_, err = e.Run(&TrialRequest{Stream: "s", Kind: "mean-cycles"})
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("Run = %v, want timeout error", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("timeout path took %v; worker not killed promptly", elapsed)
	}
	if got := sink.Metrics.Snapshot().Counter("harness.executor.timeouts"); got != 2 {
		t.Errorf("timeouts = %d, want 2 (initial + one retry)", got)
	}
}

// TestUnknownKindIsError pins the version-skew guard: a request naming a
// kind this binary does not register must come back as a trial error, not
// a panic or a silent zero.
func TestUnknownKindIsError(t *testing.T) {
	resp := executeWire(&TrialRequest{Stream: "s", Kind: "no-such-kind"}, nil)
	if resp.Err == "" || !strings.Contains(resp.Err, "unknown trial kind") {
		t.Fatalf("response = %+v, want unknown-kind error", resp)
	}
}

// TestRequestKeyIdentity pins what is — and is not — part of a trial's
// durable identity: telemetry arming must not change the key (a -v resume
// still hits), while the fault spec and seed must (Table 8 reuses stream
// labels across four injection specs).
func TestRequestKeyIdentity(t *testing.T) {
	base := func() *TrialRequest {
		return &TrialRequest{Stream: "s", Index: 3, Kind: "mean-cycles"}
	}
	k := requestKey(base())
	armed := base()
	armed.Metrics, armed.Flight, armed.Verbosity = true, true, 2
	if requestKey(armed) != k {
		t.Error("telemetry arming changed the trial key; resumes would miss")
	}
	seeded := base()
	seeded.FaultSeed = 99
	if requestKey(seeded) == k {
		t.Error("fault seed did not change the trial key")
	}
	other := base()
	other.Index = 4
	if requestKey(other) == k {
		t.Error("trial index did not change the trial key")
	}
}
