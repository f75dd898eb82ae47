package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"stmdiag/internal/obs"
)

// federatedRun drives one MapKind sweep with full telemetry armed and
// returns the three federated artifacts the tentpole promises are
// jobs- and executor-invariant: the deterministic metrics snapshot, the
// merged Chrome trace bytes, and the flight-ring dump.
func federatedRun(t *testing.T, jobs int, subprocess bool) (metrics, trace []byte, flight string) {
	t.Helper()
	sink := &obs.Sink{
		Metrics: obs.NewRegistry(),
		Trace:   obs.NewTracer(),
		Flight:  obs.NewFlightRecorder(obs.DefaultFlightCap),
	}
	p := NewPool(jobs, sink).WithRunID(RunID(7, "federation-test"))
	if subprocess {
		e, err := NewSubprocExecutor(SubprocOptions{Sink: sink})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		p = p.WithExecutor(e)
	}
	if _, err := MapKind[uint64](p, 6, "fed/ov", "mean-cycles", ovParams()); err != nil {
		t.Fatal(err)
	}
	det, err := sink.Metrics.Snapshot().Deterministic().JSON()
	if err != nil {
		t.Fatal(err)
	}
	tj, err := sink.Trace.ChromeJSON()
	if err != nil {
		t.Fatal(err)
	}
	var fb strings.Builder
	for _, ev := range sink.Flight.Snapshot() {
		fb.WriteString(ev.String())
		fb.WriteByte('\n')
	}
	return det, tj, fb.String()
}

// TestFederatedTelemetryJobsInvariance is the tentpole acceptance: the
// coordinator's merged telemetry — deterministic metric families, trace
// bytes, flight ring — is byte-identical for every -jobs value and for
// in-process vs subprocess execution, because worker deltas fold in at
// commit time in trial order.
func TestFederatedTelemetryJobsInvariance(t *testing.T) {
	var wantMetrics, wantTrace []byte
	var wantFlight, ref string
	for _, subprocess := range []bool{false, true} {
		for _, jobs := range []int{1, 2, 4, 9} {
			name := fmt.Sprintf("executor=%v jobs=%d", map[bool]string{false: "inproc", true: "subprocess"}[subprocess], jobs)
			metrics, trace, flight := federatedRun(t, jobs, subprocess)
			if wantMetrics == nil {
				wantMetrics, wantTrace, wantFlight, ref = metrics, trace, flight, name
				continue
			}
			if !bytes.Equal(metrics, wantMetrics) {
				t.Errorf("%s: deterministic metrics diverge from %s:\n%s\nvs\n%s", name, ref, metrics, wantMetrics)
			}
			if !bytes.Equal(trace, wantTrace) {
				t.Errorf("%s: trace bytes diverge from %s (%d vs %d bytes)", name, ref, len(trace), len(wantTrace))
			}
			if flight != wantFlight {
				t.Errorf("%s: flight ring diverges from %s:\n%s\nvs\n%s", name, ref, flight, wantFlight)
			}
		}
	}
}

// TestWireCompactorMergeNeutral pins the wire-delta compaction: a worker
// session suppresses zero-valued families and repeated track names after
// first ship, and the merged registry is identical to merging the full
// deltas — compaction changes bytes on the wire, never the folded sink.
func TestWireCompactorMergeNeutral(t *testing.T) {
	params, err := json.Marshal(ovParams())
	if err != nil {
		t.Fatal(err)
	}
	mk := func(i int) *TrialRequest {
		return &TrialRequest{
			Stream: "comp/ov", Index: i, Kind: "mean-cycles", Params: params,
			Metrics: true, Flight: true, Trace: true, Profiling: true,
		}
	}
	full := obs.NewRegistry()
	full.Merge(*executeWire(mk(0), nil).Metrics)
	full.Merge(*executeWire(mk(1), nil).Metrics)

	comp := newWireCompactor()
	c0, c1 := executeWire(mk(0), nil), executeWire(mk(1), nil)
	nfull := len(c1.Metrics.Counters)
	comp.compact(c0)
	comp.compact(c1)
	if len(c1.Metrics.Counters) >= nfull {
		t.Errorf("second response still carries %d counters, want < %d (zeros suppressed)", len(c1.Metrics.Counters), nfull)
	}
	for name, v := range c1.Metrics.Counters {
		if v == 0 {
			t.Errorf("second response still ships zero counter %q", name)
		}
	}
	for name, h := range c1.Metrics.Histograms {
		if h.Bounds != nil {
			t.Errorf("second response reships bounds for histogram %q", name)
		}
	}
	compacted := obs.NewRegistry()
	compacted.Merge(*c0.Metrics)
	compacted.Merge(*c1.Metrics)

	want, err := full.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := compacted.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("compacted merge diverges from full merge:\n%s\nvs\n%s", got, want)
	}
}

// TestTrialResponseCarriesContext pins the correlation stamp: a wire
// response names the run, stream, trial and the worker that executed it.
func TestTrialResponseCarriesContext(t *testing.T) {
	sink := &obs.Sink{Metrics: obs.NewRegistry()}
	e, err := NewSubprocExecutor(SubprocOptions{Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	params, err := json.Marshal(ovParams())
	if err != nil {
		t.Fatal(err)
	}
	req := &TrialRequest{Stream: "ctx/ov", Index: 3, Kind: "mean-cycles", RunID: RunID(7, "ctx-test"), Params: params}
	resp, err := e.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Ctx == nil {
		t.Fatal("response carries no correlation context")
	}
	if resp.Ctx.RunID != req.RunID || resp.Ctx.Stream != "ctx/ov" || resp.Ctx.Trial != 3 {
		t.Errorf("context = %+v, want run %x stream ctx/ov trial 3", resp.Ctx, req.RunID)
	}
	if resp.Ctx.Worker < 0 {
		t.Errorf("subprocess response reports worker %d, want >= 0", resp.Ctx.Worker)
	}
	if got := sink.Metrics.Snapshot().Counter(fmt.Sprintf("harness.executor.worker%d.trials", resp.Ctx.Worker)); got == 0 {
		t.Errorf("no per-worker trial counter for worker %d", resp.Ctx.Worker)
	}
}

// TestWorkerStderrTailAttached pins the crash-forensics satellite: when a
// worker dies, the executor error carries the tail of the worker's stderr
// and the flight ring records the crash with the same detail.
func TestWorkerStderrTailAttached(t *testing.T) {
	sink := &obs.Sink{
		Metrics: obs.NewRegistry(),
		Flight:  obs.NewFlightRecorder(obs.DefaultFlightCap),
	}
	e, err := NewSubprocExecutor(SubprocOptions{
		Bin: "/bin/sh", Args: []string{"-c", "echo boom-forensic-tail >&2; exit 1"},
		Retries: 1, Backoff: time.Millisecond, Sink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	_, err = e.Run(&TrialRequest{Stream: "s", Kind: "mean-cycles"})
	var ee *ExecutorError
	if err == nil || !errors.As(err, &ee) {
		t.Fatalf("Run = %v, want *ExecutorError", err)
	}
	if !strings.Contains(ee.StderrTail, "boom-forensic-tail") {
		t.Errorf("StderrTail = %q, want the worker's stderr", ee.StderrTail)
	}
	if !strings.Contains(ee.Error(), "boom-forensic-tail") {
		t.Errorf("Error() = %q does not render the stderr tail", ee.Error())
	}
	crashes := 0
	for _, ev := range ee.Events {
		if ev.Kind != obs.FlightExecutorCrash {
			t.Errorf("executor error carries non-crash flight event %q", ev.Kind)
		}
		if !strings.Contains(ev.Detail, "boom-forensic-tail") {
			t.Errorf("crash event detail %q lacks the stderr tail", ev.Detail)
		}
		crashes++
	}
	if crashes != 2 {
		t.Errorf("crash events = %d, want 2 (initial + one retry)", crashes)
	}
	found := false
	for _, ev := range sink.Flight.Snapshot() {
		if ev.Kind == obs.FlightExecutorCrash && strings.Contains(ev.Detail, "boom-forensic-tail") {
			found = true
		}
	}
	if !found {
		t.Error("sink flight ring has no executor-crash event with the stderr tail")
	}
}
