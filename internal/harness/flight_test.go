package harness

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"stmdiag/internal/faultinj"
	"stmdiag/internal/obs"
)

// TestFlightJobsInvariance: the pipeline flight-recorder ring is filled at
// commit time in trial order, so its contents — and the first degraded
// trial's attached tail — must be identical for every -jobs value (ISSUE 5
// satellite f). A high panic rate with a single retry guarantees some
// trials panic twice in a row and degrade.
func TestFlightJobsInvariance(t *testing.T) {
	spec, err := faultinj.ParseSpec("panic=0.6,retries=1,seed=99")
	if err != nil {
		t.Fatal(err)
	}
	var wantRing, wantTail []obs.FlightEvent
	for _, jobs := range testPoolJobs() {
		sink := &obs.Sink{
			Metrics: obs.NewRegistry(),
			Flight:  obs.NewFlightRecorder(obs.DefaultFlightCap),
		}
		p := NewPool(jobs, sink).WithFaults(spec, 7)
		if _, _, err := CollectKind[int](p, 40, 40, "flighttest", "script", acceptAll); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		ring := sink.Flight.Snapshot()
		deg := p.FirstDegraded()
		if deg == nil {
			t.Fatalf("jobs=%d: no degraded trial despite retries=0 at rate 0.3", jobs)
		}
		if len(deg.Events) == 0 {
			t.Fatalf("jobs=%d: degraded trial carries no flight events", jobs)
		}
		if wantRing == nil {
			wantRing, wantTail = ring, deg.Events
			kinds := map[string]bool{}
			for _, ev := range ring {
				kinds[ev.Kind] = true
			}
			for _, k := range []string{obs.FlightTrialStart, obs.FlightTrialCommit, obs.FlightFault, obs.FlightTrialDegraded} {
				if !kinds[k] {
					t.Errorf("pipeline ring has no %q event: %v", k, kinds)
				}
			}
			continue
		}
		if !reflect.DeepEqual(ring, wantRing) {
			t.Errorf("jobs=%d: pipeline flight ring diverged from jobs=%d\n got %d events, want %d",
				jobs, testPoolJobs()[0], len(ring), len(wantRing))
		}
		if !reflect.DeepEqual(deg.Events, wantTail) {
			t.Errorf("jobs=%d: degraded-trial flight tail diverged:\n got: %v\nwant: %v",
				jobs, deg.Events, wantTail)
		}
	}
}

// TestFlightTrialErrorTail: a degraded Map trial surfaces as a *TrialError
// whose Events hold the per-trial ring read at the moment of degradation —
// the software mirror of reading the LBR inside the segfault handler.
func TestFlightTrialErrorTail(t *testing.T) {
	var want []obs.FlightEvent
	for _, jobs := range testPoolJobs() {
		sink := &obs.Sink{
			Metrics: obs.NewRegistry(),
			Flight:  obs.NewFlightRecorder(obs.DefaultFlightCap),
		}
		p := NewPool(jobs, sink)
		_, err := MapKind[int](p, 6, "tailtest", "script", scriptParams{Every: 1, PanicAt: at(3)})
		var te *TrialError
		if !errors.As(err, &te) {
			t.Fatalf("jobs=%d: Map error = %v, want *TrialError", jobs, err)
		}
		if len(te.Events) == 0 {
			t.Fatalf("jobs=%d: TrialError.Events empty", jobs)
		}
		for _, ev := range te.Events {
			if ev.Trial != 3 {
				t.Errorf("jobs=%d: foreign trial %d in tail: %+v", jobs, ev.Trial, ev)
			}
		}
		if !strings.Contains(te.Error(), "flight recorder") {
			t.Errorf("jobs=%d: Error() does not mention the flight tail: %q", jobs, te.Error())
		}
		if tail := te.FlightTail(); !strings.Contains(tail, "trial 3") {
			t.Errorf("jobs=%d: FlightTail missing trial 3:\n%s", jobs, tail)
		}
		if want == nil {
			want = te.Events
			last := te.Events[len(te.Events)-1]
			if last.Kind != obs.FlightTrialDegraded {
				t.Errorf("tail does not end in degradation: %+v", last)
			}
		} else if !reflect.DeepEqual(te.Events, want) {
			t.Errorf("jobs=%d: TrialError tail diverged:\n got: %v\nwant: %v", jobs, te.Events, want)
		}
	}
	if p := NewPool(2, nil); p != nil {
		// Recorder-less pools must keep Events empty rather than panic.
		_, err := MapKind[int](p, 2, "norec", "script", scriptParams{Every: 1, PanicAt: at(0)})
		var te *TrialError
		if !errors.As(err, &te) || len(te.Events) != 0 {
			t.Errorf("nil-sink pool: err=%v events=%v, want empty tail", err, te.Events)
		}
	}
}
