package cliobs

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"stmdiag/internal/core"
	"stmdiag/internal/faultinj"
	"stmdiag/internal/obs"
)

func TestCheckJobs(t *testing.T) {
	for _, jobs := range []int{0, 1, 4, 128} {
		if err := CheckJobs(jobs); err != nil {
			t.Errorf("CheckJobs(%d) = %v, want nil", jobs, err)
		}
	}
	for _, jobs := range []int{-1, -17} {
		err := CheckJobs(jobs)
		if err == nil {
			t.Fatalf("CheckJobs(%d) accepted a negative worker count", jobs)
		}
		if !strings.Contains(err.Error(), "-jobs") {
			t.Errorf("CheckJobs(%d) error %q does not name the flag", jobs, err)
		}
	}
}

func TestCheckRuns(t *testing.T) {
	ok := map[string]int{"failruns": 0, "succruns": 10, "cbiruns": 1000, "overhead": 1}
	if err := CheckRuns(ok); err != nil {
		t.Errorf("CheckRuns(%v) = %v, want nil", ok, err)
	}
	for _, c := range []struct {
		runs map[string]int
		flag string
	}{
		{map[string]int{"failruns": -1, "succruns": 10}, "-failruns"},
		{map[string]int{"failruns": 10, "succruns": -2}, "-succruns"},
		{map[string]int{"cbiruns": -3}, "-cbiruns"},
		{map[string]int{"overhead": -1, "succruns": -5}, "-overhead"},
	} {
		err := CheckRuns(c.runs)
		if err == nil {
			t.Fatalf("CheckRuns(%v) accepted a negative run count", c.runs)
		}
		if !strings.Contains(err.Error(), c.flag+" ") {
			t.Errorf("CheckRuns(%v) error %q does not name %s", c.runs, err, c.flag)
		}
	}
}

func TestFaultSpec(t *testing.T) {
	tests := []struct {
		raw     string
		wantErr bool
		enabled bool
	}{
		{"", false, false},
		{"off", false, false},
		{"rate=0.01", false, true},
		{"lbr-drop=0.1,seed=7", false, true},
		{"rate=2", true, false},
		{"bogus-layer=0.5", true, false},
	}
	for _, tc := range tests {
		f := &Flags{Faults: tc.raw}
		spec, err := f.FaultSpec()
		if tc.wantErr {
			if err == nil {
				t.Errorf("FaultSpec(%q) accepted a malformed spec", tc.raw)
			} else if !strings.Contains(err.Error(), "-faults") {
				t.Errorf("FaultSpec(%q) error %q does not name the flag", tc.raw, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("FaultSpec(%q): %v", tc.raw, err)
			continue
		}
		if spec.Enabled() != tc.enabled {
			t.Errorf("FaultSpec(%q).Enabled() = %v, want %v", tc.raw, spec.Enabled(), tc.enabled)
		}
	}
	// A parsed spec must survive the flag round trip: rendering it back
	// into -faults form and re-parsing yields the same spec.
	f := &Flags{Faults: "rate=0.25,msr-write=0.5,seed=11,retries=3"}
	spec, err := f.FaultSpec()
	if err != nil {
		t.Fatal(err)
	}
	again, err := faultinj.ParseSpec(spec.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", spec.String(), err)
	}
	if again.String() != spec.String() {
		t.Errorf("flag round trip drifted: %q -> %q", spec.String(), again.String())
	}
}

func TestValidateMetricsFormat(t *testing.T) {
	for _, format := range []string{FormatText, FormatJSON, FormatProm} {
		f := &Flags{MetricsFormat: format}
		if err := f.Validate(); err != nil {
			t.Errorf("Validate rejected -metrics-format=%s: %v", format, err)
		}
	}
	for _, format := range []string{"yaml", "TEXT", "openmetrics", ""} {
		f := &Flags{MetricsFormat: format}
		err := f.Validate()
		if err == nil {
			t.Errorf("Validate accepted -metrics-format=%q", format)
			continue
		}
		if !strings.Contains(err.Error(), "-metrics-format") {
			t.Errorf("Validate(%q) error %q does not name the flag", format, err)
		}
	}
}

func TestSinkConstruction(t *testing.T) {
	if s := (&Flags{}).Sink(); s != nil {
		t.Errorf("all-off flags built a sink: %+v", s)
	}
	// -serve alone needs a sink for the server to expose, with a tracer so
	// /trace has content and a flight recorder by default. It must NOT
	// force-arm the profiler: attribution counters are the largest
	// per-trial payload on the executor wire, so /profilez data is opt-in
	// via -profile-report.
	s := (&Flags{ServeAddr: ":0", FlightRec: true}).Sink()
	if s == nil || s.Metrics == nil || s.Trace == nil || s.Flight == nil {
		t.Fatalf("-serve sink incomplete: %+v", s)
	}
	if s.Profiled() {
		t.Error("-serve sink force-arms the profiler; federation pays for attribution counters nobody asked for")
	}
	// -flightrec=false strips the recorder but keeps the rest.
	s = (&Flags{Metrics: true}).Sink()
	if s == nil || s.Flight != nil {
		t.Errorf("-flightrec=false sink still carries a recorder: %+v", s)
	}
	// -metrics alone must not pay for attribution counters.
	if s.Profiled() {
		t.Error("-metrics sink profiles without -profile-report or -serve")
	}
	// -profile-report alone is enough to get a (profiling) sink.
	s = (&Flags{ProfileReport: 10}).Sink()
	if s == nil || s.Metrics == nil || !s.Profiled() {
		t.Errorf("-profile-report sink incomplete or unprofiled: %+v", s)
	}
}

func TestValidateProfileReport(t *testing.T) {
	for _, k := range []int{0, 1, 25} {
		f := &Flags{MetricsFormat: FormatText, ProfileReport: k}
		if err := f.Validate(); err != nil {
			t.Errorf("Validate rejected -profile-report=%d: %v", k, err)
		}
	}
	for _, k := range []int{-1, -20} {
		f := &Flags{MetricsFormat: FormatText, ProfileReport: k}
		err := f.Validate()
		if err == nil {
			t.Errorf("Validate accepted -profile-report=%d", k)
			continue
		}
		if !strings.Contains(err.Error(), "-profile-report") {
			t.Errorf("Validate(%d) error %q does not name the flag", k, err)
		}
	}
}

// TestFinishProfileReport: Finish renders the hot-spot report from the
// run's registry, truncated to the requested top-K.
func TestFinishProfileReport(t *testing.T) {
	f := &Flags{MetricsFormat: FormatText, ProfileReport: 1}
	s := &obs.Sink{Metrics: obs.NewRegistry(), Profiling: true}
	s.Counter("vm.cycles").Add(100)
	s.Counter("prof.op.add.count").Add(5)
	s.Counter("prof.op.add.cycles").Add(70)
	s.Counter("prof.op.jmp.count").Add(2)
	s.Counter("prof.op.jmp.cycles").Add(30)
	var out strings.Builder
	if err := f.Finish(s, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "cost attribution: hot-spot report (top 1)") {
		t.Errorf("Finish did not render the report: %q", got)
	}
	if !strings.Contains(got, "add") || !strings.Contains(got, "... 1 more") {
		t.Errorf("report not truncated to top 1: %q", got)
	}
	// Without -profile-report the report never renders, even on a
	// profiling sink (e.g. -serve).
	var quiet strings.Builder
	if err := (&Flags{MetricsFormat: FormatText}).Finish(s, &quiet); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(quiet.String(), "cost attribution") {
		t.Errorf("report rendered without -profile-report: %q", quiet.String())
	}
}

func TestStartAndFinishServe(t *testing.T) {
	f := &Flags{ServeAddr: "127.0.0.1:0", FlightRec: true, MetricsFormat: FormatText}
	s := f.Sink()
	var announce strings.Builder
	if err := f.Start(s, &announce); err != nil {
		t.Fatal(err)
	}
	addr := f.ServerAddr()
	if addr == "" || !strings.Contains(announce.String(), addr) {
		t.Fatalf("Start announced %q, ServerAddr=%q", announce.String(), addr)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.HasSuffix(string(body), "# EOF\n") {
		t.Errorf("GET /metrics = %d %q", resp.StatusCode, body)
	}
	var out strings.Builder
	if err := f.Finish(s, &out); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("server still answering after Finish")
	}
}

func TestFinishMetricsFormats(t *testing.T) {
	render := func(format string) string {
		f := &Flags{Metrics: true, MetricsFormat: format}
		s := &obs.Sink{Metrics: obs.NewRegistry()}
		s.Counter("vm.runs").Add(2)
		var out strings.Builder
		if err := f.Finish(s, &out); err != nil {
			t.Fatalf("Finish(%s): %v", format, err)
		}
		return out.String()
	}
	if got := render(FormatJSON); !strings.HasPrefix(got, "{") || !strings.Contains(got, "vm.runs") {
		t.Errorf("json format rendered %q", got)
	}
	if got := render(FormatProm); !strings.Contains(got, "vm_runs_total 2") || !strings.HasSuffix(got, "# EOF\n") {
		t.Errorf("prom format rendered %q", got)
	}
	if got := render(FormatText); !strings.Contains(got, "vm.runs") {
		t.Errorf("text format rendered %q", got)
	}
}

func TestFleetFlagsValidate(t *testing.T) {
	good := []FleetFlags{
		{Shards: 1, Clients: 1, Batch: 1, Retries: 0},
		{Shards: 16, Clients: 4, Batch: 64, Retries: 5},
		{Shards: 4096, Clients: 100, Batch: 1000, Retries: 20},
	}
	for _, f := range good {
		if err := f.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", f, err)
		}
	}
	bad := []struct {
		f    FleetFlags
		flag string
	}{
		{FleetFlags{Shards: 0, Clients: 1, Batch: 1}, "-fleet-shards"},
		{FleetFlags{Shards: 4097, Clients: 1, Batch: 1}, "-fleet-shards"},
		{FleetFlags{Shards: 1, Clients: 0, Batch: 1}, "-fleet-clients"},
		{FleetFlags{Shards: 1, Clients: 1, Batch: 0}, "-fleet-batch"},
		{FleetFlags{Shards: 1, Clients: 1, Batch: -3}, "-fleet-batch"},
		{FleetFlags{Shards: 1, Clients: 1, Batch: 1, Retries: -1}, "-fleet-retries"},
	}
	for _, c := range bad {
		err := c.f.Validate()
		if err == nil {
			t.Errorf("Validate(%+v) accepted a malformed value", c.f)
			continue
		}
		if !strings.Contains(err.Error(), c.flag) {
			t.Errorf("Validate(%+v) error %q does not name %s", c.f, err, c.flag)
		}
	}
}

func TestRankerFlagValidate(t *testing.T) {
	for _, r := range core.Rankers() {
		f := RankerFlag{Name: r.String()}
		if err := f.Validate(); err != nil {
			t.Errorf("Validate(%q) = %v, want nil", f.Name, err)
		}
		if got := f.Ranker(); got != r {
			t.Errorf("Ranker(%q) = %v, want %v", f.Name, got, r)
		}
	}
	for _, bad := range []string{"", "CBI", "ochiai ", "jaccard"} {
		f := RankerFlag{Name: bad}
		if err := f.Validate(); err == nil {
			t.Errorf("Validate(%q) accepted an unknown ranker", bad)
		}
	}
}
