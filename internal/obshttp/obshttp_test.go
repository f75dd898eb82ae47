package obshttp_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"stmdiag"
	"stmdiag/internal/obs"
	"stmdiag/internal/obshttp"
)

// validateOpenMetrics is a minimal exposition-format parser: every line is
// a # TYPE / # HELP comment, a sample, or the trailing # EOF; samples
// belong to a declared family; histogram buckets are cumulative and end in
// an le="+Inf" bucket equal to the _count sample.
func validateOpenMetrics(t *testing.T, body string) {
	t.Helper()
	sample := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9]+)$`)
	typeLine := regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
	families := map[string]string{}
	type histState struct {
		lastCum  int64
		infSeen  bool
		inf      int64
		count    int64
		hasCount bool
	}
	hists := map[string]*histState{}
	lines := strings.Split(body, "\n")
	if len(lines) < 2 || lines[len(lines)-1] != "" || lines[len(lines)-2] != "# EOF" {
		t.Fatalf("exposition does not end with # EOF + newline: %q", lines[max(0, len(lines)-3):])
	}
	for _, line := range lines[:len(lines)-2] {
		if line == "# EOF" {
			t.Fatalf("# EOF before end of body")
		}
		if m := typeLine.FindStringSubmatch(line); m != nil {
			if _, dup := families[m[1]]; dup {
				t.Errorf("family %q declared twice", m[1])
			}
			families[m[1]] = m[2]
			if m[2] == "histogram" {
				hists[m[1]] = &histState{}
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // HELP or other comment
		}
		m := sample.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("malformed sample line %q", line)
			continue
		}
		name, labels := m[1], m[2]
		val, _ := strconv.ParseInt(m[3], 10, 64)
		base := name
		for _, suffix := range []string{"_total", "_bucket", "_sum", "_count"} {
			if s, ok := strings.CutSuffix(name, suffix); ok && families[s] != "" {
				base = s
				break
			}
		}
		kind, ok := families[base]
		if !ok {
			t.Errorf("sample %q has no preceding # TYPE", line)
			continue
		}
		switch kind {
		case "counter":
			if !strings.HasSuffix(name, "_total") {
				t.Errorf("counter sample %q lacks _total", line)
			}
			if val < 0 {
				t.Errorf("negative counter %q", line)
			}
		case "histogram":
			h := hists[base]
			switch {
			case strings.HasSuffix(name, "_bucket"):
				if !strings.Contains(labels, `le="`) {
					t.Errorf("bucket without le label: %q", line)
				}
				if strings.Contains(labels, `le="+Inf"`) {
					h.infSeen, h.inf = true, val
				} else {
					if val < h.lastCum {
						t.Errorf("non-cumulative buckets at %q (%d after %d)", line, val, h.lastCum)
					}
					h.lastCum = val
				}
			case strings.HasSuffix(name, "_count"):
				h.count, h.hasCount = val, true
			}
		}
	}
	for name, h := range hists {
		if !h.infSeen {
			t.Errorf("histogram %s has no +Inf bucket", name)
		}
		if h.hasCount && h.inf < h.count {
			t.Errorf("histogram %s: +Inf bucket %d < count %d", name, h.inf, h.count)
		}
	}
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func testSink() *obs.Sink {
	s := &obs.Sink{
		Metrics: obs.NewRegistry(),
		Trace:   obs.NewTracer(),
		Flight:  obs.NewFlightRecorder(16),
	}
	s.Counter("vm.runs").Add(3)
	s.Counter("harness.pool.worker0.trials").Add(2)
	s.Histogram("vm.run.cycles", obs.DefaultCycleBounds).Observe(500)
	s.Trace.Instant("x", "test", 1, 0, 0, nil)
	s.RecordFlight(obs.FlightEvent{Cycle: 9, Trial: 0, Kind: obs.FlightTrialStart, Detail: "t"})
	return s
}

func TestEndpoints(t *testing.T) {
	sink := testSink()
	srv := obshttp.New(sink)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body, hdr := get(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != obshttp.OpenMetricsContentType {
		t.Errorf("/metrics content type %q", ct)
	}
	if cc := hdr.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("/metrics Cache-Control %q, want no-store", cc)
	}
	validateOpenMetrics(t, body)
	if !strings.Contains(body, "vm_runs_total 3") {
		t.Errorf("/metrics missing vm_runs_total:\n%s", body)
	}

	code, body, _ = get(t, ts.URL+"/healthz")
	if code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	code, body, _ = get(t, ts.URL+"/readyz")
	if code != 200 || !strings.Contains(body, "ready") {
		t.Errorf("/readyz = %d %q", code, body)
	}
	srv.SetReady(false)
	if code, _, _ = get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz after SetReady(false) = %d, want 503", code)
	}
	srv.SetReady(true)

	code, body, _ = get(t, ts.URL+"/trace")
	if code != 200 {
		t.Fatalf("/trace status %d", code)
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatalf("/trace not valid trace_event JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Error("/trace has no events")
	}

	code, body, hdr = get(t, ts.URL+"/flightrecorder")
	if code != 200 {
		t.Fatalf("/flightrecorder status %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/flightrecorder content type %q, want application/json", ct)
	}
	if cc := hdr.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("/flightrecorder Cache-Control %q, want no-store", cc)
	}
	var dump obshttp.FlightDump
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("/flightrecorder not valid JSON: %v", err)
	}
	if dump.Cap != 16 || dump.Recorded != 1 || len(dump.Events) != 1 || dump.Events[0].Kind != obs.FlightTrialStart {
		t.Errorf("/flightrecorder dump = %+v", dump)
	}

	if code, _, _ = get(t, ts.URL+"/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/ status %d", code)
	}
	if code, _, _ = get(t, ts.URL+"/nosuch"); code != 404 {
		t.Errorf("unknown path status %d, want 404", code)
	}
}

// TestProfilez: the cost-attribution endpoint serves the registry's prof.*
// state as JSON, uncached, and degrades to an empty report on a bare sink.
func TestProfilez(t *testing.T) {
	sink := &obs.Sink{Metrics: obs.NewRegistry(), Profiling: true}
	sink.Counter("vm.cycles").Add(100)
	sink.Counter("vm.steps").Add(40)
	sink.Counter("prof.op.add.count").Add(7)
	sink.Counter("prof.op.add.cycles").Add(60)
	sink.Counter("prof.phase.capture.spans").Add(1)
	ts := httptest.NewServer(obshttp.New(sink).Handler())
	defer ts.Close()

	code, body, hdr := get(t, ts.URL+"/profilez")
	if code != 200 {
		t.Fatalf("/profilez status %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/profilez content type %q, want application/json", ct)
	}
	if cc := hdr.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("/profilez Cache-Control %q, want no-store", cc)
	}
	var rep struct {
		TotalCycles uint64 `json:"total_cycles"`
		Opcodes     []struct {
			Name   string `json:"name"`
			Count  uint64 `json:"count"`
			Cycles uint64 `json:"cycles"`
		} `json:"opcodes"`
		Phases []struct {
			Name  string `json:"name"`
			Spans uint64 `json:"spans"`
		} `json:"phases"`
	}
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/profilez not valid JSON: %v\n%s", err, body)
	}
	if rep.TotalCycles != 100 {
		t.Errorf("/profilez total_cycles = %d, want 100", rep.TotalCycles)
	}
	if len(rep.Opcodes) != 1 || rep.Opcodes[0].Name != "add" || rep.Opcodes[0].Cycles != 60 {
		t.Errorf("/profilez opcodes = %+v", rep.Opcodes)
	}
	if len(rep.Phases) != 1 || rep.Phases[0].Name != "capture" || rep.Phases[0].Spans != 1 {
		t.Errorf("/profilez phases = %+v", rep.Phases)
	}
}

func TestNilSinkEndpoints(t *testing.T) {
	ts := httptest.NewServer(obshttp.New(nil).Handler())
	defer ts.Close()
	code, body, _ := get(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics on nil sink: status %d", code)
	}
	validateOpenMetrics(t, body)
	code, body, _ = get(t, ts.URL+"/flightrecorder")
	if code != 200 || !strings.Contains(body, `"events": []`) {
		t.Errorf("/flightrecorder on nil sink = %d %q", code, body)
	}
	if code, _, _ = get(t, ts.URL+"/trace"); code != 200 {
		t.Errorf("/trace on nil sink: status %d", code)
	}
	code, body, _ = get(t, ts.URL+"/profilez")
	if code != 200 || !strings.Contains(body, `"total_cycles"`) {
		t.Errorf("/profilez on nil sink = %d %q", code, body)
	}
}

func TestStartServesRealListener(t *testing.T) {
	srv := obshttp.New(testSink())
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Addr() == "" {
		t.Fatal("no bound address")
	}
	code, body, _ := get(t, "http://"+srv.Addr()+"/metrics")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	validateOpenMetrics(t, body)
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestMetricsScrapeMidRun is the tier-1 smoke for the acceptance criterion
// that a sweep launched with -serve answers /metrics mid-run with valid
// OpenMetrics text: it drives a real Table 6 row through the pipeline
// while a scraper hammers /metrics, /flightrecorder and /readyz, and every
// scraped exposition must parse.
func TestMetricsScrapeMidRun(t *testing.T) {
	sink := &obs.Sink{
		Metrics: obs.NewRegistry(),
		Flight:  obs.NewFlightRecorder(obs.DefaultFlightCap),
	}
	ts := httptest.NewServer(obshttp.New(sink).Handler())
	defer ts.Close()

	done := make(chan error, 1)
	go func() {
		_, err := stmdiag.SequentialRow("sort", stmdiag.ExperimentConfig{
			FailRuns: 3, SuccRuns: 3, CBIRuns: 20, OverheadRuns: 2,
			Jobs: 2, Obs: sink,
		})
		done <- err
	}()

	var scrapes int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("SequentialRow: %v", err)
				}
				return
			default:
			}
			code, body, _ := get(t, ts.URL+"/metrics")
			if code != 200 {
				t.Errorf("mid-run /metrics status %d", code)
				return
			}
			validateOpenMetrics(t, body)
			if code, _, _ := get(t, ts.URL+"/flightrecorder"); code != 200 {
				t.Errorf("mid-run /flightrecorder status %d", code)
				return
			}
			scrapes++
		}
	}()
	wg.Wait()

	if scrapes == 0 {
		t.Error("no mid-run scrapes completed")
	}
	// After the row, the registry holds real pipeline metrics and still
	// renders a parseable exposition that mentions the run counters. The
	// sort row's trials all derive from recorded runs, so it counts
	// derived trials rather than VM runs.
	_, body, _ := get(t, ts.URL+"/metrics")
	validateOpenMetrics(t, body)
	for _, want := range []string{"harness_trials_derived_total", "harness_pool_trials_total", "harness_rows_total"} {
		if !strings.Contains(body, want) {
			t.Errorf("final exposition missing %s", want)
		}
	}
	if sink.Flight.Recorded() == 0 {
		t.Error("pipeline flight recorder stayed empty across a full row")
	}
	t.Logf("completed %d mid-run scrapes", scrapes)
}

// TestReadOnlyEndpointsRejectWrites: the snapshot endpoints never mutate
// process state, so anything but GET/HEAD is rejected with 405 and the
// allowed set announced — a probe or misconfigured proxy cannot "write"
// telemetry. GET keeps working through the guard.
func TestReadOnlyEndpointsRejectWrites(t *testing.T) {
	srv := obshttp.New(obs.NewSink())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, path := range []string{"/metrics", "/trace", "/flightrecorder", "/profilez"} {
		for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
			req, err := http.NewRequest(method, ts.URL+path, strings.NewReader("x"))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: status %d, want 405", method, path, resp.StatusCode)
			}
			if got := resp.Header.Get("Allow"); got != "GET, HEAD" {
				t.Errorf("%s %s: Allow %q, want \"GET, HEAD\"", method, path, got)
			}
		}
		if code, _, _ := get(t, ts.URL+path); code != http.StatusOK {
			t.Errorf("GET %s through the guard: status %d", path, code)
		}
		resp, err := http.Head(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("HEAD %s: status %d", path, resp.StatusCode)
		}
	}
}
