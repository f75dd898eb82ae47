package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"stmdiag/internal/harness"
	"stmdiag/internal/obs"
)

// span is one timed call into a layer's public function. Spans of one op
// share the op index; parent is the enclosing span (-1 for the op root).
type span struct {
	name       string
	op, parent int
	start, end time.Duration // since the tracer started
}

// tracer keeps spans in memory; they are written out when the run ends.
// Every method is a no-op on a nil tracer, so untraced ops pay one nil
// check per call site.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) beginOp(i int) {
	if t == nil {
		return
	}
	t.op = i
	t.stack = append(t.stack[:0], t.push("op"))
}

func (t *tracer) endOp() {
	if t == nil {
		return
	}
	t.end(t.stack[0])
}

func (t *tracer) push(name string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, op: t.op, parent: parent, start: time.Since(t.t0)})
	return len(t.spans) - 1
}

// begin opens a span around a call into a layer.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	id := t.push(name)
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = time.Since(t.t0)
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
}

// selfTimes sums each span name's self time: its duration minus the part
// its child spans cover. It also returns each name's span count.
func (t *tracer) selfTimes() (map[string]time.Duration, map[string]int) {
	self := map[string]time.Duration{}
	count := map[string]int{}
	for _, s := range t.spans {
		self[s.name] += s.end - s.start
		count[s.name]++
		if s.parent >= 0 {
			self[t.spans[s.parent].name] -= s.end - s.start
		}
	}
	return self, count
}

// write exports the spans as Chrome trace_event JSON.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{Name: s.name, Ph: "X", TS: us(s.start), Dur: us(s.end - s.start), PID: 1, TID: 1,
			Args: map[string]int{"op": s.op}}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// countingExecutor runs trials in process, like the default executor, and
// counts what the executor boundary sees: trials, accepted results, and the
// bytes a worker process would exchange for each (request plus response,
// telemetry stripped). It keeps a sample of responses for the codec probe.
type countingExecutor struct {
	inner                       harness.InprocExecutor
	mu                          sync.Mutex
	trials, accepted, wireBytes uint64
	sample                      []sampledTrial
}

type sampledTrial struct {
	kind string
	resp harness.TrialResponse
}

const maxSample = 512

func (c *countingExecutor) Run(req *harness.TrialRequest) (*harness.TrialResponse, error) {
	resp, err := c.inner.Run(req)
	if err != nil {
		return resp, err
	}
	q, r := *req, stripTelemetry(resp)
	q.Metrics, q.Flight, q.Trace, q.Profiling, q.Verbosity, q.RunID = false, false, false, false, 0, 0
	qb, _ := json.Marshal(&q)
	rb, _ := json.Marshal(&r)
	c.mu.Lock()
	c.trials++
	if resp.OK {
		c.accepted++
	}
	c.wireBytes += uint64(len(qb) + len(rb))
	if len(c.sample) < maxSample && resp.OK {
		c.sample = append(c.sample, sampledTrial{kind: req.Kind, resp: r})
	}
	c.mu.Unlock()
	return resp, nil
}

func (c *countingExecutor) Close() error { return nil }

// stripTelemetry is the response an untraced run would carry.
func stripTelemetry(resp *harness.TrialResponse) harness.TrialResponse {
	r := *resp
	r.Metrics, r.Flight, r.HasFlight, r.Trace, r.Ctx = nil, nil, false, nil, nil
	return r
}

// ledgerCounters are the program counters the exact-count ledger records.
var ledgerCounters = []string{
	"vm.runs", "vm.steps", "vm.cycles", "vm.traps",
	"cache.hits", "cache.misses",
	"pmu.lbr.pushes", "pmu.lcr.pushes",
	"artifact.hits", "artifact.misses",
	"fleet.rank.full_rescores", "fleet.rank.delta_rescores", "fleet.ingest.profiles",
}

// defaultCounters live in the process-wide registry.
var defaultCounters = []string{"cbi.observers", "cbi.predicates.sampled", "core.instrumented"}

// ledger is the exact-count ledger of one whole traced pass: raw counter
// deltas, the executor counts and the op count. It must repeat bit for bit
// between two runs of the same seed.
type ledger map[string]uint64

func takeLedger(e *env, ops int, s0, d0 obs.Snapshot) ledger {
	s, d := e.sink.Metrics.Snapshot().Delta(s0), obs.Default().Snapshot().Delta(d0)
	l := ledger{"ops": uint64(ops)}
	for _, n := range ledgerCounters {
		l[n] = s.Counter(n)
	}
	for _, n := range defaultCounters {
		l[n] = d.Counter(n)
	}
	for name, v := range s.Counters {
		if strings.HasPrefix(name, "kernel.ioctl.") {
			l["kernel.ioctls"] += v
		}
	}
	e.exec.mu.Lock()
	l["harness.trials"], l["harness.accepted"], l["harness.wire_bytes"] = e.exec.trials, e.exec.accepted, e.exec.wireBytes
	e.exec.mu.Unlock()
	return l
}

func (l ledger) per(name string) float64 { return float64(l[name]) / float64(l["ops"]) }

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// checkDrift compares the ledger with the one an earlier run of the same
// binary, workload and seed left behind, and stores it for the next run.
// It returns the names whose counts drifted.
func checkDrift(l ledger, path string) ([]string, error) {
	var drift []string
	if data, err := os.ReadFile(path); err == nil {
		var prev ledger
		if err := json.Unmarshal(data, &prev); err != nil {
			return nil, fmt.Errorf("read ledger %s: %w", path, err)
		}
		for k := range union(l, prev) {
			if l[k] != prev[k] {
				drift = append(drift, fmt.Sprintf("%s %d -> %d", k, prev[k], l[k]))
			}
		}
		sort.Strings(drift)
	}
	data, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	return drift, os.WriteFile(path, data, 0o644)
}

func union(a, b ledger) map[string]bool {
	u := map[string]bool{}
	for k := range a {
		u[k] = true
	}
	for k := range b {
		u[k] = true
	}
	return u
}

// binaryID identifies the running build, so ledgers from another build of
// the program are never compared.
func binaryID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// gcCPU reads the runtime's cumulative GC and non-idle CPU seconds.
func gcCPU() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// runTraced is the per-layer run. It measures an untraced segment, then
// arms the program's counters, the counting executor and the spans and
// measures a traced segment on fresh state. The exact-count ledger covers
// the traced segment's first whole pass; the layer probes run last.
func runTraced(w workload, e *env, seconds float64) (result, error) {
	if _, err := timedSetup(w, e); err != nil {
		return result{}, err
	}
	half := secs(seconds / 2)
	gc0, busy0 := gcCPU()
	plain := loop(w, e, half)
	gc1, busy1 := gcCPU()

	e.sink = &obs.Sink{Metrics: obs.NewRegistry()}
	e.exec = &countingExecutor{}
	e.tr = newTracer()
	if err := w.reset(e); err != nil {
		return result{}, err
	}
	s0, d0 := e.sink.Metrics.Snapshot(), obs.Default().Snapshot()
	var led ledger
	e.passDone = func(ops int) {
		if led == nil {
			led = takeLedger(e, ops, s0, d0)
		}
	}
	traced := loop(w, e, half) // a loop always ends on a pass boundary, so led is set
	e.passDone = nil
	p := runProbes(w, e, led)
	failed := plain.failed + traced.failed + w.finish(e)
	attempted := plain.ops + traced.ops + w.endChecks() + 1 // +1: the drift check
	drift, err := checkDrift(led, filepath.Join(e.work, "ledger",
		fmt.Sprintf("%s-seed%d-%s.json", w.name(), e.seed, binaryID())))
	if err != nil {
		return result{}, err
	}
	if len(drift) > 0 {
		failed++
		fmt.Fprintf(os.Stderr, "perfbench: exact counts drifted from an earlier run of seed %d: %s\n", e.seed, strings.Join(drift, "; "))
	}
	if err := e.tr.write(filepath.Join(e.work, "traces", fmt.Sprintf("%s-seed%d.json", w.name(), e.seed))); err != nil {
		return result{}, err
	}

	m := layerMetrics(w, e, led, p, plain, traced, gc1-gc0, busy1-busy0)
	printLedger(w, e, led)
	fmt.Fprintf(os.Stderr, "perfbench: traced run workload=%s seed=%d cpus=%d gomaxprocs=%d gogc=%d untraced_ops=%d traced_ops=%d failed=%d\n",
		w.name(), e.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), gcPercent, plain.ops, traced.ops, failed)
	printMetrics(m)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// printLedger prints the exact counts and what they do and do not model.
func printLedger(w workload, e *env, l ledger) {
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(os.Stderr, "perfbench: exact-count ledger (first traced pass, workload=%s seed=%d):\n", w.name(), e.seed)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  %-28s %d\n", k, l[k])
	}
	if tr, ok := w.(*tableRows); ok {
		fmt.Fprintf(os.Stderr, "  simulator accuracy: %d/%d Table 6/7 rows have every LBRLOG/LCRLOG rank equal to the paper's\n",
			tr.paperMatches(), len(tr.rows))
	}
	fmt.Fprintln(os.Stderr, "  the cycle model is unvalidated against hardware; the modelled caches start empty on every VM run")
}
