package harness

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"stmdiag/internal/artifact"
	"stmdiag/internal/faultinj"
	"stmdiag/internal/obs"
)

// This file is the trial layer: every trial body is data (a registered
// kind name plus JSON params), so one trial can be executed by the
// in-process worker, shipped to a subprocess worker, or loaded back from
// the durable artifact store — and produce byte-identical results in all
// three cases.
//
// The identity argument: every execution path funnels through executeWire,
// the one attempt loop (fault plans, retry budget, flight events,
// degradation); and every result value crosses a JSON round trip even
// in-process, so "fresh in-process", "fresh subprocess" and "resumed from
// the store" are literally the same bytes by construction, not by careful
// equivalence. Every stream — Tables 1–9, coverage sweeps, adaptive
// search, report bundles — runs this way, so each one honours the
// executor choice and the artifact store.

// TrialRequest is one trial, as data. Its identity — what the artifact key
// hashes — is (Stream, Index, Kind, Params, Faults, FaultSeed). The
// telemetry arming flags ride along so a worker builds the same trial sink
// the in-process path would, but they are not part of the identity.
type TrialRequest struct {
	Stream string          `json:"stream"`
	Index  int             `json:"index"`
	Kind   string          `json:"kind"`
	Params json.RawMessage `json:"params,omitempty"`

	Faults    faultinj.Spec `json:"faults"`
	FaultSeed int64         `json:"faultSeed,omitempty"`

	Metrics   bool `json:"metrics,omitempty"`
	Flight    bool `json:"flight,omitempty"`
	Trace     bool `json:"trace,omitempty"`
	Profiling bool `json:"profiling,omitempty"`
	Verbosity int  `json:"verbosity,omitempty"`

	// RunID correlates every telemetry delta of one pipeline run; it is
	// propagated into the response's obs.Context and, like the arming
	// flags, is not part of the trial's identity.
	RunID uint64 `json:"runID,omitempty"`
}

// TrialDegraded is the wire form of a trial that exhausted its retry
// budget: every attempt panicked.
type TrialDegraded struct {
	Attempts int               `json:"attempts"`
	Panic    string            `json:"panic"`
	Events   []obs.FlightEvent `json:"events,omitempty"`

	// pan carries the in-process panic value so local callers keep the
	// original (an *artifact.Error, a faultinj.InjectedPanic, ...). Its %v
	// rendering equals Panic, so errors print identically either way.
	pan any
}

// TrialResponse is one executed trial's complete observable outcome: the
// JSON-encoded result value, the accept/reject/error verdict, the degraded
// record if every attempt panicked, and the trial sink's telemetry, merged
// by the pool at commit time in trial order.
type TrialResponse struct {
	Value json.RawMessage `json:"value,omitempty"`
	OK    bool            `json:"ok,omitempty"`
	Err   string          `json:"err,omitempty"`

	Degraded *TrialDegraded `json:"degraded,omitempty"`

	Metrics   *obs.Snapshot     `json:"metrics,omitempty"`
	Flight    []obs.FlightEvent `json:"flight,omitempty"`
	HasFlight bool              `json:"hasFlight,omitempty"`

	// Trace is the trial's private-tracer delta: its spans and track
	// names, plus the cycles its clock advanced. The pool merges it into
	// the run tracer at commit time, in trial order, so the merged trace
	// is byte-identical for every -jobs value and executor choice.
	Trace *obs.TraceDelta `json:"trace,omitempty"`

	// Ctx stamps which run/stream/trial/attempt/worker produced this
	// response's telemetry. It labels volatile live telemetry only and is
	// stripped before artifact storage (worker assignment is a scheduling
	// fact, and stored records stay executor-invariant).
	Ctx *obs.Context `json:"ctx,omitempty"`

	// errVal preserves the in-process error identity (errors.Is works on
	// the local path); remote and resumed paths reconstruct from Err.
	errVal error
}

// respErr returns the response's error, preferring the preserved local
// value over the wire string.
func (r *TrialResponse) respErr() error {
	if r.errVal != nil {
		return r.errVal
	}
	if r.Err != "" {
		return errors.New(r.Err)
	}
	return nil
}

// kindFunc executes one portable trial body: decode params, run the trial
// in tc's context, return (value, accepted, error). The returned value must
// JSON-round-trip losslessly — it is the trial's wire representation.
type kindFunc func(params json.RawMessage, stream string, tc *Trial) (any, bool, error)

// trialKinds is the portable-trial registry, populated by kinds.go at init.
// Both executors and worker processes resolve bodies here, so the mapping
// must be identical in every process of a run (it is: it's compiled in).
var trialKinds = map[string]kindFunc{}

// registerKind installs one portable trial body.
func registerKind(name string, fn kindFunc) {
	if _, dup := trialKinds[name]; dup {
		panic("harness: duplicate trial kind " + name)
	}
	trialKinds[name] = fn
}

// wireSink builds the private sink one trial runs against: its own
// registry, flight ring and tracer, merged into the pool's sink at commit
// time in trial order, so telemetry is independent of worker scheduling.
// Arming is purely request-driven, so the in-process executor and a
// subprocess worker build bit-for-bit the same sink for the same request —
// the federation identity starts here.
func wireSink(req *TrialRequest) *obs.Sink {
	if !req.Metrics && !req.Flight && !req.Trace && !req.Profiling {
		return nil
	}
	s := &obs.Sink{Profiling: req.Profiling, Verbosity: req.Verbosity}
	if req.Metrics {
		s.Metrics = obs.NewRegistry()
	}
	if req.Flight {
		s.Flight = obs.NewFlightRecorder(obs.DefaultTrialFlightCap)
	}
	if req.Trace {
		s.Trace = obs.NewTracer()
	}
	return s
}

// executeWire runs one trial to completion through the harness's only
// attempt loop: recover every panic, re-attempt up to the deterministic
// budget, then mark the trial degraded. Each attempt gets its own fault
// plan; one sink spans all attempts, so a panicked attempt's partial
// telemetry commits with it (deterministically — the attempt sequence is a
// pure function of the request). Counters land on the trial sink, not the
// pool, so their merged totals stay jobs-invariant. recs is the calling
// executor session's recorded runs (nil: none).
func executeWire(req *TrialRequest, recs *recordings) *TrialResponse {
	kf, known := trialKinds[req.Kind]
	if !known {
		err := fmt.Errorf("harness: unknown trial kind %q (version skew between coordinator and worker?)", req.Kind)
		return &TrialResponse{Err: err.Error(), errVal: err}
	}
	s := wireSink(req)
	resp := &TrialResponse{HasFlight: s != nil && s.Flight != nil}
	budget := req.Faults.RetryBudget()
	lastAttempt := 0
	for attempt := 0; ; attempt++ {
		lastAttempt = attempt
		s.RecordFlight(obs.FlightEvent{
			Cycle: s.Cycles(), Trial: req.Index, Attempt: attempt,
			Kind: obs.FlightTrialStart, Detail: req.Stream,
		})
		tc := &Trial{
			Index:   req.Index,
			Attempt: attempt,
			Sink:    s,
			Faults:  faultinj.NewPlan(req.Faults, req.FaultSeed, req.Stream, req.Index, attempt, s),
			recs:    recs,
		}
		v, ok, err, pan := guardedCall(kf, req, tc)
		if pan == nil {
			switch {
			case err != nil:
				resp.Err, resp.errVal = err.Error(), err
			case ok:
				data, merr := json.Marshal(v)
				if merr != nil {
					merr = fmt.Errorf("harness: encode %q trial %d result: %w", req.Stream, req.Index, merr)
					resp.Err, resp.errVal = merr.Error(), merr
				} else {
					resp.Value, resp.OK = data, true
				}
			}
			break
		}
		s.Counter("harness.pool.panics").Inc()
		if attempt >= budget {
			s.Counter("harness.pool.degraded").Inc()
			s.RecordFlight(obs.FlightEvent{
				Cycle: s.Cycles(), Trial: req.Index, Attempt: attempt,
				Kind: obs.FlightTrialDegraded, Detail: fmt.Sprintf("panic: %v", pan),
			})
			resp.Degraded = &TrialDegraded{
				Attempts: attempt + 1,
				Panic:    fmt.Sprint(pan),
				// The segfault-handler moment: read the worker's ring
				// while the failure is still in its short-term memory.
				Events: s.FlightRecorder().Snapshot(),
				pan:    pan,
			}
			break
		}
		s.Counter("harness.pool.retries").Inc()
		s.RecordFlight(obs.FlightEvent{
			Cycle: s.Cycles(), Trial: req.Index, Attempt: attempt,
			Kind: obs.FlightTrialRetry, Detail: fmt.Sprintf("panic: %v", pan),
		})
	}
	// Drain the trial sink into the response — the disable-before-read
	// moment: the trial body has returned, nothing records into s anymore,
	// and only now is the telemetry serialized for the coordinator.
	if s != nil && s.Metrics != nil {
		snap := s.Metrics.Snapshot()
		resp.Metrics = &snap
	}
	if s != nil && s.Flight != nil {
		resp.Flight = s.Flight.Snapshot()
	}
	if s != nil && s.Trace != nil {
		d := s.Trace.Delta()
		resp.Trace = &d
	}
	resp.Ctx = &obs.Context{
		RunID: req.RunID, Stream: req.Stream, Trial: req.Index,
		Attempt: lastAttempt, Worker: selfWorkerID(),
	}
	return resp
}

// guardedCall runs one attempt of a trial body under recover, converting a
// panic into a non-nil pan result. The injected trial-panic layer fires
// here, inside the guard and before the body runs, so scheduled crashes
// exercise exactly the recovery path real ones take.
func guardedCall(kf kindFunc, req *TrialRequest, tc *Trial) (v any, ok bool, err error, pan any) {
	defer func() {
		if r := recover(); r != nil {
			v, ok, err, pan = nil, false, nil, r
		}
	}()
	if tc.Faults.Hit(faultinj.TrialPanic) {
		panic(faultinj.InjectedPanic{Trial: tc.Index, Attempt: tc.Attempt})
	}
	v, ok, err = kf(req.Params, req.Stream, tc)
	return
}

// selfWorkerID reports which executor worker this process is (from the
// environment the subprocess executor spawns workers with), or -1 for the
// coordinator process itself.
func selfWorkerID() int {
	if v := os.Getenv(WorkerIDEnv); v != "" {
		if id, err := strconv.Atoi(v); err == nil {
			return id
		}
	}
	return -1
}

// requestKey hashes a trial's identity into its artifact-store key. The
// fault spec and seed are part of the identity — the same stream and index
// under different injection specs are different trials (Table 8 reuses
// stream labels across four specs). Worker count, executor choice and
// telemetry arming are deliberately absent.
func requestKey(req *TrialRequest) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	// Encode of this closed struct cannot fail.
	_ = enc.Encode(struct {
		Stream    string          `json:"stream"`
		Index     int             `json:"index"`
		Kind      string          `json:"kind"`
		Params    json.RawMessage `json:"params"`
		Faults    faultinj.Spec   `json:"faults"`
		FaultSeed int64           `json:"faultSeed"`
	}{req.Stream, req.Index, req.Kind, req.Params, req.Faults, req.FaultSeed})
	return hex.EncodeToString(h.Sum(nil))
}

// wireOutcome converts an executed (or resumed) TrialResponse into the
// pool's trialOutcome, decoding the value and reconstructing degradation.
func wireOutcome[T any](label string, i int, resp *TrialResponse, persist func()) trialOutcome[T] {
	o := trialOutcome[T]{resp: resp, persist: persist}
	if d := resp.Degraded; d != nil {
		var pan any = d.Panic
		if d.pan != nil {
			pan = d.pan
		}
		o.degraded = &TrialError{Label: label, Trial: i, Attempts: d.Attempts, Panic: pan, Events: d.Events}
		return o
	}
	if err := resp.respErr(); err != nil {
		o.err = err
		return o
	}
	if !resp.OK {
		return o
	}
	var v T
	if err := json.Unmarshal(resp.Value, &v); err != nil {
		o.err = fmt.Errorf("harness: decode %q trial %d result: %w", label, i, err)
		return o
	}
	o.val, o.ok = v, true
	return o
}

// encodeStored renders the response's durable form. Local-only fields
// (errVal, Degraded.pan) are unexported and fall away, which is the point:
// the stored record equals what a subprocess worker would have sent — minus
// the correlation context, which names a scheduling fact (which worker ran
// the trial) and would otherwise make store contents executor-variant.
func encodeStored(resp *TrialResponse) ([]byte, error) {
	stored := *resp
	stored.Ctx = nil
	return json.Marshal(&stored)
}

// decodeStored parses a stored trial record.
func decodeStored(data []byte) (*TrialResponse, error) {
	var resp TrialResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// wireRunner dispatches one fan-out's trials through the pool's executor,
// with the artifact store as a read-through/write-behind cache: a verified
// stored result skips execution entirely; a fresh result is persisted at
// commit time, in trial order.
type wireRunner[T any] struct {
	kind   string
	params json.RawMessage
}

func (r wireRunner[T]) runOne(p *Pool, w int, label string, i int) trialOutcome[T] {
	req := p.wireRequest(label, i, r.kind, r.params)
	var key string
	if p.store != nil {
		key = requestKey(req)
		data, hit, aerr := p.store.Load(key)
		if aerr != nil {
			// Corrupt or torn artifact: the store already quarantined it
			// (typed *artifact.Error); fall through and re-execute, and the
			// fresh Put below repairs the store. Only if re-execution also
			// degrades does the failure surface, as a TrialError on the
			// insufficient-evidence path.
			p.sink.Counter("artifact.reexecuted").Inc()
		} else if hit {
			if resp, derr := decodeStored(data); derr == nil {
				return wireOutcome[T](label, i, resp, nil)
			}
		}
	}
	// Utilization timing, when armed, never feeds anything committed: trial
	// outcomes and merged telemetry stay pure functions of the request.
	var start time.Time
	if p.workerBusy != nil {
		start = time.Now()
	}
	resp, err := p.exec.Run(req)
	if p.workerBusy != nil {
		p.workerBusy[w].Add(uint64(time.Since(start)))
	}
	if err != nil {
		// Executor infrastructure failure (worker crashed repeatedly,
		// timed out past the retry budget): degrade the trial rather than
		// kill the run — identical handling to a trial whose every attempt
		// panicked. An *ExecutorError carries the crash flight events
		// (worker id, stderr tail) into the TrialError's tail.
		p.sink.Counter("harness.executor.failed_trials").Inc()
		te := &TrialError{Label: label, Trial: i, Attempts: 1, Panic: err}
		var ee *ExecutorError
		if errors.As(err, &ee) {
			te.Attempts = ee.Attempts
			te.Events = ee.Events
		}
		return trialOutcome[T]{degraded: te}
	}
	var persist func()
	if p.store != nil {
		store := p.store
		persist = func() {
			if data, err := encodeStored(resp); err == nil {
				// Put failures are counted by the store, never fatal:
				// losing durability must not fail a healthy trial.
				_ = store.Put(label, i, key, data)
			}
		}
	}
	return wireOutcome[T](label, i, resp, persist)
}

// CollectKind runs trials 0, 1, ... of stream — each one the registered
// kind body applied to params (JSON-marshaled once) — until `need` trials
// have been accepted or `max` trials are exhausted, fanning trials across
// the pool's workers. It returns the accepted values in trial-index order
// and the attempt count: the number of leading trials the sequential path
// would have executed (decisive index + 1). A rejected trial still counts
// toward attempts and telemetry, like a success run that happened to fail;
// a trial error aborts the collection at that trial. A degraded trial
// (every attempt panicked) is rejected, not fatal.
//
// The returned values, attempts and merged telemetry are byte-identical
// for every jobs setting and executor, fresh or resumed: acceptance is
// decided purely by trial index, and speculative trials past the decisive
// index are discarded unmerged.
func CollectKind[T any](p *Pool, max, need int, stream, kind string, params any) ([]T, int, error) {
	rn, err := newWireRunner[T](stream, kind, params)
	if err != nil {
		return nil, 0, err
	}
	out, attempts, _, err := run[T](p, max, need, stream, rn)
	return out, attempts, err
}

// FirstKind returns the first accepted result over trials 0..max-1 in
// trial order along with its trial index, or index -1 if no trial was
// accepted. Like CollectKind, the result is independent of the worker
// count.
func FirstKind[T any](p *Pool, max int, stream, kind string, params any) (T, int, error) {
	out, attempts, err := CollectKind[T](p, max, 1, stream, kind, params)
	if err != nil || len(out) == 0 {
		var zero T
		return zero, -1, err
	}
	return out[0], attempts - 1, nil
}

// MapKind runs trials 0..n-1 and returns all n results in index order. The
// first error (in trial-index order) aborts and is returned. Unlike
// CollectKind, a degraded trial is a hard error: MapKind callers index
// results positionally (the coverage period sweep, the overhead averages,
// the Table 9 corpus), so a silently missing element would misalign or
// skew them. Kinds run under MapKind accept every trial that returns no
// error.
func MapKind[T any](p *Pool, n int, stream, kind string, params any) ([]T, error) {
	rn, err := newWireRunner[T](stream, kind, params)
	if err != nil {
		return nil, err
	}
	out, _, degraded, err := run[T](p, n, n, stream, rn)
	if err != nil {
		return out, err
	}
	if degraded != nil {
		return out, degraded
	}
	return out, nil
}

// newWireRunner marshals params once per fan-out.
func newWireRunner[T any](stream, kind string, params any) (wireRunner[T], error) {
	raw, err := json.Marshal(params)
	if err != nil {
		return wireRunner[T]{}, fmt.Errorf("harness: encode %q params for %q: %w", kind, stream, err)
	}
	return wireRunner[T]{kind: kind, params: raw}, nil
}

// Executor runs trials. Implementations must be safe for
// concurrent Run calls (the pool's workers share one executor) and must
// return byte-identical TrialResponses for identical TrialRequests — the
// golden-table invariant rests on it. Run errors mean the execution
// infrastructure failed (not the trial body); the pool degrades such
// trials onto the insufficient-evidence path.
type Executor interface {
	Run(req *TrialRequest) (*TrialResponse, error)
	Close() error
}

// InprocExecutor runs trials in this process — the default. Trial sinks
// are built purely from the request (private registry, ring and tracer,
// merged by the pool at commit), identically to a subprocess worker. The
// executor is one session: it keeps the runs its trials recorded
// (record.go) for as long as it lives. The zero value is ready to use.
type InprocExecutor struct {
	recs recordings
}

// Run executes the trial on the calling goroutine.
func (e *InprocExecutor) Run(req *TrialRequest) (*TrialResponse, error) {
	return executeWire(req, &e.recs), nil
}

// Close is a no-op.
func (e *InprocExecutor) Close() error { return nil }

// WorkerEnv marks a process as a trial worker: when set, binaries that call
// cliobs.MaybeTrialWorker() run WorkerMain on stdin/stdout instead of their
// normal command. This lets any harness binary double as its own worker
// (-worker-bin defaults to the current executable).
const WorkerEnv = "STMDIAG_TRIAL_WORKER"

// WorkerIDEnv carries a subprocess worker's ordinal (its lane in the
// executor's freelist). Responses stamp it into their correlation context
// and the executor labels per-worker counters with it.
const WorkerIDEnv = "STMDIAG_TRIAL_WORKER_ID"

// wireCompactor strips merge-neutral telemetry repeats from one worker's
// response stream. A profiled trial registers every instrument family its
// code path touches, so most of a per-trial metrics delta is zero-valued
// counters and unobserved histograms — entries that exist on the wire only
// to mint the family in the coordinator's registry. Minting is idempotent
// and order-independent (a zero adds nothing whenever it merges), so each
// wire session ships every family once and suppresses the repeats; the
// same goes for trace track names, which re-register identically on every
// trial. This roughly halves the serialized delta for fully-armed runs
// without touching the merged result: byte-identity of the final sink is
// what the federation gate checks, and it is preserved by construction.
type wireCompactor struct {
	counters map[string]bool   // zero-valued counter families already shipped
	hists    map[string]bool   // unobserved histogram families already shipped
	tracks   map[string]string // trace track names already shipped, by "pid/tid"
}

func newWireCompactor() *wireCompactor {
	return &wireCompactor{
		counters: map[string]bool{},
		hists:    map[string]bool{},
		tracks:   map[string]string{},
	}
}

// compact rewrites resp in place. Nonzero values always ship (and mark the
// family as minted); zero-valued repeats drop. A histogram's bounds ship
// only on the session's first response for that family: a worker executes
// its trials in increasing index order and the coordinator folds deltas in
// that same order (live commits and artifact replay alike), so the minting
// delta always merges before any stripped one and Registry.Merge folds the
// bounds-less counts positionally into the already-minted family.
func (c *wireCompactor) compact(resp *TrialResponse) {
	if resp == nil {
		return
	}
	if resp.Metrics != nil {
		for name, v := range resp.Metrics.Counters {
			if v == 0 && c.counters[name] {
				delete(resp.Metrics.Counters, name)
				continue
			}
			c.counters[name] = true
		}
		for name, h := range resp.Metrics.Histograms {
			if c.hists[name] {
				if h.Count == 0 && h.Sum == 0 {
					delete(resp.Metrics.Histograms, name)
					continue
				}
				h.Bounds = nil
				resp.Metrics.Histograms[name] = h
			}
			c.hists[name] = true
		}
	}
	if resp.Trace != nil {
		resp.Trace.Procs = c.compactTracks(resp.Trace.Procs)
		resp.Trace.Threads = c.compactTracks(resp.Trace.Threads)
	}
}

func (c *wireCompactor) compactTracks(tracks []obs.TrackName) []obs.TrackName {
	kept := tracks[:0]
	for _, tr := range tracks {
		key := strconv.Itoa(tr.PID) + "/" + strconv.Itoa(tr.TID)
		if name, ok := c.tracks[key]; ok && name == tr.Name {
			continue
		}
		c.tracks[key] = tr.Name
		kept = append(kept, tr)
	}
	return kept
}

// WorkerMain is the trial-worker protocol loop: JSON TrialRequests in,
// JSON TrialResponses out, one per line, strictly in lockstep. Any
// protocol error terminates the worker — the coordinating executor kills
// and respawns workers rather than attempting to resynchronize a stream.
// Responses are compacted per session: merge-neutral repeats (zero-valued
// families, unchanged track names) ship only once per worker lifetime. The
// session also keeps the runs its trials recorded (record.go).
func WorkerMain(r io.Reader, w io.Writer) error {
	dec := json.NewDecoder(bufio.NewReader(r))
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	comp := newWireCompactor()
	var recs recordings
	for {
		var req TrialRequest
		if err := dec.Decode(&req); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("harness: worker decode request: %w", err)
		}
		resp := executeWire(&req, &recs)
		comp.compact(resp)
		if err := enc.Encode(resp); err != nil {
			return fmt.Errorf("harness: worker encode response: %w", err)
		}
		if err := bw.Flush(); err != nil {
			return fmt.Errorf("harness: worker flush response: %w", err)
		}
	}
}

// compile-time interface checks
var (
	_ Executor = (*InprocExecutor)(nil)
	_ error    = (*artifact.Error)(nil)
)
