package harness

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"stmdiag/internal/artifact"
	"stmdiag/internal/faultinj"
	"stmdiag/internal/obs"
)

// This file is the harness's trial-execution engine. The paper's evaluation
// reruns every benchmark hundreds of times (10+10 runs per LBRA/LCRA
// diagnosis, 1000+1000 per CBI baseline, §7.2), and every one of those
// trials is independent: it owns its VM, its RNG seed and its profile. The
// Pool fans trials out across workers while keeping every observable result
// — selected profiles, attempt counts, merged telemetry — byte-identical to
// the sequential order, whatever the worker count or goroutine scheduling.
//
// Three properties make that determinism hold:
//
//  1. Seeds are derived, not streamed. TrialSeed hashes (base seed, stream
//     label, trial index), so trial i's seed never depends on how many
//     earlier trials were retried or on which worker runs it.
//
//  2. Selection is by trial index. Collect accepts the first `need`
//     accepted trials in index order; workers past the decisive index only
//     ever do speculative work that is discarded.
//
//  3. Telemetry commits in trial order. Each trial runs against a private
//     metrics registry; the pool merges registries into the parent sink for
//     exactly the trials the sequential path would have executed (index <=
//     decisive), so `-metrics` totals and the per-table run/cycle summaries
//     do not depend on -jobs.
//
// The pool is also the harness's failure boundary. A trial that panics —
// whether from an injected fault (-faults panic=...) or a real bug — never
// takes down the run: the panic is recovered, the trial retried up to a
// deterministic budget, and a still-failing trial recorded as a degraded
// TrialError. Because fault plans and retry outcomes are derived purely
// from (spec, base seed, stream, trial, attempt), degradation decisions are
// identical for every worker count too.

// TrialSeed derives one trial's RNG seed from the experiment's base seed, a
// stream label (by convention "app-name/purpose") and the trial index. The
// mix is splitmix64 over an FNV-1a hash of the label, so distinct streams
// and distinct trials decorrelate fully while staying reproducible across
// processes and worker counts.
func TrialSeed(base int64, stream string, trial int) int64 {
	const (
		fnvOffset = 0xcbf29ce484222325
		fnvPrime  = 0x100000001b3
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= fnvPrime
	}
	x := h ^ uint64(base)*0x9e3779b97f4a7c15 ^ uint64(trial)*0xbf58476d1ce4e5b9
	// splitmix64 finalizer.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	// Keep seeds non-negative: workload seeds double as attempt labels in
	// error messages and some call sites reserve negative values.
	return int64(x >> 1)
}

// Trial is the context one trial attempt runs with: its index in the
// stream, which retry attempt this is (0 = first), the private telemetry
// sink its run reports into, and the fault plan scheduled for this attempt
// (nil when fault injection is off).
type Trial struct {
	Index   int
	Attempt int
	Sink    *obs.Sink
	Faults  *faultinj.Plan

	// recs is the executor session's recorded runs, which certified
	// cbi-run and mean-cycles trials derive their results from (record.go);
	// nil runs every trial on the VM.
	recs *recordings
}

// TrialError records a trial that exhausted its retry budget: every attempt
// panicked. The pool treats such a trial as degraded — rejected in Collect
// and First, a hard error in Map (whose callers need all results).
type TrialError struct {
	// Label is the trial stream, Trial the index within it.
	Label string
	Trial int
	// Attempts is how many times the trial ran (1 + retries).
	Attempts int
	// Panic is the value the final attempt panicked with.
	Panic any
	// Events is the trial's flight-recorder tail: the last events its
	// worker recorded across all attempts (starts, injected faults,
	// retries), read at the moment of degradation the way the paper's
	// segfault handler reads the LBR (§3.2). Empty when the run carried
	// no flight recorder. Contents are identical for every -jobs value.
	Events []obs.FlightEvent
}

func (e *TrialError) Error() string {
	msg := fmt.Sprintf("harness: trial %d of %q degraded after %d attempts: panic: %v",
		e.Trial, e.Label, e.Attempts, e.Panic)
	if n := len(e.Events); n > 0 {
		msg += fmt.Sprintf(" (flight recorder: %d events)", n)
	}
	return msg
}

// FlightTail renders the trial's recorded flight events, one per line.
func (e *TrialError) FlightTail() string {
	var b strings.Builder
	for _, ev := range e.Events {
		fmt.Fprintf(&b, "%s\n", ev)
	}
	return b.String()
}

// Pool executes independent trials across a fixed number of workers.
// A Pool is cheap (no long-lived goroutines); build one per experiment via
// Config.pool or NewPool and share it across that experiment's fan-outs.
type Pool struct {
	jobs int
	sink *obs.Sink

	faults    faultinj.Spec // fault-injection spec; zero = off
	faultSeed int64         // base seed fault plans derive from

	// runID correlates every telemetry delta this pool's trials produce
	// (obs.Context). Derived from the experiment seed, so two processes
	// running the same configuration agree on it.
	runID uint64

	// exec runs portable trials (CollectKind/MapKind/FirstKind). Always
	// non-nil: NewPool installs the in-process executor; WithExecutor swaps
	// in an alternative (the subprocess fleet). Closure-based trials
	// (Collect/Map/First) never touch it.
	exec Executor
	// store, when non-nil, is the durable artifact store: portable trials
	// check it before executing and persist into it at commit time.
	store *artifact.Store

	workerTrials []*obs.Counter // per-worker executed-trial counters
	trials       *obs.Counter   // trials executed (incl. speculation)
	committed    *obs.Counter   // trials whose telemetry was committed
	discarded    *obs.Counter   // speculative trials thrown away
	spans        *obs.Counter   // Collect/Map fan-outs traced

	// Worker-utilization instruments (internal/prof), armed only when the
	// sink profiles. These measure real wall clock and real scheduling, so
	// — unlike every committed counter — they are jobs-variant by design
	// and live on the parent sink directly, never on trial sinks.
	workerBusy  []*obs.Counter // per-worker ns spent executing trials
	workerIdle  []*obs.Counter // per-worker ns spent waiting for work
	queueDepth  *obs.Gauge     // trials dispatched but not yet returned
	commitStall *obs.Counter   // ns completed trials waited for in-order commit

	mu       sync.Mutex
	degraded *TrialError // first degraded trial, in trial order
}

// NewPool returns a pool running up to jobs trials concurrently. jobs <= 0
// selects runtime.NumCPU(); jobs == 1 is the strictly sequential path (no
// goroutines, no speculation). The sink, when non-nil, receives pool
// counters ("harness.pool.*") and — if it carries a tracer — fan-out spans
// on the obs.PoolPID track group.
func NewPool(jobs int, sink *obs.Sink) *Pool {
	if jobs <= 0 {
		jobs = runtime.NumCPU()
	}
	p := &Pool{jobs: jobs, sink: sink, exec: &InprocExecutor{}}
	if sink != nil && sink.Metrics != nil {
		p.trials = sink.Counter("harness.pool.trials")
		p.committed = sink.Counter("harness.pool.committed")
		p.discarded = sink.Counter("harness.pool.discarded")
		p.spans = sink.Counter("harness.pool.fanouts")
		p.workerTrials = make([]*obs.Counter, jobs)
		for w := 0; w < jobs; w++ {
			p.workerTrials[w] = sink.Counter(fmt.Sprintf("harness.pool.worker%d.trials", w))
		}
		if sink.Profiled() {
			p.workerBusy = make([]*obs.Counter, jobs)
			p.workerIdle = make([]*obs.Counter, jobs)
			for w := 0; w < jobs; w++ {
				p.workerBusy[w] = sink.Counter(fmt.Sprintf("harness.pool.worker%d.busy_ns", w))
				p.workerIdle[w] = sink.Counter(fmt.Sprintf("harness.pool.worker%d.idle_ns", w))
			}
			p.queueDepth = sink.Gauge("harness.pool.queue.depth")
			p.commitStall = sink.Counter("harness.pool.commit.stall_ns")
		}
	}
	if tr := sink.Tracer(); tr != nil {
		tr.SetProcessName(obs.PoolPID, "pool")
		// Only the fan-out lane is always named: per-worker lanes are a
		// scheduling fact, so registering them would make trace bytes vary
		// with -jobs. They come back under -profile-report, whose
		// wall-clock utilization view is jobs-variant by design.
		tr.SetThreadName(obs.PoolPID, 0, "worker 0")
		if sink.Profiled() {
			for w := 1; w < jobs; w++ {
				tr.SetThreadName(obs.PoolPID, w, fmt.Sprintf("worker %d", w))
			}
		}
	}
	return p
}

// WithFaults arms the pool's fault-injection engine: every trial attempt
// derives a faultinj.Plan from (spec, seed, stream label, trial, attempt)
// and carries it in its Trial context. A disabled spec leaves plans nil.
// Returns p for chaining.
func (p *Pool) WithFaults(spec faultinj.Spec, seed int64) *Pool {
	p.faults = spec
	p.faultSeed = seed
	return p
}

// WithRunID stamps the correlation run ID every trial response's
// obs.Context carries. Callers derive it from the experiment seed (see
// RunID), so it is identical across processes, worker counts and resumes.
// Returns p for chaining.
func (p *Pool) WithRunID(id uint64) *Pool {
	p.runID = id
	return p
}

// RunID derives a pool's correlation run ID from an experiment's base seed
// and label: the same splitmix64 mix as TrialSeed, so any process running
// the same configuration stamps its telemetry identically.
func RunID(seed int64, label string) uint64 {
	return uint64(TrialSeed(seed, "runid/"+label, 0))
}

// WithExecutor routes portable trials (CollectKind and friends) through e.
// The default is the in-process executor; the subprocess executor isolates
// trial crashes in worker processes. Returns p for chaining.
func (p *Pool) WithExecutor(e Executor) *Pool {
	if e != nil {
		p.exec = e
	}
	return p
}

// WithArtifacts attaches a durable artifact store: portable trials resume
// from verified stored results and persist fresh results as they commit,
// in trial order. Returns p for chaining.
func (p *Pool) WithArtifacts(s *artifact.Store) *Pool {
	p.store = s
	return p
}

// executor returns the pool's trial executor (never nil).
func (p *Pool) executor() Executor { return p.exec }

// wireRequest assembles the portable form of one trial, arming the worker-
// side telemetry to mirror what trialSink would build locally.
func (p *Pool) wireRequest(stream string, i int, kind string, params json.RawMessage) *TrialRequest {
	req := &TrialRequest{
		Stream: stream, Index: i, Kind: kind, Params: params,
		Faults: p.faults, FaultSeed: p.faultSeed,
	}
	if p.sink != nil {
		req.Metrics = p.sink.Metrics != nil
		req.Flight = p.sink.Flight != nil
		req.Trace = p.sink.Trace != nil
		req.Profiling = p.sink.Profiling
		req.Verbosity = p.sink.Verbosity
	}
	req.RunID = p.runID
	return req
}

// Jobs returns the worker count.
func (p *Pool) Jobs() int { return p.jobs }

// trialSink builds the private sink one trial runs against: its own metrics
// registry, its own flight-recorder ring when the parent carries one (the
// per-worker short-term memory of the trial it is running), and its own
// tracer when the parent traces — all merged into the parent at commit
// time, in trial order, so every half of the telemetry is independent of
// worker scheduling. Nil parent sink means nil trial sinks.
func (p *Pool) trialSink() *obs.Sink {
	if p.sink == nil {
		return nil
	}
	s := &obs.Sink{Verbosity: p.sink.Verbosity, Profiling: p.sink.Profiling}
	if p.sink.Metrics != nil {
		s.Metrics = obs.NewRegistry()
	}
	if p.sink.Flight != nil {
		s.Flight = obs.NewFlightRecorder(obs.DefaultTrialFlightCap)
	}
	if p.sink.Trace != nil {
		s.Trace = obs.NewTracer()
	}
	return s
}

// trialTelemetry is one executed trial's observable side effects, parked
// with its outcome until the commit scan reaches its index. It is already
// detached from any sink (snapshots, not live registries), so it carries
// identically whether the trial ran on this goroutine, in a subprocess
// worker, or was loaded back from the artifact store.
type trialTelemetry struct {
	metrics *obs.Snapshot     // private-registry snapshot; nil when unarmed
	flight  []obs.FlightEvent // trial ring contents
	hasRing bool              // the trial carried a flight ring (even if empty)
	trace   *obs.TraceDelta   // private-tracer delta; nil when untraced
	// persist, when non-nil, is invoked after the telemetry merge — the
	// artifact store's write-behind hook, so results land durably in commit
	// order and a resumed run replays the exact committed prefix.
	persist func()
}

// telemetryOf snapshots a trial sink into its portable telemetry.
func telemetryOf(s *obs.Sink) trialTelemetry {
	var t trialTelemetry
	if s == nil {
		return t
	}
	if s.Metrics != nil {
		snap := s.Metrics.Snapshot()
		t.metrics = &snap
	}
	if s.Flight != nil {
		t.flight = s.Flight.Snapshot()
		t.hasRing = true
	}
	if s.Trace != nil {
		d := s.Trace.Delta()
		t.trace = &d
	}
	return t
}

// commit folds one executed trial's telemetry into the parent sink. The
// trial's flight-recorder ring appends to the pipeline ring here — in
// trial order, never arrival order — so pipeline ring contents are
// byte-identical for every worker count.
func (p *Pool) commit(i int, t trialTelemetry) {
	p.committed.Inc()
	if p.sink != nil {
		if t.metrics != nil && p.sink.Metrics != nil {
			p.sink.Metrics.Merge(*t.metrics)
		}
		if t.trace != nil && p.sink.Trace != nil {
			// The trial's spans shift onto the run clock and the clock
			// advances by the trial's cycles — end-to-end layout, exactly
			// as if the trial had recorded into the run tracer directly.
			p.sink.Trace.MergeDelta(*t.trace)
		}
		if p.sink.Flight != nil && t.hasRing {
			p.sink.Flight.Append(t.flight)
			p.sink.RecordFlight(obs.FlightEvent{
				Cycle: p.sink.Cycles(), Trial: i, Kind: obs.FlightTrialCommit,
			})
		}
	}
	if t.persist != nil {
		t.persist()
	}
}

// noteDegraded keeps the first degraded trial of the pool's lifetime (the
// callers hand it the first in trial order per fan-out, so the stored
// value is jobs-invariant).
func (p *Pool) noteDegraded(e *TrialError) {
	if e == nil {
		return
	}
	p.mu.Lock()
	if p.degraded == nil {
		p.degraded = e
	}
	p.mu.Unlock()
}

// FirstDegraded returns the first degraded trial this pool has seen (in
// trial order within the first fan-out that had one), or nil. The harness
// attaches its flight-recorder tail to the diagnosis report.
func (p *Pool) FirstDegraded() *TrialError {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.degraded
}

// trialOutcome is one executed trial, parked until the commit scan reaches
// its index.
type trialOutcome[T any] struct {
	val       T
	ok        bool
	err       error
	degraded  *TrialError
	telemetry trialTelemetry
}

// trialRunner produces one trial's outcome for the pool's dispatch loop.
// fnRunner executes closure trials on the calling goroutine; wireRunner
// (wire.go) routes portable trials through the executor and artifact store.
type trialRunner[T any] interface {
	runOne(p *Pool, w int, label string, i int) trialOutcome[T]
}

// fnRunner wraps a closure trial body.
type fnRunner[T any] struct {
	fn func(*Trial) (T, bool, error)
}

func (r fnRunner[T]) runOne(p *Pool, w int, label string, i int) trialOutcome[T] {
	return timedRun(p, w, func() trialOutcome[T] { return runTrial(p, label, i, r.fn) })
}

// runTrial executes one trial through the retry loop: recover every panic,
// re-attempt up to the deterministic budget, then mark the trial degraded.
// One sink spans all attempts of the trial, so a panicked attempt's partial
// telemetry commits with it (deterministically — the attempt sequence is a
// pure function of the derivation tuple). Counters are recorded on the
// trial sink, not the pool, so their merged totals stay jobs-invariant.
func runTrial[T any](p *Pool, label string, i int, fn func(*Trial) (T, bool, error)) trialOutcome[T] {
	s := p.trialSink()
	budget := p.faults.RetryBudget()
	for attempt := 0; ; attempt++ {
		s.RecordFlight(obs.FlightEvent{
			Cycle: s.Cycles(), Trial: i, Attempt: attempt,
			Kind: obs.FlightTrialStart, Detail: label,
		})
		tc := &Trial{
			Index:   i,
			Attempt: attempt,
			Sink:    s,
			Faults:  faultinj.NewPlan(p.faults, p.faultSeed, label, i, attempt, s),
		}
		v, ok, err, pan := guardedCall(fn, tc)
		if pan == nil {
			return trialOutcome[T]{val: v, ok: ok, err: err, telemetry: telemetryOf(s)}
		}
		s.Counter("harness.pool.panics").Inc()
		if attempt >= budget {
			s.Counter("harness.pool.degraded").Inc()
			s.RecordFlight(obs.FlightEvent{
				Cycle: s.Cycles(), Trial: i, Attempt: attempt,
				Kind: obs.FlightTrialDegraded, Detail: fmt.Sprintf("panic: %v", pan),
			})
			return trialOutcome[T]{
				degraded: &TrialError{
					Label: label, Trial: i, Attempts: attempt + 1, Panic: pan,
					// The segfault-handler moment: read the worker's ring
					// while the failure is still in its short-term memory.
					Events: s.FlightRecorder().Snapshot(),
				},
				telemetry: telemetryOf(s),
			}
		}
		s.Counter("harness.pool.retries").Inc()
		s.RecordFlight(obs.FlightEvent{
			Cycle: s.Cycles(), Trial: i, Attempt: attempt,
			Kind: obs.FlightTrialRetry, Detail: fmt.Sprintf("panic: %v", pan),
		})
	}
}

// guardedCall invokes fn under recover, converting a panic into a non-nil
// pan result. The injected trial-panic layer fires here, inside the guard,
// so scheduled crashes exercise exactly the recovery path real ones take.
func guardedCall[T any](fn func(*Trial) (T, bool, error), tc *Trial) (v T, ok bool, err error, pan any) {
	defer func() {
		if r := recover(); r != nil {
			var zero T
			v, ok, err, pan = zero, false, nil, r
		}
	}()
	if tc.Faults.Hit(faultinj.TrialPanic) {
		panic(faultinj.InjectedPanic{Trial: tc.Index, Attempt: tc.Attempt})
	}
	v, ok, err = fn(tc)
	return
}

// Collect runs fn(0), fn(1), ... until `need` trials have been accepted or
// `max` trials are exhausted, fanning trials across the pool's workers. It
// returns the accepted values in trial-index order and the attempt count:
// the number of leading trials the sequential path would have executed
// (decisive index + 1). fn reports ok=false to reject a trial (its run
// still counts toward attempts and telemetry, like a success run that
// happened to fail); a non-nil error aborts the collection at that trial.
// A degraded trial (every attempt panicked) is rejected, not fatal.
//
// The returned values, attempts and merged telemetry are byte-identical
// for every jobs setting: acceptance is decided purely by trial index, and
// speculative trials past the decisive index are discarded unmerged.
func Collect[T any](p *Pool, max, need int, label string, fn func(tc *Trial) (T, bool, error)) ([]T, int, error) {
	out, attempts, _, err := run[T](p, max, need, label, fnRunner[T]{fn})
	return out, attempts, err
}

// run is the traced entry point shared by Collect, Map, First and their
// portable Kind variants; it also surfaces the first degraded trial for
// callers (Map) that must not skip.
func run[T any](p *Pool, max, need int, label string, rn trialRunner[T]) ([]T, int, *TrialError, error) {
	if need <= 0 || max <= 0 {
		return nil, 0, nil, nil
	}
	p.spans.Inc()
	var traceStart uint64
	tr := p.sink.Tracer()
	if tr != nil {
		traceStart = tr.Base()
	}
	out, attempts, degraded, err := collect(p, max, need, label, rn)
	p.noteDegraded(degraded)
	if tr != nil {
		end := tr.Base()
		// Span args carry only jobs-invariant facts; the worker count is a
		// scheduling detail and would break cross-jobs trace identity.
		tr.Complete("pool:"+label, "pool", traceStart, end-traceStart, obs.PoolPID, 0,
			map[string]any{"attempts": attempts, "accepted": len(out), "max": max})
	}
	return out, attempts, degraded, err
}

// collect is run without the tracing shell.
func collect[T any](p *Pool, max, need int, label string, rn trialRunner[T]) ([]T, int, *TrialError, error) {
	var firstDegraded *TrialError
	if p.jobs == 1 {
		// Sequential path: run trials in order, stop exactly at the
		// decisive one. This is byte-identical to the parallel path below
		// and does zero speculative work.
		var out []T
		for i := 0; i < max; i++ {
			p.trials.Inc()
			p.workerTrial(0)
			r := rn.runOne(p, 0, label, i)
			p.commit(i, r.telemetry)
			if r.err != nil {
				return out, i + 1, firstDegraded, r.err
			}
			if r.degraded != nil && firstDegraded == nil {
				firstDegraded = r.degraded
			}
			if r.ok {
				out = append(out, r.val)
				if len(out) == need {
					return out, i + 1, firstDegraded, nil
				}
			}
		}
		return out, max, firstDegraded, nil
	}

	// Parallel path: jobs worker goroutines pull trial indexes from idxCh;
	// the coordinator commits decided trials in index order and stops
	// dispatching once the decisive trial is known. At most `jobs` trials
	// are ever in flight, so the speculation window (work that may be
	// discarded) is bounded by the worker count.
	type done struct {
		i int
		trialOutcome[T]
	}
	var (
		idxCh = make(chan int)
		resCh = make(chan done, p.jobs)
		wg    sync.WaitGroup
	)
	for w := 0; w < p.jobs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			last := time.Now()
			for i := range idxCh {
				p.trials.Inc()
				p.workerTrial(w)
				if p.workerIdle != nil {
					now := time.Now()
					p.workerIdle[w].Add(uint64(now.Sub(last)))
				}
				r := rn.runOne(p, w, label, i)
				if p.workerIdle != nil {
					last = time.Now()
				}
				resCh <- done{i, r}
			}
		}(w)
	}

	var (
		results = make(map[int]trialOutcome[T])
		out     []T

		next        int  // next trial index to dispatch
		outstanding int  // dispatched, not yet returned
		commitNext  int  // next trial index to commit
		finished    bool // need met or error hit: stop dispatching
		abortErr    error
		attempts    int

		// arrivals timestamps completed trials parked for in-order commit;
		// only maintained when the commit-stall instrument is armed.
		arrivals map[int]time.Time
	)
	if p.commitStall != nil {
		arrivals = make(map[int]time.Time)
	}
	for {
		var send chan int
		if !finished && next < max {
			send = idxCh
		}
		if send == nil && outstanding == 0 {
			break
		}
		select {
		case send <- next:
			next++
			outstanding++
			p.queueDepth.Set(int64(outstanding))
		case d := <-resCh:
			outstanding--
			p.queueDepth.Set(int64(outstanding))
			results[d.i] = d.trialOutcome
			if arrivals != nil {
				arrivals[d.i] = time.Now()
			}
			// Commit every contiguous decided trial in index order.
			for !finished {
				r, ready := results[commitNext]
				if !ready {
					break
				}
				delete(results, commitNext)
				if arrivals != nil {
					if t0, ok := arrivals[commitNext]; ok {
						p.commitStall.Add(uint64(time.Since(t0)))
						delete(arrivals, commitNext)
					}
				}
				p.commit(commitNext, r.telemetry)
				commitNext++
				if r.err != nil {
					abortErr = r.err
					attempts = commitNext
					finished = true
					break
				}
				if r.degraded != nil && firstDegraded == nil {
					firstDegraded = r.degraded
				}
				if r.ok {
					out = append(out, r.val)
					if len(out) == need {
						attempts = commitNext
						finished = true
					}
				}
			}
		}
	}
	close(idxCh)
	wg.Wait()
	p.discarded.Add(uint64(len(results)))
	if !finished {
		attempts = max // exhausted the attempt budget
	}
	return out, attempts, firstDegraded, abortErr
}

// workerTrial bumps one worker's executed-trial counter.
func (p *Pool) workerTrial(w int) {
	if p.workerTrials == nil {
		return
	}
	p.workerTrials[w].Inc()
}

// timedRun runs one trial attempt sequence, charging its wall time to the
// worker's busy counter when utilization tracking is armed. The timestamps
// never feed anything committed: trial outcomes and merged telemetry stay
// pure functions of (seed, stream, index).
func timedRun[T any](p *Pool, w int, f func() trialOutcome[T]) trialOutcome[T] {
	if p.workerBusy == nil {
		return f()
	}
	start := time.Now()
	r := f()
	p.workerBusy[w].Add(uint64(time.Since(start)))
	return r
}

// Map runs fn(0..n-1) across the pool and returns all n results in index
// order. The first error (in trial-index order) aborts and is returned.
// Unlike Collect, a degraded trial is a hard error: Map callers index
// results positionally (e.g. CoverageSweep's period sweep, the overhead
// averages), so a silently missing element would misalign or skew them.
func Map[T any](p *Pool, n int, label string, fn func(tc *Trial) (T, error)) ([]T, error) {
	out, _, degraded, err := run[T](p, n, n, label, fnRunner[T]{func(tc *Trial) (T, bool, error) {
		v, err := fn(tc)
		return v, err == nil, err
	}})
	if err != nil {
		return out, err
	}
	if degraded != nil {
		return out, degraded
	}
	return out, nil
}

// First runs fn over trials 0..max-1 and returns the first accepted result
// in trial order along with its trial index, or index -1 if no trial was
// accepted. Like Collect, the result is independent of the worker count.
func First[T any](p *Pool, max int, label string, fn func(tc *Trial) (T, bool, error)) (T, int, error) {
	out, attempts, err := Collect(p, max, 1, label, fn)
	if err != nil || len(out) == 0 {
		var zero T
		return zero, -1, err
	}
	return out[0], attempts - 1, nil
}
