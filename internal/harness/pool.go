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
//  2. Selection is by trial index. CollectKind accepts the first `need`
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

	// sess is the executor session the trial runs in: its recorded runs,
	// which certified profile, cbi-run and mean-cycles trials derive
	// their results from (record.go), its decoded params and its VM
	// storage (kinds.go). Nil runs every trial on the VM, from scratch.
	sess *session
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

	// exec runs every trial. Always non-nil: NewPool installs the
	// in-process executor; WithExecutor swaps in an alternative (the
	// subprocess fleet).
	exec Executor
	// store, when non-nil, is the durable artifact store: trials check it
	// before executing and persist into it at commit time.
	store *artifact.Store

	workerTrials []*obs.Counter // per-worker executed-trial counters
	trials       *obs.Counter   // trials executed (incl. speculation)
	committed    *obs.Counter   // trials whose telemetry was committed
	discarded    *obs.Counter   // speculative trials thrown away
	spans        *obs.Counter   // fan-outs traced

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

// WithExecutor routes every trial through e.
// The default is the in-process executor; the subprocess executor isolates
// trial crashes in worker processes. Returns p for chaining.
func (p *Pool) WithExecutor(e Executor) *Pool {
	if e != nil {
		p.exec = e
	}
	return p
}

// WithArtifacts attaches a durable artifact store: trials resume
// from verified stored results and persist fresh results as they commit,
// in trial order. Returns p for chaining.
func (p *Pool) WithArtifacts(s *artifact.Store) *Pool {
	p.store = s
	return p
}

// wireRequest assembles one trial's request, arming its private telemetry
// to mirror what the pool's sink carries.
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

// commit folds one executed trial's telemetry into the parent sink. The
// response is detached from any sink, so it merges identically whether the
// trial ran on this goroutine, in a subprocess worker, or was loaded back
// from the artifact store. The trial's flight-recorder ring appends to the
// pipeline ring here — in trial order, never arrival order — so pipeline
// ring contents are byte-identical for every worker count.
func (p *Pool) commit(i int, resp *TrialResponse, persist func()) {
	p.committed.Inc()
	if p.sink != nil && resp != nil {
		if resp.Metrics != nil && p.sink.Metrics != nil {
			p.sink.Metrics.Merge(*resp.Metrics)
		}
		if resp.Trace != nil && p.sink.Trace != nil {
			// The trial's spans shift onto the run clock and the clock
			// advances by the trial's cycles — end-to-end layout, exactly
			// as if the trial had recorded into the run tracer directly.
			p.sink.Trace.MergeDelta(*resp.Trace)
		}
		if p.sink.Flight != nil && resp.HasFlight {
			p.sink.Flight.Append(resp.Flight)
			p.sink.RecordFlight(obs.FlightEvent{
				Cycle: p.sink.Cycles(), Trial: i, Kind: obs.FlightTrialCommit,
			})
		}
	}
	if persist != nil {
		persist()
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
	val      T
	ok       bool
	err      error
	degraded *TrialError
	// resp carries the trial's telemetry (nil when the executor failed
	// before the trial ran). persist, when non-nil, is the artifact store's
	// write-behind hook, invoked after the telemetry merge so results land
	// durably in commit order and a resumed run replays the exact
	// committed prefix.
	resp    *TrialResponse
	persist func()
}

// run is the traced entry point shared by CollectKind, MapKind and
// FirstKind; it also surfaces the first degraded trial for callers
// (MapKind) that must not skip.
func run[T any](p *Pool, max, need int, label string, rn wireRunner[T]) ([]T, int, *TrialError, error) {
	if need <= 0 || max <= 0 {
		return nil, 0, nil, nil
	}
	p.spans.Inc()
	if p.store != nil {
		rn.keys = newTrialKeys(p.wireRequest(label, 0, rn.kind, rn.params))
	}
	rn.names = make([]map[string]string, p.jobs)
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
func collect[T any](p *Pool, max, need int, label string, rn wireRunner[T]) ([]T, int, *TrialError, error) {
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
			p.commit(i, r.resp, r.persist)
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
				p.commit(commitNext, r.resp, r.persist)
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
