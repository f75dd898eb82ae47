package vm

import (
	"fmt"

	"stmdiag/internal/obs"
	"stmdiag/internal/prof"
)

// vmTelemetry caches one machine's telemetry handles. The zero value is
// fully detached: the instrs/preempts slices are nil and every counter is
// nil, so with no sink the hot path pays exactly one nil check.
type vmTelemetry struct {
	sink  *obs.Sink
	trace *obs.Tracer // nil unless the sink carries a tracer

	instrs   []*obs.Counter // instructions retired, per core
	preempts []*obs.Counter // scheduler preemptions, per core
	traps    *obs.Counter
	bts      *obs.Counter
	profFail *obs.Counter
	profSucc *obs.Counter
	runs     *obs.Counter
	cycles   *obs.Counter
	steps    *obs.Counter

	runCycles *obs.Histogram
	runSteps  *obs.Histogram

	// prof accumulates per-opcode dispatch costs when the sink arms
	// profiling; nil otherwise, so the dispatch loop pays one nil check.
	prof *prof.VMProf
}

// attachObs resolves the machine's counters ("vm.*") and wires the cache
// domain, per-core LBRs and (as they spawn) per-thread LCRs to the sink.
// Called once from New when Options.Obs is set.
func (m *Machine) attachObs(s *obs.Sink) {
	m.tel.sink = s
	m.tel.trace = s.Tracer()
	m.tel.instrs = make([]*obs.Counter, len(m.cores))
	m.tel.preempts = make([]*obs.Counter, len(m.cores))
	for i := range m.cores {
		m.tel.instrs[i] = s.Counter(fmt.Sprintf("vm.instrs.core%d", i))
		m.tel.preempts[i] = s.Counter(fmt.Sprintf("vm.preempts.core%d", i))
		m.cores[i].LBR.AttachObs(s)
		if m.tel.trace != nil {
			m.tel.trace.SetProcessName(i, fmt.Sprintf("core %d", i))
		}
	}
	m.tel.traps = s.Counter("vm.traps")
	m.tel.bts = s.Counter("vm.bts.records")
	m.tel.profFail = s.Counter("vm.profiles.failure")
	m.tel.profSucc = s.Counter("vm.profiles.success")
	m.tel.runs = s.Counter("vm.runs")
	m.tel.cycles = s.Counter("vm.cycles")
	m.tel.steps = s.Counter("vm.steps")
	m.tel.runCycles = s.Histogram("vm.run.cycles", obs.DefaultCycleBounds)
	m.tel.runSteps = s.Histogram("vm.run.steps", obs.DefaultCycleBounds)
	if s.Profiled() {
		m.tel.prof = prof.NewVMProf()
	}
	m.cache.AttachObs(s)
}

// stepProf dispatches one step, attributing its cycle-clock delta to the
// fetched opcode; Run steps through it instead of step when profiling is
// armed. Attribution only reads the machine (PC, cycle counter), so the
// simulation itself is bit-identical with profiling on or off.
func (m *Machine) stepProf(t *Thread) (yield bool, err error) {
	slot := prof.InvalidSlot
	if t.PC >= 0 && t.PC < len(m.prog.Instrs) {
		slot = prof.Slot(m.prog.Instrs[t.PC].Op)
	}
	before := m.res.Cycles
	yield, err = m.step(t)
	m.tel.prof.Observe(slot, m.res.Cycles-before)
	return yield, err
}

// Obs returns the sink the machine reports into, or nil. Drivers use it to
// account their own events against the same registry and tracer.
func (m *Machine) Obs() *obs.Sink { return m.opts.Obs }

// Cycles returns the cycles accounted so far — the trace clock. Drivers
// timestamp their trace events with it.
func (m *Machine) Cycles() uint64 { return m.res.Cycles }

// traceQuantum records one scheduler quantum as a complete span on the
// thread's core track.
func (m *Machine) traceQuantum(t *Thread, startCycles uint64) {
	m.tel.trace.Complete(fmt.Sprintf("t%d", t.ID), "sched",
		startCycles, m.res.Cycles-startCycles, t.Core, t.ID, nil)
}

// finishRun folds the completed run into the registry and advances the
// trace clock past this run so consecutive runs lay out end-to-end.
func (m *Machine) finishRun() {
	if m.tel.sink == nil {
		return
	}
	m.tel.runs.Inc()
	m.tel.cycles.Add(m.res.Cycles)
	m.tel.steps.Add(m.res.Steps)
	m.tel.runCycles.Observe(m.res.Cycles)
	m.tel.runSteps.Observe(m.res.Steps)
	if m.tel.prof != nil {
		m.tel.prof.Flush(m.tel.sink)
	}
	if m.tel.trace != nil {
		m.tel.trace.Advance(m.res.Cycles + 1)
	}
}
