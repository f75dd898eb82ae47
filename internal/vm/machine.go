package vm

import (
	"fmt"

	"stmdiag/internal/cache"
	"stmdiag/internal/faultinj"
	"stmdiag/internal/isa"
	"stmdiag/internal/memory"
	"stmdiag/internal/obs"
	"stmdiag/internal/pmu"
	"stmdiag/internal/rng"
)

// Driver services OpIoctl requests; internal/kernel provides the standard
// implementation mirroring the paper's /dev/lbrdriver kernel module.
type Driver interface {
	// Ioctl handles one request issued by thread t.
	Ioctl(m *Machine, t *Thread, req int64) error
}

// SchedSource supplies the scheduler's nondeterministic decisions. The
// default draws from the seeded RNG; record-and-replay systems
// (internal/replay, the paper's §8 comparison class) substitute a recorder
// or a log-driven replayer.
type SchedSource interface {
	// Pick chooses among the runnable thread IDs, returning an index into
	// the slice. The slice is the machine's scratch buffer, overwritten
	// before the next call: implementations must not retain it.
	Pick(runnable []int) int
	// Quantum returns the slice length in [min, max].
	Quantum(min, max int) int
}

// randSched is the default RNG-driven scheduler policy. Run keeps one in
// its own frame when Options.Sched is nil and calls it directly, so an
// unhooked run allocates no generator.
type randSched struct{ rng rng.Rand }

func (r *randSched) Pick(runnable []int) int { return r.rng.Intn(len(runnable)) }

func (r *randSched) Quantum(min, max int) int {
	if max > min {
		return min + r.rng.Intn(max-min)
	}
	return min
}

// DefaultSched returns the seeded default scheduling policy. Wrappers that
// must observe (and log) exactly the decisions an unrecorded run would
// make — the record-and-replay recorder — build on it.
func DefaultSched(seed int64) SchedSource {
	s := new(randSched)
	s.rng.Seed(seed)
	return s
}

// Options configure a run.
type Options struct {
	// Cores is the number of cores; 0 means 4, matching the paper's
	// 4-core Core i7 testbed.
	Cores int
	// ThreadsPerCore models SMT: hardware threads on one core share that
	// core's LBR, shortening the history each software thread effectively
	// gets (paper §4.2.1). 0 means 1 (no sharing).
	ThreadsPerCore int
	// Seed drives the scheduler and every other source of randomness.
	Seed int64
	// QuantumMin/QuantumMax bound the instructions a thread runs before a
	// preemption point; 0 means the defaults 20/120.
	QuantumMin, QuantumMax int
	// StepLimit aborts the run as a hang after this many retired
	// instructions; 0 means 4,000,000.
	StepLimit uint64
	// LBRSize and LCRSize set record depths; 0 means the paper defaults
	// (16 each).
	LBRSize, LCRSize int
	// LBRSelect is the LBR_SELECT filter value written by the driver's
	// CONFIG request; 0 means pmu.PaperLBRSelect.
	LBRSelect uint64
	// BTS arms a per-core Branch Trace Store alongside the LBR: every
	// retired taken branch is streamed to memory at CostBTSRecord cycles
	// each — the whole-execution approach of paper Figure 1 (§2.1).
	BTS bool
	// BTSLimit bounds the trace buffer; 0 means pmu.DefaultBTSLimit.
	BTSLimit int
	// LCRConfig is the event selection written by the driver's LCR CONFIG
	// request; the zero value records nothing until configured.
	LCRConfig pmu.LCRConfig
	// Driver services OpIoctl; nil makes OpIoctl a no-op (uninstrumented
	// programs never execute it).
	Driver Driver
	// Sched overrides the scheduler's decision source; nil uses the
	// seeded default.
	Sched SchedSource
	// SegvIoctls are driver requests executed, in order, in the
	// segmentation-fault handler on behalf of the faulting thread. The
	// LBRLOG transformer registers profile requests here (paper §5.1
	// step 4).
	SegvIoctls []int64
	// Globals seeds named globals with scalar values before the run (the
	// workload input).
	Globals map[string]int64
	// GlobalArrays seeds named globals with array contents.
	GlobalArrays map[string][]int64
	// OutputLimit caps captured output records; 0 means 10,000.
	OutputLimit int
	// Obs is the optional telemetry sink. When nil (the default) all
	// instrumentation compiles down to nil checks; when set, the machine
	// reports counters into its registry and — if it carries a tracer —
	// records cycle-timestamped trace events.
	Obs *obs.Sink
	// Faults is the trial's fault-injection plan. Nil (the default)
	// injects nothing; when set, the machine arms every capture layer —
	// per-core LBRs, per-thread LCRs, the driver's profile reads and the
	// segfault handler — with the same deterministic plan.
	Faults *faultinj.Plan
	// Spare is the session's storage that outlives machines: New takes the
	// program's run table and a cache system from it, and Run hands the
	// cache system back when it returns, so a machine on a Spare runs
	// once. Nil keeps nothing.
	Spare *Spare
}

func (o Options) withDefaults() Options {
	if o.Cores == 0 {
		o.Cores = 4
	}
	if o.ThreadsPerCore == 0 {
		o.ThreadsPerCore = 1
	}
	if o.QuantumMin == 0 {
		o.QuantumMin = 20
	}
	if o.QuantumMax == 0 {
		o.QuantumMax = 120
	}
	if o.QuantumMax < o.QuantumMin {
		o.QuantumMax = o.QuantumMin
	}
	if o.StepLimit == 0 {
		o.StepLimit = 4_000_000
	}
	if o.LBRSize == 0 {
		o.LBRSize = pmu.DefaultLBRSize
	}
	if o.LCRSize == 0 {
		o.LCRSize = pmu.DefaultLCRSize
	}
	if o.LBRSelect == 0 {
		o.LBRSelect = pmu.PaperLBRSelect
	}
	if o.OutputLimit == 0 {
		o.OutputLimit = 10_000
	}
	return o
}

// ThreadState is a thread's scheduler state.
type ThreadState uint8

// Thread states.
const (
	ThreadRunnable ThreadState = iota
	ThreadBlocked
	ThreadExited
)

// Thread is one software thread.
type Thread struct {
	// ID is the thread index; thread 0 is main.
	ID int
	// Core is the core the thread is pinned to (ID mod cores).
	Core int
	// Regs is the register file.
	Regs [isa.NumRegs]int64
	// PC is the next instruction index.
	PC int
	// SP is the stack pointer (word address); the stack grows down.
	SP int64
	// Flags holds the last comparison result: -1, 0 or 1.
	Flags int
	// LCR is the thread's Last Cache-coherence Record. The paper's
	// simulator maintains LCR per thread (§4.3); so does the VM.
	LCR *pmu.LCR
	// State is the scheduler state.
	State ThreadState

	parent   int
	children int // live children, for OpJoin
	waitJoin bool
	waitLock int64 // mutex handle blocked on, 0 if none
	delay    int64 // remaining OpDelay stall steps
}

// Core is one hardware core: it owns the LBR (per-core on real hardware)
// and the coherence performance counters.
type Core struct {
	// ID is the core index.
	ID int
	// LBR is the core's branch record.
	LBR *pmu.LBR
	// BTS is the core's Branch Trace Store, nil unless Options.BTS.
	BTS *pmu.BTS
	// Counters is the core's coherence-event counter bank.
	Counters pmu.Counters
}

// FailureKind classifies how a run failed.
type FailureKind uint8

// Failure kinds observed by the machine. Wrong-output failures are detected
// by the harness comparing Result.Output against the expected output.
const (
	// FailLogged is a failure-logging function reporting an error (the
	// "error message" / "corrupted log" symptoms of paper Table 4).
	FailLogged FailureKind = iota
	// FailCrash is a hardware trap: segmentation fault, null mutex,
	// division by zero, bad jump target.
	FailCrash
	// FailHang is the step limit or a deadlock (the "hang" symptom).
	FailHang
)

// String names the failure kind.
func (k FailureKind) String() string {
	switch k {
	case FailLogged:
		return "logged-error"
	case FailCrash:
		return "crash"
	case FailHang:
		return "hang"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// FailureEvent is one observed failure.
type FailureEvent struct {
	// Kind classifies the failure.
	Kind FailureKind
	// Code is the OpFail immediate for FailLogged events.
	Code int64
	// PC is where the failure surfaced.
	PC int
	// Thread is the failure thread (paper §4.2.2: "the thread where the
	// failure first occurs").
	Thread int
	// Msg describes crash causes ("segmentation fault", "deadlock"...).
	Msg string
}

// Profile is one LBR/LCR snapshot taken by the driver at a logging site —
// a failure-run or success-run profile in the sense of paper §5.2.
type Profile struct {
	// Site is the PC of the profiling instruction (or the faulting
	// instruction for segfault-handler profiles).
	Site int
	// Thread is the profiled thread.
	Thread int
	// Success marks success-logging-site profiles; failure-site and
	// segfault profiles have it false.
	Success bool
	// Branches is the LBR content, newest-first.
	Branches []pmu.BranchRecord
	// Coherence is the LCR content, newest-first.
	Coherence []pmu.CoherenceEvent
}

// Result is the outcome of one run.
type Result struct {
	// Steps is retired instructions; Cycles is accounted machine cycles.
	Steps, Cycles uint64
	// Output is the captured program output.
	Output []string
	// Failures are the observed failure events, in order.
	Failures []FailureEvent
	// Profiles are the LBR/LCR snapshots the driver took.
	Profiles []Profile
	// CacheStats is per-core cache statistics.
	CacheStats []cache.Stats
}

// Failed reports whether any failure was observed.
func (r *Result) Failed() bool { return len(r.Failures) > 0 }

// FirstFailure returns the first failure event, or nil.
func (r *Result) FirstFailure() *FailureEvent {
	if len(r.Failures) == 0 {
		return nil
	}
	return &r.Failures[0]
}

// FailureProfiles returns the non-success profiles.
func (r *Result) FailureProfiles() []Profile {
	var out []Profile
	for _, p := range r.Profiles {
		if !p.Success {
			out = append(out, p)
		}
	}
	return out
}

// SuccessProfiles returns the success-site profiles.
func (r *Result) SuccessProfiles() []Profile {
	var out []Profile
	for _, p := range r.Profiles {
		if p.Success {
			out = append(out, p)
		}
	}
	return out
}

// mutexState tracks one mutex handle.
type mutexState struct {
	owner   int // thread ID, -1 free
	waiters []int
}

// Machine is a mid-run VM instance. Drivers receive it to reach the PMU
// state and deposit profiles.
type Machine struct {
	prog  *isa.Program
	opts  Options
	mem   *memory.Memory
	cache *cache.System
	cores []*Core

	threads []*Thread
	runq    []int // runnable IDs, rebuilt in place every quantum
	mutexes map[int64]*mutexState

	res        Result
	pcs        []pcInfo // per-PC run table and ring level (batch.go)
	exited     bool
	hookStep   func(m *Machine, t *Thread, in *isa.Instr)
	hookBranch func(m *Machine, t *Thread, in *isa.Instr)
	hookCoher  func(m *Machine, t *Thread, pc int, kind cache.AccessKind, st cache.State)
	tel        vmTelemetry
}

// New builds a machine for the program. Most callers use Run.
func New(prog *isa.Program, opts Options) (*Machine, error) {
	opts = opts.withDefaults()
	pcs, err := opts.Spare.table(prog)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		prog:    prog,
		opts:    opts,
		mem:     memory.New(),
		mutexes: make(map[int64]*mutexState),
		pcs:     pcs,
	}
	cs, err := opts.Spare.cacheSystem(opts.Cores)
	if err != nil {
		return nil, err
	}
	m.cache = cs
	for i := 0; i < opts.Cores; i++ {
		c := &Core{ID: i, LBR: pmu.NewLBR(opts.LBRSize)}
		c.LBR.SetFaults(opts.Faults)
		if opts.BTS {
			c.BTS = pmu.NewBTS(opts.BTSLimit)
			c.BTS.SetEnabled(true)
		}
		m.cores = append(m.cores, c)
	}
	// Data segment.
	if _, err := m.mem.Map("globals", isa.GlobalBase, prog.GlobalWords); err != nil {
		return nil, err
	}
	for name, v := range opts.Globals {
		g := prog.GlobalByName(name)
		if g == nil {
			return nil, fmt.Errorf("vm: workload global %q not in program", name)
		}
		if err := m.mem.Store(g.Addr, v); err != nil {
			return nil, err
		}
	}
	for name, vals := range opts.GlobalArrays {
		g := prog.GlobalByName(name)
		if g == nil {
			return nil, fmt.Errorf("vm: workload global %q not in program", name)
		}
		if int64(len(vals)) > g.Size {
			return nil, fmt.Errorf("vm: workload array %q longer than global (%d > %d)", name, len(vals), g.Size)
		}
		for i, v := range vals {
			if err := m.mem.Store(g.Addr+int64(i), v); err != nil {
				return nil, err
			}
		}
	}
	if opts.Obs != nil {
		m.attachObs(opts.Obs)
	}
	if _, err := m.spawnThread(prog.Entry, 0, -1); err != nil {
		return nil, err
	}
	return m, nil
}

// Run executes the program to completion and returns the result.
func Run(prog *isa.Program, opts Options) (*Result, error) {
	m, err := New(prog, opts)
	if err != nil {
		return nil, err
	}
	return m.Run()
}

// Prog returns the program under execution.
func (m *Machine) Prog() *isa.Program { return m.prog }

// Opts returns the effective options.
func (m *Machine) Opts() Options { return m.opts }

// CoreOf returns the core a thread is pinned to.
func (m *Machine) CoreOf(t *Thread) *Core { return m.cores[t.Core] }

// Cores returns the machine's cores.
func (m *Machine) Cores() []*Core { return m.cores }

// Mem returns the machine memory (tests and the harness peek at globals).
func (m *Machine) Mem() *memory.Memory { return m.mem }

// Faults returns the trial's fault plan (nil when injection is off);
// drivers consult it at profile time.
func (m *Machine) Faults() *faultinj.Plan { return m.opts.Faults }

// AddProfile deposits a profile snapshot; drivers call it.
func (m *Machine) AddProfile(p Profile) {
	m.res.Profiles = append(m.res.Profiles, p)
	if m.tel.sink != nil {
		if p.Success {
			m.tel.profSucc.Inc()
		} else {
			m.tel.profFail.Inc()
		}
		if m.tel.trace != nil {
			core := m.threads[p.Thread].Core
			m.tel.trace.Instant("profile", "pmu", m.res.Cycles, core, p.Thread,
				map[string]any{"site": p.Site, "success": p.Success,
					"branches": len(p.Branches), "coherence": len(p.Coherence)})
		}
	}
}

// AddCycles charges extra cycles (drivers account their own costs).
func (m *Machine) AddCycles(n uint64) { m.res.Cycles += n }

// KernelPC reports whether the PC executes at ring 0.
func (m *Machine) KernelPC(pc int) bool {
	return pc >= 0 && pc < len(m.pcs) && m.pcs[pc].kernel
}

// SetStepHook installs a per-retired-instruction callback, for
// instrumentation that samples the execution by instruction count (the
// THeME-style periodic LBR drain). While a step hook is installed every
// instruction dispatches individually, so the hook sees each one; without
// it, straight-line register-only runs retire in one batch.
func (m *Machine) SetStepHook(h func(m *Machine, t *Thread, in *isa.Instr)) {
	m.hookStep = h
}

// SetBranchHook installs a callback run only at retired instructions that
// embody a source-branch edge (BranchID != isa.NoBranch): the sites the
// CBI instrumentation observes. It fires at the same point of the step as
// the step hook, after it, before the instruction executes.
func (m *Machine) SetBranchHook(h func(m *Machine, t *Thread, in *isa.Instr)) {
	m.hookBranch = h
}

// SetCoherenceHook installs a per-retired-data-access callback carrying
// the observed pre-access MESI state — the event stream hardware
// performance counters see. The PBI baseline samples it.
func (m *Machine) SetCoherenceHook(h func(m *Machine, t *Thread, pc int, kind cache.AccessKind, st cache.State)) {
	m.hookCoher = h
}

// spawnThread creates a thread at entry with r0=arg.
func (m *Machine) spawnThread(entry int, arg int64, parent int) (*Thread, error) {
	id := len(m.threads)
	base := int64(isa.StackBase) + int64(id)*int64(isa.StackSpan)
	if _, err := m.mem.Map(fmt.Sprintf("stack%d", id), base, isa.StackSpan); err != nil {
		return nil, err
	}
	t := &Thread{
		ID:     id,
		Core:   (id % (m.opts.Cores * m.opts.ThreadsPerCore)) / m.opts.ThreadsPerCore,
		PC:     entry,
		SP:     base + isa.StackSpan, // empty descending stack
		LCR:    pmu.NewLCR(m.opts.LCRSize),
		parent: parent,
	}
	t.LCR.SetFaults(m.opts.Faults)
	t.Regs[0] = arg
	if m.tel.sink != nil {
		t.LCR.AttachObs(m.tel.sink)
		if m.tel.trace != nil {
			m.tel.trace.SetThreadName(t.Core, t.ID, fmt.Sprintf("thread %d", t.ID))
		}
	}
	m.threads = append(m.threads, t)
	if parent >= 0 {
		m.threads[parent].children++
	}
	return t, nil
}

// Threads returns all threads (any state).
func (m *Machine) Threads() []*Thread { return m.threads }

// runnable returns the IDs of runnable threads in the machine's scratch
// buffer, valid until the next call.
func (m *Machine) runnable() []int {
	ids := m.runq[:0]
	for _, t := range m.threads {
		if t.State == ThreadRunnable {
			ids = append(ids, t.ID)
		}
	}
	m.runq = ids
	return ids
}

// fail records a failure event.
func (m *Machine) fail(ev FailureEvent) {
	m.res.Failures = append(m.res.Failures, ev)
	m.tel.traps.Inc()
	if m.tel.trace != nil {
		m.tel.trace.Instant("failure", "vm", m.res.Cycles, m.threads[ev.Thread].Core, ev.Thread,
			map[string]any{"kind": ev.Kind.String(), "pc": ev.PC, "msg": ev.Msg})
	}
}

// Run drives the scheduler loop until exit, deadlock, or the step limit.
func (m *Machine) Run() (*Result, error) {
	step := (*Machine).step
	if m.tel.prof != nil {
		step = (*Machine).stepProf
	}
	sched := m.opts.Sched
	var own randSched // the default policy's generator, used when sched is nil
	if sched == nil {
		own.rng.Seed(m.opts.Seed)
	}
	for !m.exited {
		ids := m.runnable()
		if len(ids) == 0 {
			if m.liveThreads() == 0 {
				break // clean termination
			}
			// Deadlock: profile a stuck thread (the operator's SIGQUIT
			// analog) so the hang leaves a failure-run profile behind.
			for _, t := range m.threads {
				if t.State == ThreadBlocked {
					m.runSegvHandler(t, t.PC)
					m.fail(FailureEvent{Kind: FailHang, PC: t.PC, Thread: t.ID,
						Msg: "deadlock: all live threads blocked"})
					break
				}
			}
			break
		}
		var pick, quantum int
		if sched == nil {
			pick = own.Pick(ids)
			quantum = own.Quantum(m.opts.QuantumMin, m.opts.QuantumMax)
		} else {
			pick = sched.Pick(ids)
			quantum = sched.Quantum(m.opts.QuantumMin, m.opts.QuantumMax)
		}
		t := m.threads[ids[pick]]
		quantumStart, stepsStart := m.res.Cycles, m.res.Steps
		// Every retired step counts one toward the limit, so the quantum
		// is cut to the steps left. step yields whenever the thread stops
		// running or the machine exits, which ends the quantum early.
		// Register-only runs never yield; capping each batch at the budget
		// keeps preemption points and the hang PC where single steps put
		// them.
		budget := quantum
		if left := m.opts.StepLimit - m.res.Steps; budget > 0 && uint64(budget) > left {
			budget = int(left)
		}
		q := 0
		for q < budget {
			if k := m.runAt(t.PC); k > 0 && m.hookStep == nil {
				k = min(k, budget-q)
				m.retireRun(t, k)
				q += k
				continue
			}
			yield, err := step(m, t)
			if err != nil {
				return nil, err
			}
			if yield {
				break
			}
			q++
		}
		if q == budget && budget < quantum {
			// Hang: profile the spinning thread where it stands, the way
			// an operator interrupting the stuck process would.
			m.runSegvHandler(t, t.PC)
			m.fail(FailureEvent{Kind: FailHang, PC: t.PC, Thread: t.ID,
				Msg: fmt.Sprintf("hang: step limit %d exceeded", m.opts.StepLimit)})
			m.exited = true
		}
		if m.tel.sink != nil {
			m.tel.instrs[t.Core].Add(m.res.Steps - stepsStart)
			if t.State == ThreadRunnable && !m.exited {
				m.tel.preempts[t.Core].Inc()
			}
			if m.tel.trace != nil {
				m.traceQuantum(t, quantumStart)
			}
		}
	}
	for i := range m.cores {
		m.res.CacheStats = append(m.res.CacheStats, m.cache.Stats(i))
	}
	m.finishRun()
	if m.opts.Spare != nil {
		m.opts.Spare.release(m.cache)
		m.cache = nil
	}
	return &m.res, nil
}

// liveThreads counts threads not yet exited.
func (m *Machine) liveThreads() int {
	n := 0
	for _, t := range m.threads {
		if t.State != ThreadExited {
			n++
		}
	}
	return n
}
