package vm_test

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"stmdiag/internal/apps"
	"stmdiag/internal/cbi"
	"stmdiag/internal/core"
	"stmdiag/internal/isa"
	"stmdiag/internal/kernel"
	"stmdiag/internal/obs"
	"stmdiag/internal/vm"
)

// threadState is the architectural state a thread ends a run in.
type threadState struct {
	Regs  [isa.NumRegs]int64
	Flags int
	PC    int
	State vm.ThreadState
}

// dispatchRun runs p once and returns its result, the final state of
// every thread and whatever arm's finisher reports. stepped installs a
// counting step hook, which forces per-instruction dispatch and must see
// every retired instruction; arm, when non-nil, instruments the machine
// before it runs.
func dispatchRun(tb testing.TB, p *isa.Program, opts vm.Options, stepped bool, arm func(*vm.Machine) func() any) (*vm.Result, []threadState, any, error) {
	tb.Helper()
	m, err := vm.New(p, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	var hooked uint64
	if stepped {
		m.SetStepHook(func(*vm.Machine, *vm.Thread, *isa.Instr) { hooked++ })
	}
	var finish func() any
	if arm != nil {
		finish = arm(m)
	}
	res, err := m.Run()
	if err != nil {
		return nil, nil, nil, err
	}
	if stepped && hooked != res.Steps {
		tb.Fatalf("step hook saw %d of %d retired instructions", hooked, res.Steps)
	}
	var threads []threadState
	for _, t := range m.Threads() {
		threads = append(threads, threadState{t.Regs, t.Flags, t.PC, t.State})
	}
	var extra any
	if finish != nil {
		extra = finish()
	}
	return res, threads, extra, nil
}

// dispatchBoth runs p batched and per-instruction from the same options
// and fails unless the two runs agree on the result, on every thread's
// registers, flags and PC, and on arm's report. It returns the batched
// run's result, or its error when both runs return one.
func dispatchBoth(tb testing.TB, p *isa.Program, opts vm.Options, arm func(*vm.Machine) func() any) (*vm.Result, error) {
	tb.Helper()
	res, threads, extra, err := dispatchRun(tb, p, opts, false, arm)
	ref, refThreads, refExtra, refErr := dispatchRun(tb, p, opts, true, arm)
	if (err == nil) != (refErr == nil) {
		tb.Fatalf("batched error %v, per-instruction error %v", err, refErr)
	}
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(res, ref) {
		tb.Fatalf("results differ:\nbatched:         %+v\nper-instruction: %+v", res, ref)
	}
	if !reflect.DeepEqual(threads, refThreads) {
		tb.Fatalf("thread states differ:\nbatched:         %+v\nper-instruction: %+v", threads, refThreads)
	}
	if !reflect.DeepEqual(extra, refExtra) {
		tb.Fatalf("instrumentation differs:\nbatched:         %+v\nper-instruction: %+v", extra, refExtra)
	}
	return res, nil
}

func mustAssemble(tb testing.TB, src string) *isa.Program {
	tb.Helper()
	p, err := isa.Assemble("dispatch", src)
	if err != nil {
		tb.Fatalf("Assemble: %v", err)
	}
	return p
}

// withCBI attaches a CBI observer (every site sampled) and reports its
// predicate observations.
func withCBI(m *vm.Machine) func() any {
	o := cbi.NewObserver(1, 7)
	o.Attach(m)
	return func() any { return o.Finish(false) }
}

// siteEvent is one branch-hook call: where and when it fired.
type siteEvent struct {
	PC, Thread int
	Cycles     uint64
}

// withSiteLog installs a branch hook logging every call with the clock it
// saw, so a branch site retired inside a batch (skipping its hook) or a
// clock that drifts before one shows up in the log.
func withSiteLog(m *vm.Machine) func() any {
	var log []siteEvent
	m.SetBranchHook(func(m *vm.Machine, t *vm.Thread, in *isa.Instr) {
		log = append(log, siteEvent{t.PC, t.ID, m.Cycles()})
	})
	return func() any { return log }
}

// repeat joins n copies of an instruction line.
func repeat(line string, n int) string { return strings.Repeat("    "+line+"\n", n) }

// mixedRun is a straight-line run touching every register-only opcode.
const mixedRun = `    movi r1, 7
    mov  r2, r1
    lea  r3, g
    add  r2, r1
    sub  r3, r2
    mul  r2, r1
    and  r3, r2
    or   r4, r3
    xor  r4, r1
    shl  r4, r1
    shr  r4, r1
    addi r5, 9
    addi r5, 9
    addi r5, 9
    subi r6, 4
    muli r6, -3
    andi r6, 255
    cmp  r2, r3
    nop
    cmpi r5, 100
`

// The batched dispatch retires register-only runs exactly as the
// per-instruction dispatch would: same steps, cycles, preemption points,
// hang PC, profiles, thread state and instrumentation observations.
func TestBatchedDispatchMatchesStepped(t *testing.T) {
	// Branch-site cmp: the cmp ending the loop body carries the jcc's
	// BranchID, so the run before it must stop short of it.
	branchCmp := mustAssemble(t, `
.global g 2
.func main
main:
    movi r9, 0
loop:
`+repeat("addi r2, 5", 30)+mixedRun+`    addi r9, 1
.branch lp true
    cmpi r9, 40
    jl   loop
    out  r2
    exit
`)
	for pc, in := range branchCmp.Instrs {
		if in.Op == isa.OpCmpi && branchCmp.Instrs[pc+1].BranchID != isa.NoBranch {
			branchCmp.Instrs[pc].BranchID = branchCmp.Instrs[pc+1].BranchID
		}
	}
	wrap := mustAssemble(t, `
.func main
main:
    movi r1, 9223372036854775000
`+repeat("addi r1, 4611686018427387904", 37)+repeat("addi r1, -7", 3)+`    out r1
    exit
`)
	cases := []struct {
		name string
		prog *isa.Program
		opts vm.Options
		arm  func(*vm.Machine) func() any
		// hang marks runs that must end at the step limit; hangPC, when
		// non-zero, is the PC the limit must land on.
		hang   bool
		hangPC int
	}{
		{name: "addi-run-longer-than-quantum", prog: mustAssemble(t, `
.func main
main:
`+repeat("addi r1, 3", 500)+`    out r1
    exit
`)},
		{name: "mixed-run-across-quanta", prog: mustAssemble(t, `
.global g 2
.func main
main:
    movi r9, 0
loop:
`+mixedRun+mixedRun+`    addi r9, 1
    cmpi r9, 30
    jl   loop
    out  r5
    out  r6
    exit
`), opts: vm.Options{QuantumMin: 7, QuantumMax: 13}},
		// 41 steps per iteration: 1000 = 24*41 + 16 lands on PC 16.
		{name: "step-limit-mid-run", prog: mustAssemble(t, `
.func main
main:
spin:
`+repeat("addi r1, 1", 40)+`    jmp spin
`), opts: vm.Options{StepLimit: 1000}, hang: true, hangPC: 16},
		{name: "step-limit-mid-run-fixed-quantum", prog: mustAssemble(t, `
.func main
main:
spin:
`+repeat("addi r1, 1", 40)+`    jmp spin
`), opts: vm.Options{StepLimit: 1000, QuantumMin: 33, QuantumMax: 33}, hang: true, hangPC: 16},
		{name: "two-thread-spin", prog: mustAssemble(t, `
.global g 2
.func main
main:
    movi r1, 1
    spawn spin, r1
spin:
    addi r0, 1
`+mixedRun+repeat("addi r7, -2", 25)+`    lea  r8, g
    st   [r8+0], r0
    jmp spin
`), opts: vm.Options{StepLimit: 20_000}, hang: true},
		{name: "addi-wraps-past-maxint", prog: wrap, opts: vm.Options{QuantumMin: 5, QuantumMax: 11}},
		{name: "branch-site-cmp-with-cbi", prog: branchCmp, arm: withCBI},
		{name: "branch-site-cmp-hook-log", prog: branchCmp, arm: withSiteLog},
	}
	for _, tc := range cases {
		for _, seed := range []int64{0, 1, 2} {
			opts := tc.opts
			opts.Seed = seed
			res, err := dispatchBoth(t, tc.prog, opts, tc.arm)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if tc.hang {
				f := res.FirstFailure()
				if res.Steps != opts.StepLimit || f == nil || f.Kind != vm.FailHang || (tc.hangPC != 0 && f.PC != tc.hangPC) {
					t.Errorf("%s/seed%d: steps %d failures %+v, want a hang at PC %d after %d steps",
						tc.name, seed, res.Steps, res.Failures, tc.hangPC, opts.StepLimit)
				}
			} else if res.Failed() {
				t.Errorf("%s/seed%d: failed: %+v", tc.name, seed, res.Failures)
			}
		}
	}

	// The wrapping case's value is the one repeated int64 additions give.
	want := int64(9223372036854775000)
	for i := 0; i < 37; i++ {
		want += 1 << 62
	}
	want -= 3 * 7
	res, err := dispatchBoth(t, wrap, vm.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Output[0]; got != strconv.FormatInt(want, 10) {
		t.Errorf("wrapped addi run = %s, want %d", got, want)
	}
}

// Every app's CBI-observed run, on both workloads, is identical whichever
// dispatch retires it: the end-to-end form of the differential check.
func TestBatchedDispatchMatchesSteppedApps(t *testing.T) {
	for _, a := range apps.All() {
		for _, w := range []apps.Workload{a.Succeed, a.Fail} {
			if _, err := dispatchBoth(t, a.Program(), w.VMOptions(3), withCBI); err != nil {
				t.Fatalf("%s: %v", a.Name, err)
			}
		}
	}
}

// With the cost-attribution profiler armed, a batched run attributes the
// same count and cycles to every opcode as the per-instruction run does:
// the -profile-report op table cannot tell the dispatches apart. The
// instrumented sort trial has long addi runs, so fused runs are counted.
func TestBatchedProfileParity(t *testing.T) {
	a := apps.ByName("sort")
	inst, err := core.EnhanceLogging(a.Program(), core.Options{LBR: true, Toggling: true})
	if err != nil {
		t.Fatal(err)
	}
	fused := false
	for pc := 1; pc < len(inst.Prog.Instrs); pc++ {
		prev, in := inst.Prog.Instrs[pc-1], inst.Prog.Instrs[pc]
		fused = fused || (in.Op == isa.OpAddi && prev.Op == in.Op && prev.Rd == in.Rd && prev.Imm == in.Imm)
	}
	if !fused {
		t.Fatal("sort trial has no identical addi run to fuse")
	}
	var snaps [2]map[string]uint64
	for i, stepped := range []bool{false, true} {
		opts := a.Succeed.VMOptions(0)
		opts.Driver = kernel.Driver{}
		opts.SegvIoctls = inst.SegvIoctls
		sink := &obs.Sink{Metrics: obs.NewRegistry(), Profiling: true}
		opts.Obs = sink
		if _, _, _, err := dispatchRun(t, inst.Prog, opts, stepped, nil); err != nil {
			t.Fatal(err)
		}
		snaps[i] = map[string]uint64{}
		for name, v := range sink.Metrics.Snapshot().Counters {
			if strings.HasPrefix(name, "prof.op.") || strings.HasPrefix(name, "vm.") {
				snaps[i][name] = v
			}
		}
	}
	if snaps[0]["prof.op.addi.count"] == 0 {
		t.Fatal("profiled run attributed no addi")
	}
	if !reflect.DeepEqual(snaps[0], snaps[1]) {
		t.Errorf("profile counters differ:\nbatched:         %v\nper-instruction: %v", snaps[0], snaps[1])
	}
}
