package synth

import (
	"fmt"

	"stmdiag/internal/cache"
	"stmdiag/internal/isa"
)

// BugClass names the fault a generated buggy program plants — the four
// root-cause families of the paper's Table 4 benchmarks, reduced to their
// mechanism so the grammar can instantiate hundreds of each.
type BugClass uint8

const (
	// BugAtomicity is a WWR atomicity violation: a racing thread
	// overwrites a shared value between the victim's write and re-check
	// (the Mozilla-JS3 shape). Concurrent; diagnosed from the LCR.
	BugAtomicity BugClass = iota
	// BugOrder is an order violation: a consumer reads a shared value
	// before the producer thread publishes it. Concurrent; LCR.
	BugOrder
	// BugOverflow is an integer overflow: an unchecked big-input path
	// squares the request size, wraps int64, and stores out of bounds.
	// Sequential crash; diagnosed from the LBR.
	BugOverflow
	// BugDangling is a dangling/stale pointer: an early-release path
	// poisons a pointer cell that a later use dereferences. Sequential
	// crash; LBR.
	BugDangling
)

// String names the class the way Table 9 rows spell it.
func (c BugClass) String() string {
	switch c {
	case BugAtomicity:
		return "atomicity"
	case BugOrder:
		return "order"
	case BugOverflow:
		return "overflow"
	default:
		return "dangling"
	}
}

// Concurrent reports whether the class plants a concurrency bug (diagnosed
// in LCR mode) rather than a sequential one (LBR mode).
func (c BugClass) Concurrent() bool { return c == BugAtomicity || c == BugOrder }

// BugClasses lists every class in Table 9 row order.
func BugClasses() []BugClass {
	return []BugClass{BugAtomicity, BugOrder, BugOverflow, BugDangling}
}

// BugConfig shapes one generated buggy program.
type BugConfig struct {
	// Seed drives generation; equal configs generate equal programs.
	Seed int64
	// Class selects the planted fault.
	Class BugClass
	// Distance is the propagation distance: the number of padding basic
	// blocks between the root-cause instruction and the observable
	// failure site. Each block costs exactly one LBR entry (its noise
	// branch) and, for concurrent classes, one LCR entry (an exclusive
	// re-read of thread-warm state), so distances beyond the record depth
	// evict the root cause — the knob Table 9 sweeps. Capped at
	// MaxDistance.
	Distance int
}

// MaxDistance bounds the propagation distance: padding beyond this adds no
// information (the 16-entry records have long since evicted the root) and
// the pad lines must fit the warm global.
const MaxDistance = 24

// bugLine* are the fixed source lines the grammar plants its landmarks at;
// the manifest and tests refer to them through the Manifest fields.
const (
	bugLineSetup = 33 // a1 store / publish prime / input load / pointer init
	bugLineRoot  = 36 // root branch (sequential classes)
	bugLineRacy  = 40 // racy access (concurrent classes)
	bugLinePads  = 44 // first pad block; pad i sits at bugLinePads+i
	bugLineFailA = 80 // crash site part 1 (pointer fetch / index apply)
	bugLineFailB = 81 // crash site part 2 (the faulting access)
	bugLineCheck = 88 // value check branch (concurrent classes)
	bugLineCall  = 89 // call to the failure-logging function
)

// Manifest records the planted fault's ground truth, the reference Table 9
// grades rankings against.
type Manifest struct {
	// Class and Distance echo the config.
	Class    BugClass
	Distance int
	// RootPCs are the root-cause instruction PCs in Prog: the conditional
	// jump of the root branch (sequential classes) or the racy load
	// (concurrent classes).
	RootPCs []int
	// RootBranch and BuggyEdge identify the root-cause branch event a
	// sequential diagnosis must rank first.
	RootBranch string
	BuggyEdge  isa.BranchEdge
	// RootLoc locates the racy access, and FPEKind/FPEState the
	// failure-predicting coherence event, for concurrent classes.
	RootLoc  isa.SourceLoc
	FPEKind  cache.AccessKind
	FPEState cache.State
	// FailPC is the observable failure site in Prog's (original,
	// uninstrumented) coordinates: the faulting instruction for crash
	// classes, the failure-log call for error-message classes. Reactive
	// redeployment pairs its success site from this PC.
	FailPC int
}

// BugProgram is one generated buggy program with its ground truth and
// workload variants.
type BugProgram struct {
	// Prog is the assembled program.
	Prog *isa.Program
	// Manifest is the planted fault's ground truth.
	Manifest Manifest
	// Fail are workload global assignments that expose the fault
	// (deterministically for sequential classes, whenever the race lands
	// for concurrent ones). Drivers cycle them across failure runs.
	Fail []map[string]int64
	// Succeed are workload variants that never fail: at least one clean
	// path and one benign infection (the root-cause edge taken, or the
	// race landing, without a visible failure) so the root predictor's
	// precision stays below the trivial 1.0.
	Succeed []map[string]int64
	// NoiseGlobal names the global whose low bits steer the pad-block
	// branches; drivers vary it per run so control flow differs across
	// runs of the same workload.
	NoiseGlobal string
	// Concurrent mirrors Manifest.Class.Concurrent for convenience.
	Concurrent bool
}

// GenerateBug plants cfg.Class into a generated program. The result always
// assembles; its Fail workloads reach the failure site through Distance
// padding blocks, and its Succeed workloads always terminate cleanly.
func GenerateBug(name string, cfg BugConfig) (*BugProgram, error) {
	if cfg.Distance < 0 {
		return nil, fmt.Errorf("synth: negative propagation distance %d", cfg.Distance)
	}
	switch cfg.Class {
	case BugAtomicity, BugOrder, BugOverflow, BugDangling:
	default:
		return nil, fmt.Errorf("synth: unknown bug class %d", cfg.Class)
	}
	if cfg.Distance > MaxDistance {
		cfg.Distance = MaxDistance
	}
	g := &gen{cfg: Config{Funcs: 1, StmtsPerFunc: 8, LogEvery: 5}}
	g.rng.Seed(cfg.Seed)
	g.cfg.StmtsPerFunc += g.rng.Intn(8)
	b := &bugGen{gen: g, cfg: cfg}
	src := b.source()
	p, err := isa.Assemble(name, src)
	if err != nil {
		return nil, fmt.Errorf("synth: generated %s program does not assemble: %w", cfg.Class, err)
	}
	bp := &BugProgram{
		Prog:        p,
		NoiseGlobal: "noise",
		Concurrent:  cfg.Class.Concurrent(),
	}
	if err := b.manifest(bp); err != nil {
		return nil, err
	}
	return bp, nil
}

// MustGenerateBug is GenerateBug panicking on error, for benchmarks.
func MustGenerateBug(name string, cfg BugConfig) *BugProgram {
	bp, err := GenerateBug(name, cfg)
	if err != nil {
		panic(err)
	}
	return bp
}

// bugGen emits one buggy program around the correct-program generator's
// background machinery (gen.fn provides branch-and-log-site noise ahead of
// the bug region).
type bugGen struct {
	*gen
	cfg BugConfig
}

func (b *bugGen) source() string {
	file := fmt.Sprintf("bug_%s.c", b.cfg.Class)
	b.line(".file %s", file)
	b.line(".str msg %q", "synthetic log message")
	b.line(".str bugmsg %q", fmt.Sprintf("%s invariant violated", b.cfg.Class))
	b.line(".global state 16")
	b.line(".global noise 8")
	switch b.cfg.Class {
	case BugAtomicity:
		b.line(".global warm %d", MaxDistance)
		b.line(".global avshared 8")
		b.line(".global avremote 8")
	case BugOrder:
		b.line(".global warm %d", MaxDistance)
		b.line(".global ordshared 8")
	case BugOverflow:
		b.line(".global nval 8")
		b.line(".global arr 128")
	case BugDangling:
		b.line(".global dpmode 8")
		b.line(".global dpsent 8")
		b.line(".global dpbuf 8")
		b.line(".global dpcell 8")
	}

	b.line(".func main")
	b.line("main:")
	b.line(".line 20")
	b.line("    lea  r7, state")
	b.line("    lea  r8, noise")
	b.line("    ld   r9, [r8+0]          ; per-run pad-branch steering bits")
	if b.cfg.Class.Concurrent() {
		// Warm the pad lines so later consults observe E — the state
		// Conf2 records, the mechanism that pushes the root cause deeper
		// into the ring with every pad block.
		b.line("    lea  r14, warm")
		b.line("    ld   r15, [r14+0]")
		b.line("    ld   r15, [r14+8]")
		b.line("    ld   r15, [r14+16]")
	}
	b.line("    call f0")
	switch b.cfg.Class {
	case BugAtomicity:
		b.atomicity()
	case BugOrder:
		b.order()
	case BugOverflow:
		b.overflow()
	case BugDangling:
		b.dangling()
	}

	if b.cfg.Class.Concurrent() {
		b.line(".func errfn log")
		b.line("errfn:")
		b.line(".line 95")
		b.line("    print bugmsg")
		b.line("    fail 1")
		b.line("    ret")
	}

	b.fn(0) // background noise: branches, state traffic, guarded log calls

	b.line(".func report log")
	b.line("report:")
	b.line(".line 98")
	b.line("    print msg")
	b.line("    ret")
	return b.b.String()
}

// pads emits the propagation-distance padding: Distance basic blocks, each
// one noise-steered source branch (exactly one LBR entry whichever edge is
// taken — the taken conditional or its synthetic fall-through jump) plus,
// for concurrent classes, one exclusive re-read of a warm line (exactly
// one Conf2 LCR entry).
func (b *bugGen) pads() {
	for i := 0; i < b.cfg.Distance; i++ {
		skip := fmt.Sprintf("padskip_%d", i)
		b.line(".line %d", bugLinePads+i)
		b.line("    mov  r8, r9")
		b.line("    andi r8, %d", int64(1)<<uint(i%8))
		if b.cfg.Class.Concurrent() {
			b.line("    ld   r15, [r14+%d]", i)
		}
		b.line(".branch pad_%d", i)
		b.line("    cmpi r8, 0")
		b.line("    je   %s", skip)
		b.line("    addi r8, 1")
		b.line("%s:", skip)
	}
}

// atomicity emits the WWR shape: main writes the shared cell (a1), an
// intruder thread overwrites it mid-window (a3), and main's re-check (a2)
// reads a remotely-written — invalid — line. The failure is a logged error
// when the check sees the destroyed value; the root cause is a2's load.
func (b *bugGen) atomicity() {
	dm := 50 + b.rng.Intn(12)
	di := 30 + b.rng.Intn(8)
	b.line(".line %d", bugLineSetup)
	b.line("    lea  r11, avshared")
	b.line("    movi r12, 1")
	b.line("    st   [r11+0], r12        ; a1: publish the table")
	b.line("    movi r13, 0")
	b.line("    spawn intruder, r13")
	b.line("    delay %d                 ; fill work; the intruder races in", dm)
	b.line(".line %d", bugLineRacy)
	b.line("    ld   r13, [r11+0]        ; a2: racy re-check (invalid when raced)")
	b.pads()
	b.line(".line %d", bugLineCheck)
	b.line(".branch av_check")
	b.line("    cmpi r13, 1")
	b.line("    je   av_ok")
	b.line(".line %d", bugLineCall)
	b.line("    call errfn")
	b.line("av_ok:")
	b.line("    join")
	b.line("    exit")

	b.line(".func intruder")
	b.line("intruder:")
	b.line("    delay %d", di)
	b.line(".line 70")
	b.line("    lea  r1, avshared")
	b.line("    lea  r2, avremote")
	b.line("    ld   r3, [r2+0]")
	b.line("    st   [r1+0], r3          ; a3: remote overwrite (0 destroys, 1 is benign)")
	b.line("    halt")
}

// order emits the read-too-early shape: main primes the shared line, a
// producer thread publishes into it, and main's consume reads either the
// stale exclusive line (too early — the bug) or the invalidated published
// one. The root cause is the consuming load observing E.
func (b *bugGen) order() {
	dm := 40 + b.rng.Intn(10)
	dp := 26 + b.rng.Intn(8)
	b.line(".line %d", bugLineSetup)
	b.line("    lea  r11, ordshared")
	b.line("    ld   r13, [r11+0]        ; early consult primes the line (E afterwards)")
	b.line("    movi r12, 0")
	b.line("    spawn producer, r12")
	b.line("    delay %d                 ; consumer work; the producer publishes in here", dm)
	b.line(".line %d", bugLineRacy)
	b.line("    ld   r13, [r11+0]        ; consume: exclusive when read too early")
	b.pads()
	b.line(".line %d", bugLineCheck)
	b.line(".branch ord_check")
	b.line("    cmpi r13, 7")
	b.line("    je   ord_ok")
	b.line(".line %d", bugLineCall)
	b.line("    call errfn")
	b.line("ord_ok:")
	b.line("    join")
	b.line("    exit")

	b.line(".func producer")
	b.line("producer:")
	b.line("    delay %d", dp)
	b.line(".line 70")
	b.line("    lea  r1, ordshared")
	b.line("    movi r2, 7")
	b.line("    st   [r1+0], r2          ; publish")
	b.line("    halt")
}

// overflow emits the integer-overflow shape: requests of 8 and above take
// the unchecked big-table path that squares the request size; a huge
// request wraps int64 and the table store lands far out of bounds. The
// root cause is the size-check branch taking its true (big-path) edge.
func (b *bugGen) overflow() {
	b.line(".line %d", bugLineSetup)
	b.line("    lea  r11, nval")
	b.line("    ld   r12, [r11+0]        ; request size")
	b.line(".line %d", bugLineRoot)
	b.line(".branch ovf_guard true")
	b.line("    cmpi r12, 8")
	b.line("    jge  ovf_big             ; big requests: unchecked squared slot")
	b.line("    mov  r13, r12            ; small requests: slot = n")
	b.line("    jmp  ovf_join")
	b.line("ovf_big:")
	b.line("    mov  r13, r12")
	b.line("    mul  r13, r12            ; slot = n*n — wraps int64 for huge n")
	b.line("ovf_join:")
	b.pads()
	b.line(".line %d", bugLineFailA)
	b.line("    lea  r14, arr")
	b.line("    add  r14, r13")
	b.line(".line %d", bugLineFailB)
	b.line("    st   [r14+0], r12        ; arr[slot] = n — faults when wrapped")
	b.line("    exit")
}

// dangling emits the stale-pointer shape: lifecycle mode 1 releases the
// buffer early, overwriting the pointer cell with whatever the release
// left behind (a garbage sentinel in failing workloads, the buffer's own
// address — a benign realloc-in-place — in the infected success variant).
// The later use dereferences the cell. The root cause is the release
// branch taking its true edge.
func (b *bugGen) dangling() {
	b.line(".line %d", bugLineSetup)
	b.line("    lea  r10, dpcell")
	b.line("    lea  r13, dpbuf")
	b.line("    st   [r10+0], r13        ; cell = &buf")
	b.line("    lea  r12, dpmode")
	b.line("    ld   r12, [r12+0]")
	b.line(".line %d", bugLineRoot)
	b.line(".branch dp_free true")
	b.line("    cmpi r12, 1")
	b.line("    je   dp_dofree           ; mode 1: release the buffer early")
	b.line("    jmp  dp_keep")
	b.line("dp_dofree:")
	b.line("    lea  r13, dpsent")
	b.line("    ld   r13, [r13+0]")
	b.line("    st   [r10+0], r13        ; cell = stale value the release left")
	b.line("dp_keep:")
	b.pads()
	b.line(".line %d", bugLineFailA)
	b.line("    ld   r15, [r10+0]")
	b.line(".line %d", bugLineFailB)
	b.line("    ld   r15, [r15+0]        ; use: faults while the cell is stale")
	b.line("    exit")
}

// danglingSentinel is the garbage a failing release leaves in the pointer
// cell: far below GlobalBase, so dereferencing it always faults.
const danglingSentinel = -524289

// manifest locates the planted landmarks in the assembled program and
// fills the ground truth and workload variants.
func (b *bugGen) manifest(bp *BugProgram) error {
	p := bp.Prog
	m := &bp.Manifest
	m.Class = b.cfg.Class
	m.Distance = b.cfg.Distance
	file := fmt.Sprintf("bug_%s.c", b.cfg.Class)

	pcOf := func(line int, op isa.Op) (int, error) {
		for pc := range p.Instrs {
			in := &p.Instrs[pc]
			if !in.Synthetic && in.Op == op && in.Loc.File == file && in.Loc.Line == line {
				return pc, nil
			}
		}
		return 0, fmt.Errorf("synth: %s: no %s at %s:%d", b.cfg.Class, op, file, line)
	}
	branchCond := func(name string) (int, error) {
		for pc := range p.Instrs {
			in := &p.Instrs[pc]
			if in.BranchID != isa.NoBranch && !in.Synthetic && p.BranchName(in.BranchID) == name {
				return pc, nil
			}
		}
		return 0, fmt.Errorf("synth: %s: no conditional for branch %q", b.cfg.Class, name)
	}

	switch b.cfg.Class {
	case BugAtomicity, BugOrder:
		racy, err := pcOf(bugLineRacy, isa.OpLd)
		if err != nil {
			return err
		}
		failPC, err := pcOf(bugLineCall, isa.OpCall)
		if err != nil {
			return err
		}
		m.RootPCs = []int{racy}
		m.RootLoc = p.Instrs[racy].Loc
		m.FPEKind = cache.Load
		m.FailPC = failPC
		if b.cfg.Class == BugAtomicity {
			// A raced re-check reads a remotely-written line: invalid.
			m.FPEState = cache.Invalid
			bp.Fail = []map[string]int64{{"avremote": 0}}
			bp.Succeed = []map[string]int64{{"avremote": 1}}
		} else {
			// A too-early consume re-reads its own primed line: exclusive.
			m.FPEState = cache.Exclusive
			bp.Fail = []map[string]int64{{"ordshared": 0}}
			bp.Succeed = []map[string]int64{{"ordshared": 7}}
		}
	case BugOverflow:
		root, err := branchCond("ovf_guard")
		if err != nil {
			return err
		}
		failPC, err := pcOf(bugLineFailB, isa.OpSt)
		if err != nil {
			return err
		}
		m.RootPCs = []int{root}
		m.RootBranch = "ovf_guard"
		m.BuggyEdge = isa.EdgeTrue
		m.RootLoc = p.Instrs[root].Loc
		m.FailPC = failPC
		bp.Fail = []map[string]int64{{"nval": 3_100_000_000}}
		bp.Succeed = []map[string]int64{
			{"nval": 3}, // clean: the checked small path
			{"nval": 9}, // benign infection: big path, slot 81 in bounds
		}
	case BugDangling:
		root, err := branchCond("dp_free")
		if err != nil {
			return err
		}
		failPC, err := pcOf(bugLineFailB, isa.OpLd)
		if err != nil {
			return err
		}
		buf := p.GlobalByName("dpbuf")
		if buf == nil {
			return fmt.Errorf("synth: dangling: dpbuf global missing")
		}
		m.RootPCs = []int{root}
		m.RootBranch = "dp_free"
		m.BuggyEdge = isa.EdgeTrue
		m.RootLoc = p.Instrs[root].Loc
		m.FailPC = failPC
		bp.Fail = []map[string]int64{{"dpmode": 1, "dpsent": danglingSentinel}}
		bp.Succeed = []map[string]int64{
			{"dpmode": 0, "dpsent": danglingSentinel}, // clean: never released
			{"dpmode": 1, "dpsent": buf.Addr},         // benign: realloc in place
		}
	}
	return nil
}
