// Package synth procedurally generates VM programs: correct ones at scale,
// and — via the bug grammar in bug.go — programs with a seeded fault of a
// chosen class and ground-truth manifest.
//
// The correct-program generator (Generate) serves the paper's Table 5
// scale dimension: its useful-branch-ratio analysis covers 6945 logging
// points across 13 real applications, and the re-authored benchmarks in
// internal/apps are necessarily small, so synth produces programs with
// hundreds of logging sites whose CFG statistics internal/cfg can analyze
// and whose execution stresses the instrumentation overhead accounting.
//
// The bug grammar (GenerateBug) plants one fault — an atomicity violation,
// order violation, integer overflow, or dangling/stale pointer — into an
// otherwise-correct generated program, with a configurable propagation
// distance (padding basic blocks between the root-cause instruction and
// the observable failure site) and a Manifest recording the ground-truth
// root-cause PCs. Table 9 (internal/harness) sweeps that corpus to compare
// ranking formulas against known root causes.
package synth

import (
	"fmt"
	"strings"

	"stmdiag/internal/isa"
	"stmdiag/internal/rng"
)

// Config shapes the generated program.
type Config struct {
	// Seed drives generation; equal seeds generate equal programs.
	Seed int64
	// Funcs is the number of worker functions (beyond main and the
	// logging function). 0 means 8.
	Funcs int
	// StmtsPerFunc is the statement budget per function. 0 means 20.
	StmtsPerFunc int
	// LogEvery makes roughly every n-th statement a failure-logging call.
	// 0 means 6.
	LogEvery int
	// Workers spawns that many threads, each performing mutex-protected
	// increments on a shared counter array interleaved with private
	// compute. The main thread joins and prints every counter, so a run's
	// output is schedule-independent exactly when the VM's mutexes and
	// cache coherence are correct — the property the stress tests check.
	Workers int
	// IncrementsPerWorker is each worker's protected-increment count
	// (default 20 when Workers > 0).
	IncrementsPerWorker int
}

func (c Config) withDefaults() Config {
	if c.Funcs == 0 {
		c.Funcs = 8
	}
	if c.StmtsPerFunc == 0 {
		c.StmtsPerFunc = 20
	}
	if c.LogEvery == 0 {
		c.LogEvery = 6
	}
	if c.Workers > 0 && c.IncrementsPerWorker == 0 {
		c.IncrementsPerWorker = 20
	}
	return c
}

// ExpectedOutput returns the tail of the output a correct run of the
// generated program must produce: the four shared counters printed after
// all workers join (log messages may precede them). It is empty for
// single-threaded configurations.
func (c Config) ExpectedOutput() []string {
	c = c.withDefaults()
	if c.Workers == 0 {
		return nil
	}
	out := make([]string, 4)
	perCounter := make([]int, 4)
	for w := 0; w < c.Workers; w++ {
		perCounter[w%4] += c.IncrementsPerWorker
	}
	for i, n := range perCounter {
		out[i] = itoa(n)
	}
	return out
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }

// Generate produces a program. The program always terminates when run
// (loops are bounded counters, the call graph is acyclic) and never fails
// (its logging function prints but does not raise a failure), so it can be
// executed for overhead measurements as well as analyzed statically.
func Generate(name string, cfg Config) (*isa.Program, error) {
	cfg = cfg.withDefaults()
	g := &gen{cfg: cfg}
	g.rng.Seed(cfg.Seed)
	src := g.source()
	p, err := isa.Assemble(name, src)
	if err != nil {
		return nil, fmt.Errorf("synth: generated program does not assemble: %w", err)
	}
	return p, nil
}

// MustGenerate is Generate panicking on error, for benchmarks.
func MustGenerate(name string, cfg Config) *isa.Program {
	p, err := Generate(name, cfg)
	if err != nil {
		panic(err)
	}
	return p
}

type gen struct {
	cfg    Config
	rng    rng.Rand
	b      strings.Builder
	labels int
	branch int
	stmts  int // statements since the last log call
}

func (g *gen) label(prefix string) string {
	g.labels++
	return fmt.Sprintf("%s_%d", prefix, g.labels)
}

func (g *gen) nextBranch() string {
	g.branch++
	return fmt.Sprintf("B%d", g.branch)
}

func (g *gen) line(format string, args ...any) {
	fmt.Fprintf(&g.b, format+"\n", args...)
}

func (g *gen) source() string {
	g.line(".file synth.c")
	g.line(".str msg %q", "synthetic log message")
	g.line(".global state 16")

	if g.cfg.Workers > 0 {
		g.line(".global counters 32")
	}
	g.line(".func main")
	g.line("main:")
	g.line("    lea r7, state")
	for w := 0; w < g.cfg.Workers; w++ {
		g.line("    movi r9, %d", w)
		g.line("    spawn worker, r9")
	}
	for i := 0; i < g.cfg.Funcs; i++ {
		g.line("    call f%d", i)
	}
	if g.cfg.Workers > 0 {
		g.line("    join")
		g.line("    lea r8, counters")
		for i := 0; i < 4; i++ {
			g.line("    ld r9, [r8+%d]", i*8)
			g.line("    out r9")
		}
	}
	g.line("    exit")
	if g.cfg.Workers > 0 {
		g.worker()
	}

	for i := 0; i < g.cfg.Funcs; i++ {
		g.fn(i)
	}

	g.line(".func report log")
	g.line("report:")
	g.line("    print msg")
	g.line("    ret")
	return g.b.String()
}

// worker emits the parallel section: each worker thread performs
// mutex-protected increments on its shared counter (one 64-byte block per
// counter, so the four counters bounce between caches independently) with
// private compute in between.
func (g *gen) worker() {
	g.line(".func worker")
	g.line("worker:")
	g.line("    mov  r1, r0")
	g.line("    andi r1, 3")
	g.line("    mov  r2, r1")
	g.line("    muli r2, 8")
	g.line("    lea  r3, counters")
	g.line("    add  r3, r2")
	g.line("    movi r4, 100")
	g.line("    add  r4, r1")
	g.line("    movi r5, 0")
	g.line("wkr_loop:")
	g.line(".branch wk_worker")
	g.line("    cmpi r5, %d", g.cfg.IncrementsPerWorker)
	g.line("    jge  wkr_done")
	g.line("    lock r4")
	g.line("    ld   r6, [r3+0]")
	g.line("    addi r6, 1")
	g.line("    st   [r3+0], r6")
	g.line("    unlock r4")
	g.line("    delay 3")
	g.line("    addi r5, 1")
	g.line("    jmp  wkr_loop")
	g.line("wkr_done:")
	g.line("    halt")
}

func (g *gen) fn(i int) {
	g.line(".func f%d", i)
	g.line(".line %d", 10*(i+1))
	g.line("f%d:", i)
	g.line("    movi r1, %d", g.rng.Intn(20))
	g.line("    movi r2, %d", g.rng.Intn(20))
	for s := 0; s < g.cfg.StmtsPerFunc; s++ {
		g.stmt(i)
	}
	g.line("    ret")
}

func (g *gen) stmt(fn int) {
	g.stmts++
	if g.stmts >= g.cfg.LogEvery {
		g.stmts = 0
		// A guarded logging call: the classic "if (bad) log(...)" shape of
		// paper Figure 8.
		skip := g.label("nolog")
		g.line(".branch %s", g.nextBranch())
		g.line("    cmpi r1, %d", g.rng.Intn(25))
		g.line("    jge %s", skip)
		g.line("    call report")
		g.line("%s:", skip)
		return
	}
	switch g.rng.Intn(5) {
	case 0: // arithmetic
		ops := []string{"addi", "subi", "muli"}
		g.line("    %s r%d, %d", ops[g.rng.Intn(len(ops))], 1+g.rng.Intn(3), 1+g.rng.Intn(9))
	case 1: // memory traffic on the shared state
		idx := g.rng.Intn(16)
		if g.rng.Intn(2) == 0 {
			g.line("    ld r4, [r7+%d]", idx)
		} else {
			g.line("    st [r7+%d], r2", idx)
		}
	case 2: // if/else diamond
		elseL, endL := g.label("else"), g.label("end")
		g.line(".branch %s", g.nextBranch())
		g.line("    cmpi r2, %d", g.rng.Intn(25))
		g.line("    jl %s", elseL)
		g.line("    addi r1, 1")
		g.line("    jmp %s", endL)
		g.line("%s:", elseL)
		g.line("    subi r1, 1")
		g.line("%s:", endL)
	case 3: // bounded loop
		top, done := g.label("loop"), g.label("done")
		n := 1 + g.rng.Intn(4)
		g.line("    movi r5, %d", n)
		g.line("%s:", top)
		g.line(".branch %s", g.nextBranch())
		g.line("    cmpi r5, 0")
		g.line("    jle %s", done)
		g.line("    subi r5, 1")
		g.line("    add  r2, r5")
		g.line("    jmp %s", top)
		g.line("%s:", done)
	case 4: // acyclic cross-function call
		if fn+1 < g.cfg.Funcs && g.rng.Intn(3) == 0 {
			g.line("    call f%d", fn+1+g.rng.Intn(g.cfg.Funcs-fn-1))
		} else {
			g.line("    addi r3, 1")
		}
	}
}
