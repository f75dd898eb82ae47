package vm

import (
	"fmt"
	"strings"
	"testing"

	"stmdiag/internal/isa"
)

// TestALUSemantics drives every arithmetic/logic opcode through a tiny
// program and checks the printed result.
func TestALUSemantics(t *testing.T) {
	cases := []struct {
		name string
		body string
		want string
	}{
		{"add", "movi r1, 7\n movi r2, 5\n add r1, r2\n out r1", "12"},
		{"sub", "movi r1, 7\n movi r2, 5\n sub r1, r2\n out r1", "2"},
		{"mul", "movi r1, -3\n movi r2, 5\n mul r1, r2\n out r1", "-15"},
		{"div", "movi r1, 17\n movi r2, 5\n div r1, r2\n out r1", "3"},
		{"mod", "movi r1, 17\n movi r2, 5\n mod r1, r2\n out r1", "2"},
		{"and", "movi r1, 12\n movi r2, 10\n and r1, r2\n out r1", "8"},
		{"or", "movi r1, 12\n movi r2, 10\n or r1, r2\n out r1", "14"},
		{"xor", "movi r1, 12\n movi r2, 10\n xor r1, r2\n out r1", "6"},
		{"shl", "movi r1, 3\n movi r2, 4\n shl r1, r2\n out r1", "48"},
		{"shr", "movi r1, 48\n movi r2, 4\n shr r1, r2\n out r1", "3"},
		{"shr-unsigned", "movi r1, -1\n movi r2, 63\n shr r1, r2\n out r1", "1"},
		{"shl-mask", "movi r1, 1\n movi r2, 64\n shl r1, r2\n out r1", "1"},
		{"addi", "movi r1, 7\n addi r1, 5\n out r1", "12"},
		{"subi", "movi r1, 7\n subi r1, 5\n out r1", "2"},
		{"muli", "movi r1, 7\n muli r1, -5\n out r1", "-35"},
		{"andi", "movi r1, 13\n andi r1, 6\n out r1", "4"},
		{"mov", "movi r1, 9\n mov r2, r1\n out r2", "9"},
		{"push-pop", "movi r1, 41\n push r1\n movi r1, 0\n pop r2\n out r2", "41"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := ".func main\nmain:\n " + tc.body + "\n exit\n"
			p, err := isa.Assemble("t", src)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed() {
				t.Fatalf("failed: %v", res.Failures)
			}
			if len(res.Output) != 1 || res.Output[0] != tc.want {
				t.Errorf("output = %v, want %q", res.Output, tc.want)
			}
		})
	}
}

func TestConditionalSemantics(t *testing.T) {
	// For each (a, b, op) verify taken-ness against the comparison.
	ops := []struct {
		op   string
		test func(a, b int64) bool
	}{
		{"je", func(a, b int64) bool { return a == b }},
		{"jne", func(a, b int64) bool { return a != b }},
		{"jl", func(a, b int64) bool { return a < b }},
		{"jle", func(a, b int64) bool { return a <= b }},
		{"jg", func(a, b int64) bool { return a > b }},
		{"jge", func(a, b int64) bool { return a >= b }},
	}
	pairs := [][2]int64{{1, 2}, {2, 1}, {3, 3}, {-5, 5}, {0, 0}}
	for _, o := range ops {
		for _, pr := range pairs {
			src := fmt.Sprintf(`
.func main
main:
    movi r1, %d
    movi r2, %d
    cmp  r1, r2
    %s   yes
    out  r0      ; not taken: prints 0
    exit
yes:
    movi r3, 1
    out  r3      ; taken: prints 1
    exit
`, pr[0], pr[1], o.op)
			p, err := isa.Assemble("t", src)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := "0"
			if o.test(pr[0], pr[1]) {
				want = "1"
			}
			if res.Output[0] != want {
				t.Errorf("%s(%d,%d) printed %s, want %s", o.op, pr[0], pr[1], res.Output[0], want)
			}
		}
	}
}

func TestIndirectCallViaTable(t *testing.T) {
	// lea only resolves globals; function addresses reach registers by
	// patching the immediate (the harness has no address-of-label syntax),
	// then callr dispatches through the register.
	p := asm(t, `
.func main
main:
    movi r1, 0           ; patched below to f's PC
    callr r1
    out  r2
    exit
.func f
f:
    movi r2, 77
    ret
`)
	p.Instrs[p.Labels["main"]].Imm = int64(p.Labels["f"])
	r, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed() || r.Output[0] != "77" {
		t.Fatalf("callr dispatch: output %v failures %v", r.Output, r.Failures)
	}
}

func TestJmprDispatch(t *testing.T) {
	p := asm(t, `
.func main
main:
    movi r1, 0           ; patched to target's PC
    jmpr r1
    exit
target:
    movi r2, 5
    out  r2
    exit
`)
	p.Instrs[p.Labels["main"]].Imm = int64(p.Labels["target"])
	r, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed() || len(r.Output) != 1 || r.Output[0] != "5" {
		t.Fatalf("jmpr: output %v failures %v", r.Output, r.Failures)
	}
}

func TestStackOverflowSegfaults(t *testing.T) {
	// Infinite recursion exhausts the stack segment and faults.
	res := run(t, `
.func main
main:
    call main
`, Options{})
	f := res.FirstFailure()
	if f == nil || f.Kind != FailCrash {
		t.Fatalf("recursion produced %+v, want crash", f)
	}
}

func TestUnlockByNonOwnerIsNoop(t *testing.T) {
	res := run(t, `
.func main
main:
    movi r1, 5
    unlock r1      ; never locked: no-op
    lock r1
    unlock r1
    out r1
    exit
`, Options{})
	if res.Failed() || res.Output[0] != "5" {
		t.Fatalf("output %v failures %v", res.Output, res.Failures)
	}
}

func TestCoreAssignmentRoundRobin(t *testing.T) {
	p := asm(t, `
.func main
main:
    movi r1, 0
    spawn w, r1
    spawn w, r1
    spawn w, r1
    spawn w, r1
    join
    exit
.func w
w:
    halt
`)
	m, err := New(p, Options{Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	ths := m.Threads()
	if len(ths) != 5 {
		t.Fatalf("%d threads", len(ths))
	}
	for _, th := range ths {
		if th.Core != th.ID%4 {
			t.Errorf("thread %d on core %d, want %d", th.ID, th.Core, th.ID%4)
		}
	}
}

func TestCacheStatsExposed(t *testing.T) {
	res := run(t, `
.global g 8
.func main
main:
    lea r1, g
    ld  r2, [r1+0]
    ld  r2, [r1+0]
    st  [r1+0], r2
    exit
`, Options{Cores: 2})
	if len(res.CacheStats) != 2 {
		t.Fatalf("CacheStats for %d cores", len(res.CacheStats))
	}
	s := res.CacheStats[0]
	if s.Loads < 2 || s.Stores < 1 {
		t.Errorf("stats = %+v", s)
	}
}

// A delay of Imm stalls Imm steps at one cycle each, and a non-positive
// immediate retires like `delay 1`; neither leaves stall state behind to
// shorten the thread's next delay.
func TestDelaySteps(t *testing.T) {
	cases := []struct {
		body  string
		steps uint64
	}{
		{"delay 5", 5 + 1},
		{"delay 1", 1 + 1},
		{"delay 0\n delay 5", 1 + 5 + 1},
		{"delay -3\n delay 5", 1 + 5 + 1},
		{"delay 5\n delay 0\n delay 3", 5 + 1 + 3 + 1},
	}
	for _, tc := range cases {
		for _, q := range []int{2, 120} { // stalls cut by preemption, and not
			name := fmt.Sprintf("%s/q%d", strings.ReplaceAll(tc.body, "\n ", ";"), q)
			res := run(t, ".func main\nmain:\n "+tc.body+"\n exit\n", Options{QuantumMin: q, QuantumMax: q})
			if res.Steps != tc.steps || res.Cycles != tc.steps*CostInstr {
				t.Errorf("%s: steps/cycles = %d/%d, want %d/%d", name, res.Steps, res.Cycles, tc.steps, tc.steps*CostInstr)
			}
		}
	}
}
