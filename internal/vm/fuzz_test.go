package vm_test

import (
	"testing"

	"stmdiag/internal/isa"
	"stmdiag/internal/vm"
)

// FuzzRunProgram assembles arbitrary text and, when it assembles, runs it
// under a tight step limit: the machine must terminate with a result (clean
// exit, failure event, or hang), never panic and never return an internal
// error for a valid program without a driver. Each program runs twice,
// batched and with a no-op step hook forcing per-instruction dispatch, and
// the two runs must agree exactly.
func FuzzRunProgram(f *testing.F) {
	f.Add(".func main\nmain:\n exit\n", int64(1), uint16(19_999))
	f.Add(".func main\nmain:\nl:\n jmp l\n", int64(2), uint16(19_999))
	f.Add(".func main\nmain:\n movi r1, 0\n ld r2, [r1+0]\n exit\n", int64(3), uint16(19_999))
	f.Add(".global g 4\n.func main\nmain:\n movi r1, 1\n spawn w, r1\n join\n exit\n.func w\nw:\n halt\n", int64(4), uint16(19_999))
	f.Add(".func main\nmain:\n movi r1, 3\n lock r1\n lock r1\n exit\n", int64(5), uint16(19_999))
	f.Add(".func main\nmain:\n push r1\n pop r2\n callr r2\n exit\n", int64(6), uint16(19_999))
	// Straight-line register-only runs, fused addis and compares.
	f.Add(".func main\nmain:\n movi r1, 5\n addi r1, 3\n addi r1, 3\n addi r1, 3\n addi r2, 3\n cmpi r1, 14\n cmp r1, r2\n out r1\n exit\n", int64(7), uint16(19_999))
	// A spinning run whose step limit lands mid-run.
	f.Add(".func main\nmain:\nl:\n addi r1, 1\n addi r1, 1\n addi r1, 1\n muli r2, 3\n addi r1, 1\n jmp l\n", int64(8), uint16(1000))
	// Two threads spinning through runs, preempted inside them.
	f.Add(".func main\nmain:\n spawn l, r1\nl:\n addi r3, -9\n addi r3, -9\n xor r4, r3\n addi r3, -9\n jmp l\n", int64(9), uint16(777))
	f.Fuzz(func(t *testing.T, src string, seed int64, limit uint16) {
		p, err := isa.Assemble("fuzz", src)
		if err != nil {
			return
		}
		stepLimit := uint64(limit) + 1
		// Internal errors are reserved for driver/spawn plumbing; a
		// driverless program must never surface one... except spawn
		// exhaustion of the address space, which Map reports.
		res, err := dispatchBoth(t, p, vm.Options{Seed: seed, StepLimit: stepLimit}, nil)
		if err != nil {
			t.Fatalf("vm error on valid program: %v\nsource:\n%s", err, src)
		}
		if res.Steps > stepLimit {
			t.Fatalf("step limit not enforced: %d > %d", res.Steps, stepLimit)
		}
	})
}
