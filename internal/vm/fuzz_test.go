package vm

import (
	"testing"

	"stmdiag/internal/isa"
)

// FuzzRunProgram assembles arbitrary text and, when it assembles, runs it
// under a tight step limit: the machine must terminate with a result (clean
// exit, failure event, or hang), never panic and never return an internal
// error for a valid program without a driver.
func FuzzRunProgram(f *testing.F) {
	f.Add(".func main\nmain:\n exit\n", int64(1))
	f.Add(".func main\nmain:\nl:\n jmp l\n", int64(2))
	f.Add(".func main\nmain:\n movi r1, 0\n ld r2, [r1+0]\n exit\n", int64(3))
	f.Add(".global g 4\n.func main\nmain:\n movi r1, 1\n spawn w, r1\n join\n exit\n.func w\nw:\n halt\n", int64(4))
	f.Add(".func main\nmain:\n movi r1, 3\n lock r1\n lock r1\n exit\n", int64(5))
	f.Add(".func main\nmain:\n push r1\n pop r2\n callr r2\n exit\n", int64(6))
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		p, err := isa.Assemble("fuzz", src)
		if err != nil {
			return
		}
		res, err := Run(p, Options{Seed: seed, StepLimit: 20_000})
		if err != nil {
			// Internal errors are reserved for driver/spawn plumbing; a
			// driverless program must never surface one... except spawn
			// exhaustion of the address space, which Map reports.
			t.Fatalf("vm error on valid program: %v\nsource:\n%s", err, src)
		}
		if res.Steps > 20_000 {
			t.Fatalf("step limit not enforced: %d", res.Steps)
		}
	})
}
