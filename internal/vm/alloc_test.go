package vm_test

import (
	"runtime"
	"testing"

	"stmdiag/internal/apps"
	"stmdiag/internal/core"
	"stmdiag/internal/kernel"
	"stmdiag/internal/vm"
)

// maxAllocsPerTrial is the allocation budget of one instrumented trial:
// building a machine and running it to completion. Memory pages and cache
// lines are allocated on first touch, so the budget does not grow with the
// mapped stack or the cache geometry.
const maxAllocsPerTrial = 100

// TestAllocsPerTrial guards the budget on the instrumented sort trial (the
// LBRLOG capture build with toggling, on the success workload).
func TestAllocsPerTrial(t *testing.T) {
	a := apps.ByName("sort")
	inst, err := core.EnhanceLogging(a.Program(), core.Options{LBR: true, Toggling: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := a.Succeed.VMOptions(0)
	opts.Driver = kernel.Driver{}
	opts.SegvIoctls = inst.SegvIoctls
	var runErr error
	allocs := testing.AllocsPerRun(10, func() {
		m, err := vm.New(inst.Prog, opts)
		if err == nil {
			_, err = m.Run()
		}
		if err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if allocs >= maxAllocsPerTrial {
		t.Errorf("%.0f allocations per trial, want < %d", allocs, maxAllocsPerTrial)
	}
	t.Logf("%.0f allocations per trial", allocs)
}

// firstSched always runs the first runnable thread for the longest
// quantum, drawing nothing.
type firstSched struct{}

func (firstSched) Pick([]int) int           { return 0 }
func (firstSched) Quantum(min, max int) int { return max }

// The default scheduler's generator lives in Run's frame: an unhooked run
// allocates no more than the same run under a policy that owns no
// generator, and far less than one 4.9 KB generator.
func TestDefaultSchedAllocatesNoGenerator(t *testing.T) {
	a := apps.ByName("sort")
	bytesPerRun := func(sched vm.SchedSource) uint64 {
		opts := a.Succeed.VMOptions(0)
		opts.Sched = sched
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			m, err := vm.New(a.Program(), opts)
			if err == nil {
				_, err = m.Run()
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	fixed, def := bytesPerRun(firstSched{}), bytesPerRun(nil)
	if def >= fixed+4096 {
		t.Errorf("default scheduler run allocates %d B, fixed-policy run %d B: a generator escaped", def, fixed)
	}
	t.Logf("%d B per default-scheduler run, %d B per fixed-policy run", def, fixed)
}
