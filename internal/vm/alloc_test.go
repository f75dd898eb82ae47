package vm_test

import (
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
