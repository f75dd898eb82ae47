package vm_test

import (
	"reflect"
	"testing"

	"stmdiag/internal/apps"
	"stmdiag/internal/core"
	"stmdiag/internal/kernel"
	"stmdiag/internal/obs"
	"stmdiag/internal/pmu"
	"stmdiag/internal/vm"
)

// TestSpareRunsIdentical: machines that share one Spare — reusing its
// run tables and the cache systems earlier runs left — return the results
// and telemetry that machines built from scratch return, run after run,
// across programs and core counts.
func TestSpareRunsIdentical(t *testing.T) {
	var spare vm.Spare
	conf := pmu.ConfSpaceSaving
	for _, a := range []*apps.App{apps.Concurrent()[0], apps.Concurrent()[1], apps.Concurrent()[2], apps.ByName("sort")} {
		inst, err := core.EnhanceLogging(a.Program(), core.Options{LBR: true, LCR: true, Toggling: true})
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 4; seed++ {
			for _, w := range []apps.Workload{a.Fail, a.Succeed} {
				run := func(spare *vm.Spare) (*vm.Result, obs.Snapshot) {
					t.Helper()
					opts := w.VMOptions(seed)
					opts.Driver = kernel.Driver{}
					opts.SegvIoctls = inst.SegvIoctls
					opts.LCRConfig = conf
					opts.Spare = spare
					if seed == 3 {
						opts.Cores = 2
					}
					opts.Obs = &obs.Sink{Metrics: obs.NewRegistry()}
					res, err := vm.Run(inst.Prog, opts)
					if err != nil {
						t.Fatal(err)
					}
					return res, opts.Obs.Metrics.Snapshot()
				}
				want, wantTel := run(nil)
				got, gotTel := run(&spare)
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotTel, wantTel) {
					t.Fatalf("%s seed %d: a run on the spare differs from a fresh run", a.Name, seed)
				}
			}
		}
	}
}
