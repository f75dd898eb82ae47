package vm

import (
	"fmt"
	"reflect"
	"testing"

	"stmdiag/internal/obs"
)

// siteDriver deposits one bare profile per request, so a hang's handler
// run leaves the site it profiled in the result.
type siteDriver struct{}

func (siteDriver) Ioctl(m *Machine, t *Thread, req int64) error {
	m.AddCycles(CostProfile)
	m.AddProfile(Profile{Site: t.PC, Thread: t.ID})
	return nil
}

// The step limit cuts a run after exactly StepLimit retired instructions
// wherever the limit falls against the quantum boundaries, raises the hang
// at the spinning PC, and the profiled dispatch path stops at the same
// instruction with the same cycles, failures and profiles.
func TestStepLimitBoundaries(t *testing.T) {
	progs := []struct{ name, src string }{
		{"spin", `
.func main
main:
spin:
    jmp spin
`},
		// main spawns a second spinner on the same loop and both spin.
		{"two-thread", `
.func main
main:
    spawn spin, r1
spin:
    jmp spin
`},
	}
	const qmin, qmax = 20, 120
	limits := []uint64{1, qmin - 1, qmin, qmin + 1, qmax - 1, qmax, qmax + 1, 1000}
	quanta := []struct{ min, max int }{{qmin, qmax}, {qmin, qmin}} // drawn, fixed
	for _, pr := range progs {
		p := asm(t, pr.src)
		spinPC := p.Instrs[len(p.Instrs)-1].Target
		for _, q := range quanta {
			for _, limit := range limits {
				name := fmt.Sprintf("%s/q%d-%d/limit%d", pr.name, q.min, q.max, limit)
				var results [2]*Result
				for i, sink := range []*obs.Sink{nil, {Metrics: obs.NewRegistry(), Profiling: true}} {
					res, err := Run(p, Options{Seed: 5, QuantumMin: q.min, QuantumMax: q.max,
						StepLimit: limit, Driver: siteDriver{}, SegvIoctls: []int64{1}, Obs: sink})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					results[i] = res
				}
				res := results[0]
				if res.Steps != limit {
					t.Errorf("%s: Steps = %d, want %d", name, res.Steps, limit)
				}
				f := res.FirstFailure()
				if len(res.Failures) != 1 || f.Kind != FailHang || f.PC != spinPC {
					t.Errorf("%s: failures = %+v, want one hang at PC %d", name, res.Failures, spinPC)
				}
				if len(res.Profiles) != 1 || res.Profiles[0].Site != spinPC {
					t.Errorf("%s: profiles = %+v, want one at PC %d", name, res.Profiles, spinPC)
				}
				if !reflect.DeepEqual(results[0], results[1]) {
					t.Errorf("%s: profiled run differs:\nnil sink: %+v\nprofiled: %+v", name, results[0], results[1])
				}
			}
		}
	}
}
