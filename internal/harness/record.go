package harness

import (
	"sync"

	"stmdiag/internal/apps"
	"stmdiag/internal/cbi"
	"stmdiag/internal/core"
	"stmdiag/internal/faultinj"
	"stmdiag/internal/kernel"
	"stmdiag/internal/obs"
	"stmdiag/internal/vm"
)

// This file is "execute once, sample many". The CBI baseline and the
// overhead columns re-run one program on one workload hundreds of times
// with nothing but the seed changed. On a run that never spawns a thread
// the seed only picks that thread and places preemption points, and
// cycles never feed control flow, so the branch-site stream, the failure
// verdict and the cycle count are the same at every seed. Each executor
// session therefore runs such a program once, and derives the cbi-run and
// mean-cycles trials from that recording: only the CBI sampler's RNG still
// differs between them, and cbi.Observer.Replay draws it over the
// recorded stream exactly as the live branch hook would.

// runKey names one recordable run: everything that shapes it except the
// seed. Builds come from buildCache, so one (app, options) pair is always
// the same *core.Instrumented.
type runKey struct {
	app     *apps.App
	fail    bool               // the failure workload, else the success one
	build   *core.Instrumented // nil runs the plain program
	lbrSize int
	driver  bool // a kernel.Driver services ioctls
}

func (k runKey) workload() apps.Workload {
	if k.fail {
		return k.app.Fail
	}
	return k.app.Succeed
}

// machine builds the run k names at one seed, reporting into sink under
// the fault plan.
func (k runKey) machine(seed int64, sink *obs.Sink, faults *faultinj.Plan) (*vm.Machine, error) {
	opts := k.workload().VMOptions(seed)
	opts.LBRSize = k.lbrSize
	opts.Obs, opts.Faults = sink, faults
	p := k.app.Program()
	if k.build != nil {
		p, opts.SegvIoctls = k.build.Prog, k.build.SegvIoctls
	}
	if k.driver {
		opts.Driver = kernel.Driver{}
	}
	return vm.New(p, opts)
}

// recording is one run of a runKey. It is usable only when certified: the
// run returned no error and ended with exactly one thread. Otherwise ok is
// false and every trial of the key runs the VM.
type recording struct {
	once   sync.Once
	ok     bool
	failed bool   // the workload's verdict on the run
	cycles uint64 // the run's cycles, with no sampling hook
	sites  []cbi.Site
}

// recordings is one executor session's table of recorded runs. The zero
// value is ready; a nil table records nothing, so every trial runs live.
type recordings struct {
	mu   sync.Mutex
	runs map[runKey]*recording
}

// lookup returns k's certified recording, recording it on first use, or
// nil when the table is nil or the run is not certified. Concurrent
// callers of one key wait for the single recording run.
func (r *recordings) lookup(k runKey) *recording {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	if r.runs == nil {
		r.runs = make(map[runKey]*recording)
	}
	rec := r.runs[k]
	if rec == nil {
		rec = &recording{}
		r.runs[k] = rec
	}
	r.mu.Unlock()
	rec.once.Do(func() { rec.record(k) })
	if !rec.ok {
		return nil
	}
	return rec
}

// record runs k once, at a fixed seed, against a nil sink and no fault
// plan, so no trial's telemetry depends on which trial or process
// recorded. The site stream is kept for the plain program only: that is
// the program the CBI hook instruments.
func (rec *recording) record(k runKey) {
	m, err := k.machine(0, nil, nil)
	if err != nil {
		return
	}
	var sites []cbi.Site
	if k.build == nil {
		cbi.Record(m, &sites)
	}
	res, err := m.Run()
	if err != nil || len(m.Threads()) != 1 {
		return
	}
	rec.ok, rec.failed, rec.cycles, rec.sites = true, k.workload().FailedRun(res), res.Cycles, sites
}

// derived returns the recording a trial may derive its result from, or
// nil when it must run the VM: its fault plan arms a capture layer, its
// session keeps no recordings, or the run is not certified. Plans that arm
// only the panic or store layers never reach the VM, so they still derive.
func (tc *Trial) derived(k runKey) *recording {
	if tc.Faults.Spec().ArmsCapture() {
		return nil
	}
	return tc.recs.lookup(k)
}

// chargeDerived advances the trial sink's cycle clock by a derived run's
// cycles, as the VM's end-of-run accounting would: "vm.cycles", and the
// trace clock past the run. Counters of executed work (vm.runs, vm.steps,
// cache.*, pmu.*, kernel.ioctl.*) are left alone: no VM ran.
func chargeDerived(s *obs.Sink, cycles uint64) {
	s.Counter("vm.cycles").Add(cycles)
	s.Tracer().Advance(cycles + 1)
}
