package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"stmdiag/internal/apps"
	"stmdiag/internal/artifact"
	"stmdiag/internal/cache"
	"stmdiag/internal/cbi"
	"stmdiag/internal/core"
	"stmdiag/internal/fleet"
	"stmdiag/internal/harness"
	"stmdiag/internal/isa"
	"stmdiag/internal/kernel"
	"stmdiag/internal/obs"
	"stmdiag/internal/pmu"
	"stmdiag/internal/vm"
)

// probes are per-unit costs of single layers, each timed on its own
// through the layer's public functions. Multiplied by the ledger's exact
// counts they attribute an op's time to layers.
type probes struct {
	vmNsPerStep, vmAllocsPerRun      float64
	cacheNsPerAccess, pmuNsPerRecord float64
	cbiHookNsPerBranch, cbiBranches  float64 // cbiBranches: conditional branches per CBI-hooked run
	cbiRankMs                        float64
	coreInstrumentMs                 float64
	coreDiagnoseMs, coreRenderUs     float64
	codecUs, codecDecodeUs           float64
	codecAllocs                      float64
	artOpenMs, artLoadUs, artPutUs   float64
	fleetDecodeUs, fleetAddUs        float64
	fleetReportUs                    float64
}

// probeReps repeats every probe so each reading covers enough work.
const probeReps = 5

func runProbes(w workload, e *env, led ledger) probes {
	var p probes
	builds := probeInstrument(&p)
	probeCache(&p, e.seed)
	probePMU(&p, led)
	probeVM(&p, builds, e.seed)
	probeCBI(&p, e.seed)
	prof, pe := probeCollect(e.seed)
	probeCore(&p, prof)
	samples := e.exec.sample
	if r, ok := w.(*resume); ok {
		samples = storeSamples(r.dir)
	}
	if len(samples) == 0 {
		samples = pe.sample
	}
	payloads := probeCodec(&p, samples)
	probeArtifact(&p, w, e, payloads)
	batches := probeBatches(prof)
	if f, ok := w.(*fleetIngest); ok {
		batches = f.batches
	}
	probeFleet(&p, batches)
	return p
}

// build is one app's capture build.
type build struct {
	app  *apps.App
	inst *core.Instrumented
}

// probeInstrument times core.EnhanceLogging on every app's capture build.
func probeInstrument(p *probes) []build {
	var builds []build
	t0 := time.Now()
	n := 0
	for r := 0; r < probeReps; r++ {
		builds = builds[:0]
		for _, a := range apps.All() {
			inst, err := core.EnhanceLogging(a.Program(), captureOptions(a))
			if err != nil {
				fatal(err)
			}
			builds = append(builds, build{a, inst})
			n++
		}
	}
	p.coreInstrumentMs = ms(time.Since(t0)) / float64(n)
	return builds
}

// probeCache times cache.System.Access on a seeded four-core stream: a
// shared working set that fits the cache, with the accessing core switching
// every 4096 accesses, as a scheduling quantum would switch it.
func probeCache(p *probes, seed int64) {
	const n = 1 << 21
	s := cache.MustNewSystem(4, cache.DefaultConfig)
	x := uint64(seed)*0x9E3779B97F4A7C15 | 1
	addrs := make([]int64, 4096)
	for i := range addrs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		addrs[i] = int64(x % 2048)
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		s.Access((i>>12)&3, addrs[i&4095], cache.AccessKind((i>>3)&1))
	}
	p.cacheNsPerAccess = float64(time.Since(t0)) / n
}

// probePMU times LBR and LCR Record and weighs them by the op's mix.
func probePMU(p *probes, led ledger) {
	const n = 1 << 21
	l := pmu.NewLBR(pmu.DefaultLBRSize)
	_ = l.WriteMSR(pmu.MSRLBRSelect, pmu.PaperLBRSelect)
	_ = l.WriteMSR(pmu.MSRDebugCtl, pmu.DebugCtlEnableLBR)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		l.Record(pmu.BranchRecord{From: i & 1023, To: i & 511, Class: isa.BranchCond})
	}
	lbr := float64(time.Since(t0)) / n
	c := pmu.NewLCR(pmu.DefaultLCRSize)
	c.Configure(pmu.ConfSpaceConsuming)
	c.SetEnabled(true)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		c.Record(pmu.CoherenceEvent{PC: i & 1023, Kind: cache.Load, State: cache.Invalid})
	}
	lcr := float64(time.Since(t0)) / n
	nl, nc := float64(led["pmu.lbr.pushes"]), float64(led["pmu.lcr.pushes"])
	if nl+nc == 0 {
		nl, nc = 1, 1
	}
	p.pmuNsPerRecord = (lbr*nl + lcr*nc) / (nl + nc)
}

// probeVM times vm.Run on every app's capture build (success workload). A
// counting pass gives the runs' exact steps, cache accesses and records;
// the VM's own cost per step is what is left after the cache and record
// probes' share.
func probeVM(p *probes, builds []build, seed int64) {
	optsOf := func(b build) vm.Options {
		o := b.app.Succeed.VMOptions(seed)
		o.Driver = kernel.Driver{}
		o.SegvIoctls = b.inst.SegvIoctls
		if b.app.Class.Concurrent() {
			o.LCRConfig = pmu.ConfSpaceConsuming
		}
		return o
	}
	reg := obs.NewRegistry()
	for _, b := range builds {
		o := optsOf(b)
		o.Obs = &obs.Sink{Metrics: reg}
		if _, err := vm.Run(b.inst.Prog, o); err != nil {
			fatal(err)
		}
	}
	s := reg.Snapshot()
	steps := float64(s.Counter("vm.steps"))
	acc := float64(s.Counter("cache.hits") + s.Counter("cache.misses"))
	rec := float64(s.Counter("pmu.lbr.pushes") + s.Counter("pmu.lcr.pushes"))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for r := 0; r < probeReps; r++ {
		for _, b := range builds {
			if _, err := vm.Run(b.inst.Prog, optsOf(b)); err != nil {
				fatal(err)
			}
		}
	}
	per := float64(time.Since(t0)) / probeReps
	runtime.ReadMemStats(&m1)
	p.vmNsPerStep = (per - acc*p.cacheNsPerAccess - rec*p.pmuNsPerRecord) / steps
	p.vmAllocsPerRun = float64(m1.Mallocs-m0.Mallocs) / float64(probeReps*len(builds))
}

// probeCBI times a CBI-hooked run against a plain one on every sequential
// app and ranks one golden-configuration CBI sample set.
func probeCBI(p *probes, seed int64) {
	var plain, hooked time.Duration
	var branches, runs float64
	for _, a := range apps.All() {
		if a.Class.Concurrent() {
			continue
		}
		prog, opts := a.Program(), a.Succeed.VMOptions(seed)
		m, err := vm.New(prog, opts)
		if err != nil {
			fatal(err)
		}
		m.SetStepHook(func(_ *vm.Machine, _ *vm.Thread, in *isa.Instr) {
			if in.Op.IsCond() && in.BranchID != isa.NoBranch {
				branches++
			}
		})
		if _, err := m.Run(); err != nil {
			fatal(err)
		}
		for r := 0; r < probeReps; r++ {
			t0 := time.Now()
			if _, err := vm.Run(prog, opts); err != nil {
				fatal(err)
			}
			plain += time.Since(t0)
			m, err := vm.New(prog, opts)
			if err != nil {
				fatal(err)
			}
			cbi.NewObserver(cbi.DefaultRate, seed+31337).Attach(m)
			t0 = time.Now()
			if _, err := m.Run(); err != nil {
				fatal(err)
			}
			hooked += time.Since(t0)
		}
		runs++
	}
	p.cbiHookNsPerBranch = float64(hooked-plain) / probeReps / branches
	p.cbiBranches = branches / runs

	a := apps.ByName("sort")
	var obsRuns []cbi.RunObs
	for i := 0; i < 2*goldenConfig(0).CBIRuns; i++ {
		failing := i%2 == 0
		wl := a.Succeed
		if failing {
			wl = a.Fail
		}
		m, err := vm.New(a.Program(), wl.VMOptions(seed+int64(i)))
		if err != nil {
			fatal(err)
		}
		o := cbi.NewObserver(1, seed+int64(i)) // rate 1: every branch sampled, the densest input
		o.Attach(m)
		if _, err := m.Run(); err != nil {
			fatal(err)
		}
		obsRuns = append(obsRuns, o.Finish(failing))
	}
	const n = 20
	t0 := time.Now()
	for i := 0; i < n; i++ {
		cbi.Rank(obsRuns)
	}
	p.cbiRankMs = ms(time.Since(t0)) / n
}

// probeProfiles is one app's paper-scale diagnosis input.
type probeProfiles struct {
	app        *apps.App
	mode       core.Mode
	fail, succ []core.ProfiledRun
}

// probeCollect captures a sequential and a concurrency app's diagnosis
// profiles through a counting executor, for the core, codec and fleet
// probes of workloads whose ops do not provide them.
func probeCollect(seed int64) ([]probeProfiles, *countingExecutor) {
	pe := &countingExecutor{}
	var out []probeProfiles
	for _, name := range []string{"sort", "Apache4"} {
		a := apps.ByName(name)
		mode, fail, succ, err := harness.DiagnosisProfiles(a, harness.Config{Jobs: 1, Seed: seed, Executor: pe})
		if err != nil {
			fatal(err)
		}
		out = append(out, probeProfiles{a, mode, fail, succ})
	}
	return out, pe
}

// probeCore times core.Diagnose and Report.Render on the probe profiles.
func probeCore(p *probes, prof []probeProfiles) {
	const n = 20
	var diag, render time.Duration
	for _, pp := range prof {
		for i := 0; i < n; i++ {
			t0 := time.Now()
			rep, err := core.Diagnose(pp.mode, pp.fail, pp.succ)
			if err != nil {
				fatal(err)
			}
			t1 := time.Now()
			rep.Render(10)
			diag += t1.Sub(t0)
			render += time.Since(t1)
		}
	}
	k := float64(n * len(prof))
	p.coreDiagnoseMs = ms(diag) / k
	p.coreRenderUs = us(render) / k
}

// storeSamples reads back the trial responses a store holds. The store
// does not record trial kinds, so each result's kind is told from its
// encoding: a number is a mean-cycles result, an object with an Observed
// field a CBI run, anything else a profile.
func storeSamples(dir string) []sampledTrial {
	st, err := artifact.Open(dir, nil)
	if err != nil {
		fatal(err)
	}
	defer st.Close()
	var out []sampledTrial
	for _, k := range storeKeys(dir) {
		data, ok, err := st.Load(k)
		if err != nil || !ok {
			fatal(fmt.Errorf("load %s: hit=%v err=%v", k, ok, err))
		}
		var resp harness.TrialResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			fatal(err)
		}
		if !resp.OK {
			continue
		}
		kind := "fail-profile"
		switch v := bytes.TrimSpace(resp.Value); {
		case len(v) > 0 && v[0] >= '0' && v[0] <= '9':
			kind = "mean-cycles"
		case bytes.Contains(v, []byte(`"Observed"`)):
			kind = "cbi-run"
		}
		out = append(out, sampledTrial{kind: kind, resp: resp})
	}
	return out
}

// resultValue is a zero value of a trial kind's result type.
func resultValue(kind string) any {
	switch kind {
	case "cbi-run":
		return new(cbi.RunObs)
	case "mean-cycles":
		return new(uint64)
	}
	return new(vm.Profile)
}

// probeCodec times the in-process trial codec: the result value encoded
// into a TrialResponse, the response encoded, decoded, and its value
// decoded back into the result type. It returns the encoded responses.
func probeCodec(p *probes, samples []sampledTrial) [][]byte {
	vals := make([]any, len(samples))
	for i, s := range samples {
		vals[i] = resultValue(s.kind)
		if err := json.Unmarshal(s.resp.Value, vals[i]); err != nil {
			fatal(err)
		}
	}
	payloads := make([][]byte, len(samples))
	var full, dec time.Duration
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for r := 0; r < probeReps; r++ {
		for i, s := range samples {
			t0 := time.Now()
			resp := s.resp
			resp.Value, _ = json.Marshal(vals[i])
			data, err := json.Marshal(&resp)
			if err != nil {
				fatal(err)
			}
			t1 := time.Now()
			var back harness.TrialResponse
			if err := json.Unmarshal(data, &back); err != nil {
				fatal(err)
			}
			if err := json.Unmarshal(back.Value, resultValue(s.kind)); err != nil {
				fatal(err)
			}
			full += time.Since(t0)
			dec += time.Since(t1)
			payloads[i] = data
		}
	}
	runtime.ReadMemStats(&m1)
	k := float64(probeReps * len(samples))
	p.codecUs, p.codecDecodeUs = us(full)/k, us(dec)/k
	p.codecAllocs = float64(m1.Mallocs-m0.Mallocs) / k
	return payloads
}

// probeArtifact times Put on a fresh store, then Open and Load. The resume
// workload's own store is opened and loaded; other workloads use the store
// the Puts wrote.
func probeArtifact(p *probes, w workload, e *env, payloads [][]byte) {
	dir := filepath.Join(e.work, "probe", fmt.Sprintf("store-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	os.RemoveAll(dir)
	st, err := artifact.Open(dir, nil)
	if err != nil {
		fatal(err)
	}
	keys := make([]string, len(payloads))
	t0 := time.Now()
	for i, data := range payloads {
		h := sha256.Sum256([]byte(fmt.Sprint("probe/", i)))
		keys[i] = hex.EncodeToString(h[:])
		if err := st.Put("probe", i, keys[i], data); err != nil {
			fatal(err)
		}
	}
	p.artPutUs = us(time.Since(t0)) / float64(len(payloads))
	if err := st.Close(); err != nil {
		fatal(err)
	}
	if r, ok := w.(*resume); ok {
		dir, keys = r.dir, storeKeys(r.dir)
	}
	var open, load time.Duration
	loads := 0
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		st, err := artifact.Open(dir, nil)
		if err != nil {
			fatal(err)
		}
		open += time.Since(t0)
		t0 = time.Now()
		for _, k := range keys {
			if _, ok, err := st.Load(k); err != nil || !ok {
				fatal(fmt.Errorf("probe load %s: hit=%v err=%v", k, ok, err))
			}
			loads++
		}
		load += time.Since(t0)
		st.Close()
	}
	p.artOpenMs = ms(open) / probeReps
	p.artLoadUs = us(load) / float64(loads)
}

// storeKeys lists the keys recorded in a store's manifest.
func storeKeys(dir string) []string {
	st, err := artifact.Open(dir, nil)
	if err != nil {
		fatal(err)
	}
	path := st.ManifestPath()
	st.Close()
	j, recs, _, err := artifact.OpenJournal(path)
	if err != nil {
		fatal(err)
	}
	j.Close()
	var keys []string
	for _, rec := range recs {
		var e struct {
			Key string `json:"key"`
		}
		if json.Unmarshal(rec, &e) == nil && e.Key != "" {
			keys = append(keys, e.Key)
		}
	}
	return keys
}

// probeBatches encodes the probe profiles in the fleet workload's batch
// shape.
func probeBatches(prof []probeProfiles) []fleetBatch {
	var out []fleetBatch
	for _, pp := range prof {
		bs, err := appBatches(pp.app.Name, pp.mode, pp.fail, pp.succ)
		if err != nil {
			fatal(err)
		}
		out = append(out, bs...)
	}
	return out
}

// probeFleet times batch decode, store add and report rendering, over at
// least a thousand batches.
func probeFleet(p *probes, batches []fleetBatch) {
	decoded := make([]*fleet.Batch, len(batches))
	var dec, add, rep time.Duration
	reports := 0
	reps := (1000 + len(batches) - 1) / len(batches)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for i, b := range batches {
			d, err := fleet.DecodeBatch(bytes.NewReader(b.body), true)
			if err != nil {
				fatal(err)
			}
			decoded[i] = d
		}
		dec += time.Since(t0)
		store := fleet.NewStore(fleet.StoreOptions{})
		for i, b := range decoded {
			t0 = time.Now()
			store.AddBatch(b)
			add += time.Since(t0)
			t0 = time.Now()
			if rp := store.Report(batches[i].app); rp != nil {
				rp.Render(10)
				rep += time.Since(t0)
				reports++
			}
		}
	}
	k := float64(reps * len(batches))
	p.fleetDecodeUs, p.fleetAddUs = us(dec)/k, us(add)/k
	p.fleetReportUs = us(rep) / float64(reports)
}

// layerMetrics assembles the per-layer metrics and reconciles the layers'
// attributed time against the end-to-end time per op.
func layerMetrics(w workload, e *env, l ledger, p probes, plain, traced runStats, gcCPU, busyCPU float64) map[string]metric {
	self, count := e.tr.selfTimes()
	perOp := func(name string) float64 { return float64(self[name]) / float64(traced.ops) }
	coreDiag, coreRender := p.coreDiagnoseMs, p.coreRenderUs
	if n := count["core.Diagnose"]; n > 0 {
		coreDiag = ms(self["core.Diagnose"]) / float64(n)
		coreRender = us(self["core.Render"]) / float64(n)
	}
	steps, acc, rec := l.per("vm.steps"), l.per("cache.hits")+l.per("cache.misses"), l.per("pmu.lbr.pushes")+l.per("pmu.lcr.pushes")
	attributed := map[string]float64{ // ns per op
		"vm":       p.vmNsPerStep * steps,
		"cache":    p.cacheNsPerAccess * acc,
		"pmu":      p.pmuNsPerRecord * rec,
		"cbi":      p.cbiHookNsPerBranch * p.cbiBranches * l.per("cbi.observers"),
		"harness":  1e3 * (p.codecUs*l.per("harness.trials") + p.codecDecodeUs*l.per("artifact.hits")),
		"artifact": 1e3*p.artLoadUs*l.per("artifact.hits") + perOp("artifact.Open") + perOp("artifact.Close"),
		"core":     perOp("core.Diagnose") + perOp("core.Render"),
		"fleet": 1e3 * ((p.fleetDecodeUs+p.fleetAddUs)*float64(count["fleet.ingest"]) +
			p.fleetReportUs*float64(count["fleet.report"])) / float64(traced.ops),
	}
	e2e := float64(plain.wall) / float64(plain.ops)
	sum := 0.0
	for _, v := range attributed {
		sum += v
	}
	fmt.Fprintf(os.Stderr, "perfbench: reconciliation per op: end-to-end %.3f ms (untraced)\n", e2e/1e6)
	for _, k := range []string{"vm", "cache", "pmu", "cbi", "harness", "artifact", "core", "fleet"} {
		fmt.Fprintf(os.Stderr, "  %-10s %10.3f ms %6.1f%%\n", k, attributed[k]/1e6, 100*attributed[k]/e2e)
	}
	return map[string]metric{
		"vm.ns_per_step":               {p.vmNsPerStep, "ns"},
		"vm.allocs_per_run":            {p.vmAllocsPerRun, "count"},
		"vm.steps_per_op":              {steps, "count"},
		"vm.cycles_per_op":             {l.per("vm.cycles"), "count"},
		"cache.ns_per_access":          {p.cacheNsPerAccess, "ns"},
		"cache.accesses_per_op":        {acc, "count"},
		"cache.miss_ratio":             {ratio(l["cache.misses"], l["cache.hits"]+l["cache.misses"]), "ratio"},
		"pmu.ns_per_record":            {p.pmuNsPerRecord, "ns"},
		"pmu.records_per_op":           {rec, "count"},
		"kernel.ioctls_per_op":         {l.per("kernel.ioctls"), "count"},
		"cbi.hook_ns_per_branch":       {p.cbiHookNsPerBranch, "ns"},
		"cbi.rank_ms":                  {p.cbiRankMs, "ms"},
		"core.instrument_ms":           {p.coreInstrumentMs, "ms"},
		"core.diagnose_ms":             {coreDiag, "ms"},
		"core.render_us":               {coreRender, "us"},
		"harness.codec_us_per_trial":   {p.codecUs, "us"},
		"harness.allocs_per_trial":     {p.codecAllocs, "count"},
		"harness.trials_per_op":        {l.per("harness.trials"), "count"},
		"harness.accept_ratio":         {ratio(l["harness.accepted"], l["harness.trials"]), "ratio"},
		"harness.wire_bytes_per_trial": {ratio(l["harness.wire_bytes"], l["harness.trials"]), "bytes"},
		"artifact.open_ms":             {p.artOpenMs, "ms"},
		"artifact.load_us":             {p.artLoadUs, "us"},
		"artifact.put_us":              {p.artPutUs, "us"},
		"artifact.hits_per_op":         {l.per("artifact.hits"), "count"},
		"fleet.decode_us_per_batch":    {p.fleetDecodeUs, "us"},
		"fleet.add_us_per_batch":       {p.fleetAddUs, "us"},
		"fleet.report_us":              {p.fleetReportUs, "us"},
		"fleet.full_rescores_per_op":   {l.per("fleet.rank.full_rescores"), "count"},
		"fleet.delta_rescores_per_op":  {l.per("fleet.rank.delta_rescores"), "count"},
		"runtime.gc_cpu_pct":           {100 * gcCPU / busyCPU, "%"},
		"obs.trace_overhead_pct":       {100 * (plain.opsPerSec()/traced.opsPerSec() - 1), "%"},
		"residual_pct":                 {100 * (e2e - sum) / e2e, "%"},
	}
}
