package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"stmdiag/internal/apps"
	"stmdiag/internal/artifact"
	"stmdiag/internal/core"
	"stmdiag/internal/fleet"
	"stmdiag/internal/harness"
	"stmdiag/internal/obs"
	"stmdiag/internal/source"
)

// goldenDir holds the committed Table 1-9 outputs at goldenConfig, seed 0.
const goldenDir = "internal/harness/testdata/golden"

// env is the per-run context the workloads read. The telemetry fields are
// nil in the end-to-end run and armed in the traced run.
type env struct {
	seed int64
	work string // scratch directory inside the checkout

	tr   *tracer           // benchmark spans around public calls
	sink *obs.Sink         // the program's own counters
	exec *countingExecutor // counts trials, accepted results and wire bytes

	passDone func(ops int) // called at each pass boundary of a loop
}

// workload is one closed-loop workload with a single client.
type workload interface {
	name() string
	// unit is the number of ops in one whole pass; a run is whole passes.
	unit() int
	// tailPct is the fixed tail percentile: the highest with at least 10
	// samples beyond it in every run.
	tailPct() float64
	// setupReps is how many times set-up runs (its median is setup_s).
	setupReps() int
	// setup builds the inputs from e.seed, from scratch.
	setup(e *env) error
	// reset gives the traced segment fresh mutable state.
	reset(e *env) error
	// op runs op i and checks its output; an error is a failed op.
	op(e *env, i int) error
	// finish runs the end-of-run checks and returns how many failed.
	finish(e *env) int
	// endChecks is the number of end-of-run checks finish makes.
	endChecks() int
	// corrupt makes the next op's expected value wrong (smoke mode).
	corrupt()
}

func workloadNames() []string { return []string{"table_rows", "diagnose", "fleet_ingest", "resume"} }

func newWorkload(name string) workload {
	switch name {
	case "table_rows":
		return &tableRows{}
	case "diagnose":
		return &diagnose{}
	case "fleet_ingest":
		return &fleetIngest{}
	case "resume":
		return &resume{}
	}
	return nil
}

// goldenConfig mirrors the golden-table configuration of the harness tests
// (4+4 profiles, 40 CBI runs, 2 overhead runs) at one job: the output is
// byte-identical for every job count.
func goldenConfig(seed int64) harness.Config {
	return harness.Config{FailRuns: 4, SuccRuns: 4, CBIRuns: 40, OverheadRuns: 2,
		MaxAttempts: 200, Seed: seed, Jobs: 1}
}

// armed returns cfg with the traced run's telemetry attached.
func armed(cfg harness.Config, e *env) harness.Config {
	if e.sink != nil {
		cfg.Obs = e.sink
	}
	if e.exec != nil {
		cfg.Executor = e.exec
	}
	return cfg
}

// passSeed derives the experiment seed of pass p. Pass 0 uses the workload
// seed itself, so at seed 0 the first pass is comparable to the goldens;
// later passes draw fresh inputs, so a run averages over several inputs.
func passSeed(seed int64, p int) int64 { return seed + int64(p)<<32 }

// goldenRow is one row of golden Table 6 or 7.
type goldenRow struct {
	app   *apps.App
	table int
	line  string
}

// loadGoldenRows reads the rows of golden Tables 6 and 7 in table order.
func loadGoldenRows() ([]goldenRow, error) {
	var rows []goldenRow
	for _, n := range []int{6, 7} {
		data, err := os.ReadFile(filepath.Join(goldenDir, fmt.Sprintf("table%d.txt", n)))
		if err != nil {
			return nil, err
		}
		inRows := false
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "app ") {
				inRows = true
				continue
			}
			if !inRows || strings.TrimSpace(line) == "" {
				continue
			}
			name := strings.Fields(line)[0]
			a := apps.ByName(name)
			if a == nil {
				return nil, fmt.Errorf("golden table %d names unknown app %q", n, name)
			}
			rows = append(rows, goldenRow{app: a, table: n, line: line})
		}
	}
	if len(rows) != len(apps.All()) {
		return nil, fmt.Errorf("golden tables 6+7 have %d rows, want %d", len(rows), len(apps.All()))
	}
	return rows, nil
}

// rankCells are a row's seed-independent cells: the LBRLOG ranks with and
// without toggling and LBRA's rank (Table 6), or the LCRLOG ranks under
// both configurations and LCRA's rank (Table 7). CBI ranks, overheads and
// failure rates depend on the seed.
func rankCells(line string) string {
	f := strings.Fields(line)
	if len(f) < 5 {
		return ""
	}
	return strings.Join(f[2:5], " ")
}

// rankOfCell parses a rank cell such as "1", "2*" or "-".
func rankOfCell(c string) int {
	n := 0
	fmt.Sscanf(strings.TrimSuffix(c, "*"), "%d", &n)
	return n
}

// paperMatch reports whether every measured LBRLOG/LCRLOG rank of a row
// equals the paper's value printed beside it in parentheses.
func paperMatch(line string) bool {
	f := strings.Fields(line)
	for _, c := range f[2:4] {
		i := strings.IndexByte(c, '(')
		if i < 0 || c[:i] != strings.TrimSuffix(c[i+1:], ")") {
			return false
		}
	}
	return true
}

// fmtRank and fmtCBI render rank cells exactly as harness.Table6/Table7 do.
func fmtRank(rank int, related bool) string {
	if rank <= 0 {
		return "-"
	}
	if related {
		return fmt.Sprintf("%d*", rank)
	}
	return fmt.Sprintf("%d", rank)
}

func fmtCBI(rank int) string {
	if rank < 0 {
		return "N/A"
	}
	return fmtRank(rank, false)
}

// tableRow runs one Table 6 or Table 7 row and renders it as the table does.
func tableRow(a *apps.App, cfg harness.Config, tr *tracer) (string, error) {
	if !a.Class.Concurrent() {
		sp := tr.begin("harness.RunSequential")
		row, err := harness.RunSequential(a, cfg)
		tr.end(sp)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%-10s | %4s(%s) %4s(%s) %5s %5s | %8s %8s | %7.2f %7.2f %7.2f %7.2f %7.2f",
			a.Name,
			fmtRank(row.RankTog, row.RelatedTog), fmtRank(a.Paper.LBRRankTog, a.Paper.Related),
			fmtRank(row.RankNoTog, row.RelatedNoTog), fmtRank(a.Paper.LBRRankNoTog, a.Paper.Related && a.Paper.LBRRankNoTog > 0),
			fmtRank(row.LBRARank, false), fmtCBI(row.CBIRank),
			source.FormatDistance(row.DistFailureSite), source.FormatDistance(row.DistLBR),
			100*row.OvLogTog, 100*row.OvLogNoTog, 100*row.OvReactive, 100*row.OvProactive, 100*row.OvCBI), nil
	}
	sp := tr.begin("harness.RunConcurrent")
	row, err := harness.RunConcurrent(a, cfg)
	tr.end(sp)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%-12s | %5s(%s) %5s(%s) %8s | %.2f",
		a.Name,
		fmtRank(row.RankConf1, false), fmtRank(a.Paper.LCRConf1, false),
		fmtRank(row.RankConf2, false), fmtRank(a.Paper.LCRConf2, false),
		fmtRank(row.LCRARank, false), row.FailRate), nil
}

// captureOptions is the deployed capture build of an app: toggling LBR
// logging for sequential bugs, toggling LCR logging for concurrency bugs.
func captureOptions(a *apps.App) core.Options {
	if a.Class.Concurrent() {
		return core.Options{LCR: true, Toggling: true}
	}
	return core.Options{LBR: true, Toggling: true}
}

// instrumentAll builds every app's capture build, as the harness does
// lazily on first use.
func instrumentAll() error {
	for _, a := range apps.All() {
		if _, err := core.EnhanceLogging(a.Program(), captureOptions(a)); err != nil {
			return fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	return nil
}

// tableRows regenerates Table 6 and Table 7 one row per op.
type tableRows struct {
	rows      []goldenRow
	first     []string // first-pass rows, for the paper-accuracy line
	wrongNext bool
}

func (w *tableRows) name() string     { return "table_rows" }
func (w *tableRows) unit() int        { return len(apps.All()) }
func (w *tableRows) tailPct() float64 { return 85 }
func (w *tableRows) setupReps() int   { return 9 }
func (w *tableRows) endChecks() int   { return 0 }
func (w *tableRows) corrupt()         { w.wrongNext = true }
func (w *tableRows) reset(*env) error { return nil }
func (w *tableRows) finish(*env) int  { return 0 }

func (w *tableRows) setup(*env) error {
	rows, err := loadGoldenRows()
	if err != nil {
		return err
	}
	w.rows, w.first = rows, make([]string, len(rows))
	return instrumentAll()
}

func (w *tableRows) op(e *env, i int) error {
	p, k := i/len(w.rows), i%len(w.rows)
	g := w.rows[k]
	cfg := armed(goldenConfig(passSeed(e.seed, p)), e)
	got, err := tableRow(g.app, cfg, e.tr)
	if err != nil {
		return err
	}
	if p == 0 {
		w.first[k] = got
	}
	want := g.line
	if w.wrongNext {
		w.wrongNext = false
		want = strings.Replace(want, "|", "| 99", 1)
	}
	if rankCells(got) != rankCells(want) {
		return fmt.Errorf("%s: rank cells %q, golden %q", g.app.Name, rankCells(got), rankCells(want))
	}
	if cfg.Seed == 0 && got != want {
		return fmt.Errorf("%s: row differs from golden table %d:\n  got:    %q\n  golden: %q", g.app.Name, g.table, got, want)
	}
	return nil
}

// paperMatches counts first-pass rows whose ranks all match the paper's.
func (w *tableRows) paperMatches() int {
	n := 0
	for _, r := range w.first {
		if r != "" && paperMatch(r) {
			n++
		}
	}
	return n
}

// diagnose produces one paper-scale diagnosis per op, cycling over all apps.
type diagnose struct {
	rows      []goldenRow
	want      []int // root-cause rank of the golden LBRA/LCRA column
	wrongNext bool
}

func (w *diagnose) name() string     { return "diagnose" }
func (w *diagnose) unit() int        { return len(apps.All()) }
func (w *diagnose) tailPct() float64 { return 90 }
func (w *diagnose) setupReps() int   { return 9 }
func (w *diagnose) endChecks() int   { return 0 }
func (w *diagnose) corrupt()         { w.wrongNext = true }
func (w *diagnose) reset(*env) error { return nil }
func (w *diagnose) finish(*env) int  { return 0 }

func (w *diagnose) setup(*env) error {
	rows, err := loadGoldenRows()
	if err != nil {
		return err
	}
	w.rows, w.want = rows, make([]int, len(rows))
	for i, r := range rows {
		w.want[i] = rankOfCell(strings.Fields(r.line)[4])
	}
	return instrumentAll()
}

func (w *diagnose) op(e *env, i int) error {
	c, k := i/len(w.rows), i%len(w.rows)
	a := w.rows[k].app
	cfg := armed(harness.Config{Jobs: 1, Seed: passSeed(e.seed, c)}, e)
	sp := e.tr.begin("harness.DiagnosisProfiles")
	mode, fail, succ, err := harness.DiagnosisProfiles(a, cfg)
	e.tr.end(sp)
	if err != nil {
		return err
	}
	sp = e.tr.begin("core.Diagnose")
	rep, err := core.Diagnose(mode, fail, succ)
	e.tr.end(sp)
	if err != nil {
		return err
	}
	sp = e.tr.begin("core.Render")
	out := rep.Render(10)
	e.tr.end(sp)
	want := w.want[k]
	if w.wrongNext {
		w.wrongNext = false
		want++
	}
	if got := rootRank(a, rep); got != want || out == "" {
		return fmt.Errorf("%s: root cause at rank %d, golden %d", a.Name, got, want)
	}
	return nil
}

// rootRank locates the root cause in a diagnosis exactly as the Table 6/7
// LBRA/LCRA columns do.
func rootRank(a *apps.App, rep *core.Report) int {
	if !a.Class.Concurrent() {
		r := rep.RankOfBranchEdge(a.RootBranch, a.BuggyEdge)
		if r == 0 && a.RelatedBranch != "" {
			r = rep.RankOfBranch(a.RelatedBranch)
		}
		return r
	}
	if a.FPE == nil {
		return 0
	}
	want := a.FPE
	r := rep.RankOfCoherence(func(e core.Event) bool {
		return e.Kind == core.EventCoherence && e.Access == want.Kind && e.State == want.State &&
			e.File == want.File && e.Line == want.Line
	})
	// Only a high-confidence predictor counts, as in Table 7.
	if r > 0 && rep.Ranking[r-1].Score < 0.75 {
		r = 0
	}
	return r
}

// fleetBatch is one pre-captured ingest batch.
type fleetBatch struct {
	app    string
	mode   core.Mode
	failed bool
	body   []byte // gzip wire form
	runs   []core.ProfiledRun
}

// fleetIngest posts one batch and reads that app's report per op, through
// the fleet service handler served in-process.
type fleetIngest struct {
	batches  []fleetBatch
	handler  http.Handler
	ingested []int // times each batch was ingested
	wantAdd  int   // added to the expected accepted count (smoke mode)
}

// Batch shape: per app, one batch carrying its failure profiles and
// succChunks success-only batches.
const succChunks = 5

func (w *fleetIngest) name() string     { return "fleet_ingest" }
func (w *fleetIngest) unit() int        { return len(w.batches) }
func (w *fleetIngest) tailPct() float64 { return 99 }
func (w *fleetIngest) setupReps() int   { return 3 }
func (w *fleetIngest) endChecks() int   { return len(apps.All()) }
func (w *fleetIngest) corrupt()         { w.wantAdd = 1 }

// setup captures every app's diagnosis profiles at a seed-derived seed and
// encodes them as gzip batches: the failure batches first (they force a
// full rescore), then the success-only batches (delta rescores), each
// round in a seed-shuffled app order.
func (w *fleetIngest) setup(e *env) error {
	rng := rand.New(rand.NewSource(e.seed))
	all := apps.All()
	order := rng.Perm(len(all))
	perApp := make([][]fleetBatch, len(all))
	for k, ai := range order {
		a := all[ai]
		mode, fail, succ, err := harness.DiagnosisProfiles(a, harness.Config{Jobs: 1, Seed: passSeed(e.seed, 1+k)})
		if err != nil {
			return err
		}
		if perApp[k], err = appBatches(a.Name, mode, fail, succ); err != nil {
			return err
		}
	}
	w.batches = w.batches[:0]
	for round := 0; round <= succChunks; round++ {
		for k := range perApp {
			w.batches = append(w.batches, perApp[k][round])
		}
	}
	return w.reset(e)
}

// appBatches encodes one app's profiles in the workload's batch shape:
// one batch carrying the failure profiles, then succChunks success-only
// batches.
func appBatches(app string, mode core.Mode, fail, succ []core.ProfiledRun) ([]fleetBatch, error) {
	bs := []fleetBatch{{app: app, mode: mode, failed: true, runs: fail}}
	for c := 0; c < succChunks; c++ {
		lo, hi := c*len(succ)/succChunks, (c+1)*len(succ)/succChunks
		bs = append(bs, fleetBatch{app: app, mode: mode, runs: succ[lo:hi]})
	}
	for j := range bs {
		b := &bs[j]
		data, err := fleet.EncodeBatchGzip(&fleet.Batch{Client: "perfbench",
			Subs: fleet.SubmissionsFromRuns(b.app, b.mode, b.failed, b.runs)})
		if err != nil {
			return nil, err
		}
		b.body = data
	}
	return bs, nil
}

// reset starts an empty aggregate.
func (w *fleetIngest) reset(e *env) error {
	store := fleet.NewStore(fleet.StoreOptions{Sink: e.sink})
	w.handler = fleet.NewService(store, nil, e.sink).Handler()
	w.ingested = make([]int, len(w.batches))
	return nil
}

func (w *fleetIngest) op(e *env, i int) error {
	k := i % len(w.batches)
	b := &w.batches[k]
	req := httptest.NewRequest(http.MethodPost, "/fleet/ingest", bytes.NewReader(b.body))
	req.Header.Set("Content-Encoding", "gzip")
	rec := httptest.NewRecorder()
	sp := e.tr.begin("fleet.ingest")
	w.handler.ServeHTTP(rec, req)
	e.tr.end(sp)
	if rec.Code == http.StatusOK {
		w.ingested[k]++
	}
	want := fmt.Sprintf("{\"accepted\": %d}\n", len(b.runs)+w.wantAdd)
	w.wantAdd = 0
	if rec.Code != http.StatusOK || rec.Body.String() != want {
		return fmt.Errorf("ingest %s: status %d body %q, want %q", b.app, rec.Code, rec.Body.String(), want)
	}
	rep, code := w.report(e, b.app)
	if code != http.StatusOK || rep == "" {
		return fmt.Errorf("report %s: status %d", b.app, code)
	}
	return nil
}

func (w *fleetIngest) report(e *env, app string) (string, int) {
	rec := httptest.NewRecorder()
	sp := e.tr.begin("fleet.report")
	w.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/fleet/report?app="+app, nil))
	e.tr.end(sp)
	return rec.Body.String(), rec.Code
}

// finish checks that every app's final fleet report equals core.Diagnose
// over the same profiles, each counted as often as it was ingested.
func (w *fleetIngest) finish(e *env) int {
	type runs struct {
		mode       core.Mode
		fail, succ []core.ProfiledRun
	}
	byApp := map[string]*runs{}
	for k, b := range w.batches {
		r := byApp[b.app]
		if r == nil {
			r = &runs{mode: b.mode}
			byApp[b.app] = r
		}
		for n := 0; n < w.ingested[k]; n++ {
			if b.failed {
				r.fail = append(r.fail, b.runs...)
			} else {
				r.succ = append(r.succ, b.runs...)
			}
		}
	}
	names := make([]string, 0, len(byApp))
	for app := range byApp {
		names = append(names, app)
	}
	sort.Strings(names)
	failed := 0
	for _, app := range names {
		r := byApp[app]
		got, code := w.report(e, app)
		if len(r.fail) == 0 {
			// No failure profile ingested yet: the service has no report.
			if code != http.StatusNotFound {
				failed++
			}
			continue
		}
		rep, err := core.Diagnose(r.mode, r.fail, r.succ)
		if err != nil || code != http.StatusOK || got != rep.Render(10) {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: fleet report for %s differs from core.Diagnose over the same profiles\n", app)
		}
	}
	return failed
}

// resumesPerPass groups resume ops into passes for the per-pass medians.
const resumesPerPass = 10

// resume re-renders Tables 6 and 7 from a durable store per op.
type resume struct {
	dir        string
	want6      string
	want7      string
	wantHits   uint64
	sink       *obs.Sink // counts VM runs and store hits in the end-to-end run
	setupFails int
	wrongNext  bool
}

func (w *resume) name() string     { return "resume" }
func (w *resume) unit() int        { return resumesPerPass }
func (w *resume) tailPct() float64 { return 85 }
func (w *resume) setupReps() int   { return 3 }
func (w *resume) endChecks() int   { return 1 }
func (w *resume) corrupt()         { w.wrongNext = true }
func (w *resume) reset(*env) error { return nil }

// setup runs Tables 6 and 7 once into a fresh store: the write path. At
// seed 0 the tables must equal the goldens.
func (w *resume) setup(e *env) error {
	w.dir = filepath.Join(e.work, "resume", fmt.Sprintf("store-%d", os.Getpid()))
	if err := os.RemoveAll(w.dir); err != nil {
		return err
	}
	st, err := artifact.Open(w.dir, nil)
	if err != nil {
		return err
	}
	cfg := goldenConfig(e.seed)
	cfg.Artifacts = st
	if w.want6, err = harness.RenderTable(6, cfg); err != nil {
		return err
	}
	if w.want7, err = harness.RenderTable(7, cfg); err != nil {
		return err
	}
	w.wantHits = uint64(st.Len())
	if err := st.Close(); err != nil {
		return err
	}
	w.setupFails = 0
	if e.seed == 0 {
		for n, got := range map[int]string{6: w.want6, 7: w.want7} {
			golden, err := os.ReadFile(filepath.Join(goldenDir, fmt.Sprintf("table%d.txt", n)))
			if err != nil || string(golden) != got {
				w.setupFails = 1
				fmt.Fprintf(os.Stderr, "perfbench: table %d differs from its golden\n", n)
			}
		}
	}
	w.sink = &obs.Sink{Metrics: obs.NewRegistry()}
	return nil
}

func (w *resume) op(e *env, i int) error {
	sink := w.sink
	if e.sink != nil {
		sink = e.sink
	}
	runs0, hits0 := sink.Counter("vm.runs").Value(), sink.Counter("artifact.hits").Value()
	sp := e.tr.begin("artifact.Open")
	st, err := artifact.Open(w.dir, sink)
	e.tr.end(sp)
	if err != nil {
		return err
	}
	cfg := goldenConfig(e.seed)
	cfg.Artifacts, cfg.Obs, cfg.Executor = st, sink, e.exec
	var got [2]string
	for j, n := range []int{6, 7} {
		sp = e.tr.begin("harness.RenderTable")
		got[j], err = harness.RenderTable(n, cfg)
		e.tr.end(sp)
		if err != nil {
			st.Close()
			return err
		}
	}
	sp = e.tr.begin("artifact.Close")
	err = st.Close()
	e.tr.end(sp)
	if err != nil {
		return err
	}
	want6 := w.want6
	if w.wrongNext {
		w.wrongNext = false
		want6 += " "
	}
	runs, hits := sink.Counter("vm.runs").Value()-runs0, sink.Counter("artifact.hits").Value()-hits0
	switch {
	case got[0] != want6 || got[1] != w.want7:
		return fmt.Errorf("resumed tables differ from the tables the store was written with")
	case runs != 0:
		return fmt.Errorf("%d VM runs executed on resume, want 0", runs)
	case hits != w.wantHits:
		return fmt.Errorf("%d store hits, want %d", hits, w.wantHits)
	}
	return nil
}

// finish reports the set-up golden check and removes the store.
func (w *resume) finish(*env) int {
	os.RemoveAll(w.dir)
	return w.setupFails
}
