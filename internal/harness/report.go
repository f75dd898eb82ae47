package harness

import (
	"encoding/json"

	"stmdiag/internal/core"
	"stmdiag/internal/pmu"
	"stmdiag/internal/trace"
)

// ReportKind names the trial kind that produces a failure-report bundle
// (paper §5.3): trial i runs the app's failure workload at seed Seed+i
// under ReportBuild instrumentation and, if the run fails, encodes its
// bundle. FirstKind over it finds the first failing seed at or after
// Seed, whatever the worker count.
const ReportKind = "report-bundle"

// ReportBuild is the instrumentation a report bundle is captured under:
// LBRLOG and LCRLOG, with toggling.
func ReportBuild() core.Options {
	return core.Options{LBR: true, LCR: true, Toggling: true}
}

// ReportParams parameterizes the report-bundle stream.
type ReportParams struct {
	App  string `json:"app"`
	Seed int64  `json:"seed"`
}

// ReportBundle is one failing run's encoded report and the seed it ran at.
type ReportBundle struct {
	Seed int64  `json:"seed"`
	Data []byte `json:"data"`
}

// reportBundleKind runs one seed of the search; a run that does not fail
// is rejected.
func reportBundleKind(raw json.RawMessage, _ string, tc *Trial) (any, bool, error) {
	var P ReportParams
	if err := json.Unmarshal(raw, &P); err != nil {
		return nil, false, err
	}
	a, err := kindApp(P.App)
	if err != nil {
		return nil, false, err
	}
	inst, err := cachedBuild(a, ReportBuild())
	if err != nil {
		return nil, false, err
	}
	seed := P.Seed + int64(tc.Index)
	res, err := runConc(a, inst, a.Fail, seed, pmu.ConfSpaceConsuming, Config{}, tc)
	if err != nil {
		return nil, false, err
	}
	if !a.Fail.FailedRun(res) {
		return nil, false, nil
	}
	data, err := trace.Encode(inst.Prog, res)
	if err != nil {
		return nil, false, err
	}
	return ReportBundle{Seed: seed, Data: data}, true, nil
}
