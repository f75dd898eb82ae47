package harness

import (
	"testing"

	"stmdiag/internal/apps"
	"stmdiag/internal/core"
	"stmdiag/internal/isa"
	"stmdiag/internal/source"
)

func TestModalRank(t *testing.T) {
	cases := []struct {
		in   []int
		want int
	}{
		{[]int{3, 3, 3, 4, 5}, 3},
		{[]int{3, 4, 4, 3}, 3}, // tie breaks low
		{[]int{0, 0, 7}, 0},
		{[]int{9}, 9},
		{nil, 0},
	}
	for _, tc := range cases {
		if got := modalRank(tc.in); got != tc.want {
			t.Errorf("modalRank(%v) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestRankFormatting(t *testing.T) {
	if fmtRank(0, false) != "-" || fmtRank(3, false) != "3" || fmtRank(5, true) != "5*" {
		t.Error("fmtRank wrong")
	}
	if fmtCBI(-1) != "N/A" || fmtCBI(0) != "-" || fmtCBI(2) != "2" {
		t.Error("fmtCBI wrong")
	}
}

func TestOrderedAppsCoverRegistry(t *testing.T) {
	seq := orderedApps(false)
	conc := orderedApps(true)
	if len(seq) != 20 || len(conc) != 11 {
		t.Fatalf("ordered apps = %d/%d", len(seq), len(conc))
	}
	// Paper order: Apache1 first sequential, Apache4 first concurrent.
	if seq[0].Name != "Apache1" || conc[0].Name != "Apache4" {
		t.Errorf("order heads: %s / %s", seq[0].Name, conc[0].Name)
	}
}

func TestBranchLayersOrdering(t *testing.T) {
	a := apps.ByName("ln")
	p := a.Program()
	var failPC int
	for _, pc := range logSitesOf(p) {
		failPC = pc
	}
	layers := branchLayers(p, failPC)
	if len(layers) < 3 {
		t.Fatalf("only %d layers", len(layers))
	}
	// The guard branch must be in an earlier layer than the root-cause
	// branch (which is 13+ records upstream).
	guardLayer, rootLayer := -1, -1
	for i, layer := range layers {
		for _, name := range layer {
			if name == "ln_zcheck" {
				guardLayer = i
			}
			if name == a.RootBranch {
				rootLayer = i
			}
		}
	}
	if guardLayer < 0 || rootLayer < 0 {
		t.Fatalf("guard/root not found in layers (%d/%d)", guardLayer, rootLayer)
	}
	if guardLayer >= rootLayer {
		t.Errorf("guard layer %d not before root layer %d", guardLayer, rootLayer)
	}
}

// logSitesOf avoids importing cfg here just for the helper.
func logSitesOf(p *isa.Program) []int {
	var sites []int
	for pc := range p.Instrs {
		in := &p.Instrs[pc]
		if in.Op != isa.OpCall {
			continue
		}
		if f := p.FuncAt(in.Target); f != nil && f.Attr.Has(isa.AttrFailureLog) {
			sites = append(sites, pc)
		}
	}
	return sites
}

func TestOrigFailurePCForCrashApp(t *testing.T) {
	a := apps.ByName("sort")
	inst, err := core.EnhanceLogging(a.Program(), core.Options{LBR: true})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := failureProfileOf(runKey{app: a, fail: true, build: inst, driver: true}, 0, &Trial{})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := origFailurePC(a, inst, prof)
	if err != nil {
		t.Fatal(err)
	}
	if pc != a.FaultPC() {
		t.Errorf("origFailurePC = %d, want FaultPC %d", pc, a.FaultPC())
	}
}

func TestOrigFailurePCForLogApp(t *testing.T) {
	a := apps.ByName("cp")
	inst, err := core.EnhanceLogging(a.Program(), core.Options{LBR: true})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := failureProfileOf(runKey{app: a, fail: true, build: inst, driver: true}, 0, &Trial{})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := origFailurePC(a, inst, prof)
	if err != nil {
		t.Fatal(err)
	}
	p := a.Program()
	if p.Instrs[pc].Op != isa.OpCall {
		t.Fatalf("origFailurePC %d is %v, want the log call", pc, p.Instrs[pc].Op)
	}
	f := p.FuncAt(p.Instrs[pc].Target)
	if f == nil || !f.Attr.Has(isa.AttrFailureLog) {
		t.Errorf("call at %d does not target the logging function", pc)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.FailRuns != 10 || c.SuccRuns != 10 || c.CBIRuns != 1000 {
		t.Errorf("defaults = %+v", c)
	}
	if c.CBIRate != 0.01 || c.OverheadRuns != 10 || c.MaxAttempts != 400 {
		t.Errorf("defaults = %+v", c)
	}
	// Explicit values survive.
	c2 := Config{FailRuns: 3, CBIRuns: 7}.withDefaults()
	if c2.FailRuns != 3 || c2.CBIRuns != 7 || c2.SuccRuns != 10 {
		t.Errorf("merge = %+v", c2)
	}
}

func TestFormatDistanceInTables(t *testing.T) {
	if source.FormatDistance(source.Infinite) != "inf" {
		t.Error("Infinite not rendered as inf")
	}
}
