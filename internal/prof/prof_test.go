package prof

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"stmdiag/internal/isa"
	"stmdiag/internal/obs"
)

func TestSlotClamping(t *testing.T) {
	if got := Slot(isa.OpNop); got != 0 {
		t.Errorf("Slot(OpNop) = %d, want 0", got)
	}
	if got := Slot(isa.Op(200)); got != InvalidSlot {
		t.Errorf("Slot(op 200) = %d, want InvalidSlot %d", got, InvalidSlot)
	}
	if got := SlotName(InvalidSlot); got != InvalidName {
		t.Errorf("SlotName(InvalidSlot) = %q, want %q", got, InvalidName)
	}
	if got := SlotName(Slot(isa.OpAdd)); got != "add" {
		t.Errorf("SlotName(add slot) = %q", got)
	}
}

func TestVMProfObserveFlush(t *testing.T) {
	p := NewVMProf()
	p.Observe(Slot(isa.OpAdd), 3)
	p.Observe(Slot(isa.OpAdd), 5)
	p.Observe(Slot(isa.OpJmp), 7)
	p.Observe(-1, 11)         // clamps onto the invalid slot
	p.Observe(OpSlots+10, 13) // ditto from above
	if got := p.Count(Slot(isa.OpAdd)); got != 2 {
		t.Errorf("add count = %d, want 2", got)
	}
	if got := p.Count(InvalidSlot); got != 2 {
		t.Errorf("invalid count = %d, want 2", got)
	}
	if got := p.Count(-5); got != 0 {
		t.Errorf("Count(-5) = %d, want 0", got)
	}

	// A nil sink is a no-op: nothing to fold into, state kept.
	p.Flush(nil)
	if got := p.Count(Slot(isa.OpAdd)); got != 2 {
		t.Errorf("add count after Flush(nil) = %d, want 2", got)
	}

	p = NewVMProf()
	p.Observe(Slot(isa.OpAdd), 3)
	p.Observe(Slot(isa.OpAdd), 5)
	p.Observe(Slot(isa.OpJmp), 7)
	s := &obs.Sink{Metrics: obs.NewRegistry()}
	p.Flush(s)
	snap := s.Metrics.Snapshot()
	for name, want := range map[string]uint64{
		"prof.op.add.count":  2,
		"prof.op.add.cycles": 8,
		"prof.op.jmp.count":  1,
		"prof.op.jmp.cycles": 7,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	// Untouched slots must not materialize counters.
	if _, ok := snap.Counters["prof.op.nop.count"]; ok {
		t.Error("untouched opcode nop leaked a counter")
	}
	// Flush resets the accumulator.
	if got := p.Count(Slot(isa.OpAdd)); got != 0 {
		t.Errorf("post-flush add count = %d, want 0", got)
	}
}

// ObserveN(slot, n, c) accumulates exactly what n Observes of c/n each do:
// the VM attributes a batched register-only run this way.
func TestVMProfObserveN(t *testing.T) {
	one, batched := NewVMProf(), NewVMProf()
	for i := 0; i < 5; i++ {
		one.Observe(Slot(isa.OpAddi), 1)
	}
	batched.ObserveN(Slot(isa.OpAddi), 5, 5)
	batched.ObserveN(OpSlots+1, 0, 0) // clamps; adds nothing
	if *one != *batched {
		t.Errorf("ObserveN(5) = %+v, want %+v", *batched, *one)
	}
}

func TestClassOf(t *testing.T) {
	for mnemonic, want := range map[string]string{
		"jmp":     "branch",
		"call":    "branch",
		"ret":     "branch",
		"ld":      "mem",
		"push":    "mem",
		"lock":    "sync",
		"spawn":   "sync",
		"print":   "io",
		"ioctl":   "io",
		"nop":     "misc",
		"invalid": "misc",
		"add":     "alu",
		"cmpi":    "alu",
	} {
		if got := ClassOf(mnemonic); got != want {
			t.Errorf("ClassOf(%q) = %q, want %q", mnemonic, got, want)
		}
	}
}

// profSink builds a registry holding one representative counter of every
// family FromSnapshot parses.
func profSink() *obs.Sink {
	s := &obs.Sink{Metrics: obs.NewRegistry(), Profiling: true}
	add := func(name string, v uint64) { s.Counter(name).Add(v) }
	add("vm.cycles", 1000)
	add("vm.steps", 400)
	add("vm.runs", 4)
	add("prof.op.add.count", 100)
	add("prof.op.add.cycles", 600)
	add("prof.op.jmp.count", 50)
	add("prof.op.jmp.cycles", 300)
	add("prof.op.nop.count", 10)
	add("prof.op.nop.cycles", 10)
	add("prof.phase.capture.spans", 2)
	add("prof.phase.capture.cycles", 700)
	add("prof.phase.capture.runs", 3)
	add("prof.phase.rank.spans", 1)
	add("prof.phase.report.spans", 1)
	add("prof.phase.report.bytes", 512)
	add("prof.app.sort.capture.cycles", 700)
	add("prof.app.sort.capture.runs", 3)
	add("prof.table.3.spans", 1)
	add("prof.table.3.cycles", 900)
	add("prof.table.3.runs", 4)
	add("prof.alloc.pmu.lbr.allocs", 40)
	add("prof.alloc.pmu.lbr.records", 640)
	add("harness.pool.trials", 8)
	add("harness.pool.committed", 7)
	add("harness.pool.fanouts", 2)
	add("harness.pool.worker0.trials", 5)
	add("harness.pool.worker0.busy_ns", 12345)
	add("harness.pool.worker0.idle_ns", 678)
	add("harness.pool.worker1.trials", 3)
	add("harness.pool.commit.stall_ns", 99)
	return s
}

func TestFromSnapshotParsesFamilies(t *testing.T) {
	r := FromSnapshot(profSink().Metrics.Snapshot())
	if r.TotalCycles != 1000 || r.TotalSteps != 400 || r.TotalRuns != 4 {
		t.Fatalf("totals = %d/%d/%d", r.TotalCycles, r.TotalSteps, r.TotalRuns)
	}
	// Opcodes sort hottest first.
	wantOps := []string{"add", "jmp", "nop"}
	if len(r.Opcodes) != len(wantOps) {
		t.Fatalf("got %d opcode rows, want %d", len(r.Opcodes), len(wantOps))
	}
	for i, name := range wantOps {
		if r.Opcodes[i].Name != name {
			t.Errorf("opcode[%d] = %s, want %s", i, r.Opcodes[i].Name, name)
		}
	}
	if r.Opcodes[0].Class != "alu" || r.Opcodes[0].Count != 100 || r.Opcodes[0].Cycles != 600 {
		t.Errorf("add row = %+v", r.Opcodes[0])
	}
	// Classes aggregate opcodes.
	classes := map[string]ClassRow{}
	for _, c := range r.Classes {
		classes[c.Name] = c
	}
	if c := classes["branch"]; c.Count != 50 || c.Cycles != 300 {
		t.Errorf("branch class = %+v", c)
	}
	// Phases come back in pipeline order.
	var phases []string
	for _, p := range r.Phases {
		phases = append(phases, p.Name)
	}
	if want := []string{"capture", "rank", "report"}; strings.Join(phases, ",") != strings.Join(want, ",") {
		t.Errorf("phase order = %v, want %v", phases, want)
	}
	if r.Phases[len(r.Phases)-1].Bytes != 512 {
		t.Errorf("report bytes = %d, want 512", r.Phases[len(r.Phases)-1].Bytes)
	}
	if len(r.Apps) != 1 || r.Apps[0].App != "sort" || r.Apps[0].Phase != "capture" || r.Apps[0].Cycles != 700 {
		t.Errorf("apps = %+v", r.Apps)
	}
	if len(r.Tables) != 1 || r.Tables[0].Table != 3 || r.Tables[0].Cycles != 900 {
		t.Errorf("tables = %+v", r.Tables)
	}
	if len(r.Allocs) != 1 || r.Allocs[0].Site != "pmu.lbr" || r.Allocs[0].Records != 640 {
		t.Errorf("allocs = %+v", r.Allocs)
	}
	if len(r.Workers) != 2 || r.Workers[0].Worker != 0 || r.Workers[0].BusyNS != 12345 || r.Workers[1].Trials != 3 {
		t.Errorf("workers = %+v", r.Workers)
	}
	if r.Pool.Trials != 8 || r.Pool.CommitStallNS != 99 {
		t.Errorf("pool = %+v", r.Pool)
	}
}

func TestFromSnapshotEmpty(t *testing.T) {
	r := FromSnapshot(obs.NewRegistry().Snapshot())
	if r == nil {
		t.Fatal("nil report for empty snapshot")
	}
	if len(r.Opcodes)+len(r.Phases)+len(r.Apps)+len(r.Tables)+len(r.Allocs)+len(r.Workers) != 0 {
		t.Errorf("empty snapshot produced rows: %+v", r)
	}
	out := r.Render(10)
	if !strings.Contains(out, "cost attribution") {
		t.Errorf("empty render missing header:\n%s", out)
	}
}

func TestRenderDeterministicAndTruncated(t *testing.T) {
	snap := profSink().Metrics.Snapshot()
	a := FromSnapshot(snap).Render(10)
	b := FromSnapshot(snap).Render(10)
	if a != b {
		t.Error("Render is not deterministic for the same snapshot")
	}
	ja, err := FromSnapshot(snap).JSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := FromSnapshot(snap).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Error("JSON is not deterministic for the same snapshot")
	}
	for _, want := range []string{
		"opcodes by cycles:", "phases:", "apps by cycles:", "tables:",
		"alloc sites (ring snapshots):", "workers (wall clock; varies with -jobs):",
		"add", "60.0%",
	} {
		if !strings.Contains(a, want) {
			t.Errorf("render missing %q:\n%s", want, a)
		}
	}
	// topK truncation: 3 opcodes, top 1 keeps add and folds the rest.
	top1 := FromSnapshot(snap).Render(1)
	if !strings.Contains(top1, "... 2 more") {
		t.Errorf("top-1 render missing truncation marker:\n%s", top1)
	}
	if strings.Contains(top1, "jmp ") {
		t.Errorf("top-1 render still lists jmp:\n%s", top1)
	}
}

// TestProfConcurrentFlush locks the concurrency contract down under -race:
// many VMProf accumulators flushing into one shared registry while readers
// take snapshots and build reports, the way parallel trial sinks merge into
// the parent while /profilez scrapes it.
func TestProfConcurrentFlush(t *testing.T) {
	s := &obs.Sink{Metrics: obs.NewRegistry(), Profiling: true}
	const writers, rounds = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := NewVMProf()
			for i := 0; i < rounds; i++ {
				p.Observe(Slot(isa.OpAdd), 2)
				p.Observe(Slot(isa.OpJmp), 3)
				p.Flush(s)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < rounds; i++ {
			_ = FromSnapshot(s.Metrics.Snapshot()).Render(5)
		}
	}()
	wg.Wait()
	<-done
	snap := s.Metrics.Snapshot()
	if got := snap.Counters["prof.op.add.count"]; got != writers*rounds {
		t.Errorf("add count = %d, want %d", got, writers*rounds)
	}
	if got := snap.Counters["prof.op.jmp.cycles"]; got != writers*rounds*3 {
		t.Errorf("jmp cycles = %d, want %d", got, writers*rounds*3)
	}
}
