// Package prof is the cost-attribution layer of the observability stack
// (DESIGN §6): a PMU for the PMU simulator. It attributes the deterministic
// VM cycle clock to opcodes, opcode classes, pipeline phases, apps, tables
// and PMU snapshot sites, and rolls the attribution up into a hot-spot
// report — the measured counterpart to the paper's §6 overhead evaluation
// (the <1.5% claim), and the baseline data ROADMAP item 2's VM speed work
// optimizes against.
//
// Everything deterministic rides the obs trial-sink machinery: per-opcode
// and per-alloc-site counters are recorded on each trial's private registry
// and merged at commit in trial order, and phase/table rollups are computed
// from parent-sink cycle deltas between fan-out barriers, so the profile is
// byte-identical for every -jobs value. Worker-utilization numbers
// ("harness.pool.worker*.busy_ns" etc.) are the one deliberate exception:
// they measure real wall clock and real scheduling, so they vary run to run
// and are labeled as such in the report.
//
// Counter name families:
//
//	prof.op.<mnemonic>.count / .cycles     per-opcode dispatch attribution
//	prof.alloc.<site>.allocs / .records    PMU ring snapshot materializations
//	prof.phase.<phase>.spans/.cycles/.runs pipeline phases (capture/replay/rank/report)
//	prof.phase.report.bytes                rendered table bytes (report phase)
//	prof.app.<app>.<phase>.cycles / .runs  per-app phase attribution
//	prof.table.<n>.spans/.cycles/.runs     per-table attribution
//	harness.pool.worker<N>.busy_ns/.idle_ns, harness.pool.queue.depth,
//	harness.pool.commit.stall_ns           wall-clock pool utilization
package prof

import (
	"stmdiag/internal/isa"
	"stmdiag/internal/obs"
)

// InvalidSlot is the VMProf accumulator slot for steps whose PC did not
// name a decodable instruction (the crash path of an invalid PC).
const InvalidSlot = isa.NumOps

// OpSlots is the VMProf accumulator size: every opcode plus InvalidSlot.
const OpSlots = isa.NumOps + 1

// InvalidName is the mnemonic the invalid slot reports under.
const InvalidName = "invalid"

// Phase names of the diagnosis pipeline, in execution order. Capture runs
// the instrumented production workloads (the paper's deployed-site runs),
// replay re-executes for the CBI baseline and the overhead columns, rank is
// the statistical diagnosis, and report renders tables.
const (
	PhaseCapture = "capture"
	PhaseReplay  = "replay"
	PhaseRank    = "rank"
	PhaseReport  = "report"
)

// Phases lists the pipeline phases in canonical order.
var Phases = []string{PhaseCapture, PhaseReplay, PhaseRank, PhaseReport}

// VMProf accumulates one machine's per-opcode dispatch costs. It is plain
// (non-atomic) state: a Machine steps on a single goroutine, and the
// accumulator is folded into the machine's (per-trial) sink once, at run
// end, so the cross-goroutine hand-off happens through the registry's
// atomics like every other counter.
type VMProf struct {
	counts [OpSlots]uint64
	cycles [OpSlots]uint64
}

// NewVMProf returns an empty accumulator.
func NewVMProf() *VMProf { return &VMProf{} }

// Slot maps an opcode to its accumulator slot, clamping undefined encodings
// onto InvalidSlot.
func Slot(op isa.Op) int {
	if int(op) >= isa.NumOps {
		return InvalidSlot
	}
	return int(op)
}

// Observe attributes one dispatched step's cycle delta to a slot.
func (p *VMProf) Observe(slot int, cycles uint64) { p.ObserveN(slot, 1, cycles) }

// ObserveN attributes n retired instructions and their summed cycles to a
// slot: the VM's batched register-only runs account a whole fused run at
// once.
func (p *VMProf) ObserveN(slot int, n, cycles uint64) {
	if slot < 0 || slot >= OpSlots {
		slot = InvalidSlot
	}
	p.counts[slot] += n
	p.cycles[slot] += cycles
}

// Count returns the accumulated dispatch count of a slot.
func (p *VMProf) Count(slot int) uint64 {
	if slot < 0 || slot >= OpSlots {
		return 0
	}
	return p.counts[slot]
}

// SlotName returns the mnemonic a slot reports under.
func SlotName(slot int) string {
	if slot == InvalidSlot {
		return InvalidName
	}
	return isa.Op(slot).String()
}

// Flush folds the accumulator into the sink's "prof.op.*" counters and
// resets it. Only touched slots materialize counters, so the registry holds
// exactly the program's instruction mix.
func (p *VMProf) Flush(s *obs.Sink) {
	if s == nil {
		return
	}
	for slot := 0; slot < OpSlots; slot++ {
		if p.counts[slot] == 0 {
			continue
		}
		name := SlotName(slot)
		s.Counter("prof.op." + name + ".count").Add(p.counts[slot])
		s.Counter("prof.op." + name + ".cycles").Add(p.cycles[slot])
	}
	*p = VMProf{}
}

// ClassOf buckets a mnemonic into the coarse opcode classes the hot-spot
// report aggregates by.
func ClassOf(mnemonic string) string {
	op, ok := isa.OpByName(mnemonic)
	if !ok {
		return "misc"
	}
	if op.IsControl() {
		return "branch"
	}
	switch op {
	case isa.OpLd, isa.OpSt, isa.OpPush, isa.OpPop, isa.OpLea:
		return "mem"
	case isa.OpLock, isa.OpUnlock, isa.OpSpawn, isa.OpJoin, isa.OpYield:
		return "sync"
	case isa.OpPrint, isa.OpOut, isa.OpFail, isa.OpIoctl:
		return "io"
	case isa.OpNop, isa.OpExit, isa.OpHalt, isa.OpDelay:
		return "misc"
	}
	return "alu"
}
