package vm

import (
	"errors"
	"fmt"

	"stmdiag/internal/cache"
	"stmdiag/internal/faultinj"
	"stmdiag/internal/isa"
	"stmdiag/internal/memory"
	"stmdiag/internal/pmu"
)

// step retires one instruction of thread t. It returns yield=true when the
// scheduler should pick again (blocking, yielding, thread exit).
func (m *Machine) step(t *Thread) (yield bool, err error) {
	if t.PC < 0 || t.PC >= len(m.prog.Instrs) {
		m.crash(t, t.PC, fmt.Sprintf("invalid PC %d", t.PC))
		return true, nil
	}
	in := &m.prog.Instrs[t.PC]
	pc := t.PC
	m.res.Steps++
	m.res.Cycles += CostInstr
	if m.hookStep != nil {
		m.hookStep(m, t, in)
	}
	if m.hookBranch != nil && in.BranchID != isa.NoBranch {
		m.hookBranch(m, t, in)
	}
	next := pc + 1

	switch in.Op {
	case isa.OpLd:
		v, ok := m.load(t, t.Regs[in.Rs]+in.Imm, pc)
		if !ok {
			return true, nil
		}
		t.Regs[in.Rd] = v
	case isa.OpSt:
		if !m.store(t, t.Regs[in.Rd]+in.Imm, t.Regs[in.Rs], pc) {
			return true, nil
		}
	case isa.OpDiv:
		if t.Regs[in.Rs] == 0 {
			m.crash(t, pc, "division by zero")
			return true, nil
		}
		t.Regs[in.Rd] /= t.Regs[in.Rs]
	case isa.OpMod:
		if t.Regs[in.Rs] == 0 {
			m.crash(t, pc, "division by zero")
			return true, nil
		}
		t.Regs[in.Rd] %= t.Regs[in.Rs]
	case isa.OpJmp:
		m.branch(t, pc, in.Target, isa.BranchUncondRel)
		next = in.Target
	case isa.OpJe, isa.OpJne, isa.OpJl, isa.OpJle, isa.OpJg, isa.OpJge:
		if condHolds(in.Op, t.Flags) {
			m.branch(t, pc, in.Target, isa.BranchCond)
			next = in.Target
		}
	case isa.OpJmpr:
		target := int(t.Regs[in.Rd])
		if target < 0 || target >= len(m.prog.Instrs) {
			m.crash(t, pc, fmt.Sprintf("indirect jump to invalid PC %d", target))
			return true, nil
		}
		m.branch(t, pc, target, isa.BranchUncondInd)
		next = target
	case isa.OpCall:
		if !m.push(t, int64(pc+1), pc) {
			return true, nil
		}
		m.branch(t, pc, in.Target, isa.BranchRelCall)
		next = in.Target
	case isa.OpCallr:
		target := int(t.Regs[in.Rd])
		if target < 0 || target >= len(m.prog.Instrs) {
			m.crash(t, pc, fmt.Sprintf("indirect call to invalid PC %d", target))
			return true, nil
		}
		if !m.push(t, int64(pc+1), pc) {
			return true, nil
		}
		m.branch(t, pc, target, isa.BranchIndCall)
		next = target
	case isa.OpRet:
		v, ok := m.pop(t, pc)
		if !ok {
			return true, nil
		}
		target := int(v)
		if target < 0 || target >= len(m.prog.Instrs) {
			m.crash(t, pc, fmt.Sprintf("return to invalid PC %d", target))
			return true, nil
		}
		m.branch(t, pc, target, isa.BranchReturn)
		next = target

	case isa.OpPush:
		if !m.push(t, t.Regs[in.Rd], pc) {
			return true, nil
		}
	case isa.OpPop:
		v, ok := m.pop(t, pc)
		if !ok {
			return true, nil
		}
		t.Regs[in.Rd] = v

	case isa.OpLock:
		m.res.Cycles += CostLock
		handle := t.Regs[in.Rd]
		if handle <= 0 {
			m.crash(t, pc, fmt.Sprintf("lock of null/destroyed mutex (handle %d)", handle))
			return true, nil
		}
		mu := m.mutexes[handle]
		if mu == nil {
			mu = &mutexState{owner: -1}
			m.mutexes[handle] = mu
		}
		if mu.owner == -1 {
			mu.owner = t.ID
		} else {
			mu.waiters = append(mu.waiters, t.ID)
			t.State = ThreadBlocked
			t.waitLock = handle
			return true, nil // retry is handled at wakeup: owner handoff
		}
	case isa.OpUnlock:
		m.res.Cycles += CostUnlock
		handle := t.Regs[in.Rd]
		if mu := m.mutexes[handle]; mu != nil && mu.owner == t.ID {
			if len(mu.waiters) > 0 {
				nextOwner := mu.waiters[0]
				mu.waiters = mu.waiters[1:]
				mu.owner = nextOwner
				w := m.threads[nextOwner]
				w.State = ThreadRunnable
				w.waitLock = 0
				w.PC++ // the waiter's OpLock completes now
			} else {
				mu.owner = -1
			}
		}

	case isa.OpSpawn:
		m.res.Cycles += CostSpawn
		if _, err := m.spawnThread(in.Target, t.Regs[in.Rs], t.ID); err != nil {
			return true, fmt.Errorf("vm: spawn at PC %d: %w", pc, err)
		}
	case isa.OpJoin:
		m.res.Cycles += CostJoin
		if t.children > 0 {
			t.State = ThreadBlocked
			t.waitJoin = true
			return true, nil
		}
	case isa.OpYield:
		t.PC = next
		return true, nil

	case isa.OpPrint:
		m.res.Cycles += CostPrint
		m.emit(m.prog.Strings[in.Imm])
	case isa.OpOut:
		m.res.Cycles += CostPrint
		m.emit(fmt.Sprintf("%d", t.Regs[in.Rd]))
	case isa.OpFail:
		m.fail(FailureEvent{Kind: FailLogged, Code: in.Imm, PC: pc, Thread: t.ID})
	case isa.OpExit:
		m.exited = true
		t.PC = next
		return true, nil
	case isa.OpHalt:
		m.exitThread(t)
		return true, nil

	case isa.OpIoctl:
		m.res.Cycles += CostIoctl
		if m.opts.Driver != nil {
			if err := m.opts.Driver.Ioctl(m, t, in.Imm); err != nil {
				return true, fmt.Errorf("vm: ioctl %d at PC %d: %w", in.Imm, pc, err)
			}
		}
	case isa.OpDelay:
		// Busy-wait: the thread stalls at this instruction for Imm steps
		// (one for a non-positive Imm), giving other threads real
		// interleaving windows. Each stall step costs one cycle; the step
		// charged above accounts this one. t.delay counts the steps still
		// to stall and is back at 0 whenever the stall ends.
		if t.delay == 0 {
			t.delay = in.Imm
		}
		if t.delay > 1 {
			t.delay--
			return false, nil // stay on the delay instruction
		}
		t.delay = 0

	default:
		if !execReg(t, in) {
			return true, fmt.Errorf("vm: unimplemented opcode %v at PC %d", in.Op, pc)
		}
	}

	t.PC = next
	return false, nil
}

// CondTaken reports whether a conditional jump opcode is taken under the
// given flags; instrumentation hooks (the CBI baseline) use it to observe
// branch outcomes the way compiled-in predicate counters would.
func CondTaken(op isa.Op, flags int) bool { return condHolds(op, flags) }

// compare returns the sign of a-b without overflow.
func compare(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// condHolds evaluates a conditional jump against the flags.
func condHolds(op isa.Op, flags int) bool {
	switch op {
	case isa.OpJe:
		return flags == 0
	case isa.OpJne:
		return flags != 0
	case isa.OpJl:
		return flags < 0
	case isa.OpJle:
		return flags <= 0
	case isa.OpJg:
		return flags > 0
	case isa.OpJge:
		return flags >= 0
	}
	return false
}

// branch records a retired taken branch in the thread's core LBR and, when
// armed, the core's BTS (which charges its memory-store cost).
func (m *Machine) branch(t *Thread, from, to int, class isa.BranchClass) {
	core := m.cores[t.Core]
	rec := pmu.BranchRecord{
		From:   from,
		To:     to,
		Class:  class,
		Kernel: m.KernelPC(from),
	}
	recorded, evicted := core.LBR.Record(rec)
	if m.tel.sink != nil && m.tel.sink.Verbose() {
		m.tel.trace.Instant("branch", "vm", m.res.Cycles, t.Core, t.ID,
			map[string]any{"from": from, "to": to, "class": class.String(),
				"lbr": recorded, "evicted": evicted})
	}
	if core.BTS != nil && core.BTS.Enabled() {
		m.res.Cycles += CostBTSRecord
		m.tel.bts.Inc()
		core.BTS.Record(rec)
	}
}

// load performs a data load through the cache; ok=false means the thread
// trapped.
func (m *Machine) load(t *Thread, addr int64, pc int) (int64, bool) {
	v, err := m.mem.Load(addr)
	if err != nil {
		m.segv(t, pc, err)
		return 0, false
	}
	m.observe(t, addr, cache.Load, pc)
	return v, true
}

// store performs a data store through the cache.
func (m *Machine) store(t *Thread, addr, val int64, pc int) bool {
	if err := m.mem.Store(addr, val); err != nil {
		m.segv(t, pc, err)
		return false
	}
	m.observe(t, addr, cache.Store, pc)
	return true
}

// observe routes a retired access through the cache system, the coherence
// counters and the thread's LCR.
func (m *Machine) observe(t *Thread, addr int64, kind cache.AccessKind, pc int) {
	st := m.cache.Access(t.Core, addr, kind)
	if st == cache.Invalid {
		m.res.Cycles += CostCacheMiss
	} else {
		m.res.Cycles += CostCacheHit
	}
	core := m.cores[t.Core]
	core.Counters.Observe(kind, st)
	recorded, evicted := t.LCR.Record(pmu.CoherenceEvent{PC: pc, Kind: kind, State: st, Kernel: m.KernelPC(pc)})
	if m.tel.sink != nil && m.tel.sink.Verbose() {
		m.tel.trace.Instant("coherence", "vm", m.res.Cycles, t.Core, t.ID,
			map[string]any{"pc": pc, "kind": kind.String(), "state": st.String(),
				"lcr": recorded, "evicted": evicted})
	}
	if m.hookCoher != nil {
		m.hookCoher(m, t, pc, kind, st)
	}
}

// push stores v on the thread's stack.
func (m *Machine) push(t *Thread, v int64, pc int) bool {
	t.SP--
	if !m.store(t, t.SP, v, pc) {
		t.SP++
		return false
	}
	return true
}

// pop loads the top of the thread's stack.
func (m *Machine) pop(t *Thread, pc int) (int64, bool) {
	v, ok := m.load(t, t.SP, pc)
	if !ok {
		return 0, false
	}
	t.SP++
	return v, true
}

// emit appends one output record, respecting the cap.
func (m *Machine) emit(s string) {
	if len(m.res.Output) < m.opts.OutputLimit {
		m.res.Output = append(m.res.Output, s)
	}
}

// crash handles a non-memory trap (null mutex, bad jump, div by zero).
func (m *Machine) crash(t *Thread, pc int, msg string) {
	m.runSegvHandler(t, pc)
	m.fail(FailureEvent{Kind: FailCrash, PC: pc, Thread: t.ID, Msg: msg})
	m.exited = true
}

// segv handles a memory fault: the registered handler profiles LBR/LCR,
// then the process dies, mirroring the paper's custom segmentation-fault
// signal handler (§5.1 step 4).
func (m *Machine) segv(t *Thread, pc int, err error) {
	var f *memory.Fault
	msg := err.Error()
	if errors.As(err, &f) {
		msg = fmt.Sprintf("segmentation fault at PC %d (addr %d, write=%v)", pc, f.Addr, f.Write)
	}
	m.runSegvHandler(t, pc)
	m.fail(FailureEvent{Kind: FailCrash, PC: pc, Thread: t.ID, Msg: msg})
	m.exited = true
}

// runSegvHandler executes the registered driver requests in the faulting
// thread's context. An injected segv-loss fault models the handler itself
// dying (the fragile link of paper §5.1 step 4): the run's profile is lost
// and diagnosis must cope with one fewer failure-run profile.
func (m *Machine) runSegvHandler(t *Thread, pc int) {
	if m.opts.Driver == nil {
		return
	}
	if m.opts.Faults.Hit(faultinj.SegvLoss) {
		if s := m.Obs(); s != nil {
			s.Counter("faultinj.degraded.segv-loss").Inc()
		}
		return
	}
	for _, req := range m.opts.SegvIoctls {
		m.res.Cycles += CostIoctl
		// The handler runs at the faulting PC so profiles carry the real
		// failure site.
		savedPC := t.PC
		t.PC = pc
		if err := m.opts.Driver.Ioctl(m, t, req); err != nil {
			t.PC = savedPC
			return
		}
		t.PC = savedPC
	}
}

// exitThread retires a thread and wakes a joining parent.
func (m *Machine) exitThread(t *Thread) {
	if t.State == ThreadExited {
		return
	}
	t.State = ThreadExited
	if t.parent >= 0 {
		p := m.threads[t.parent]
		p.children--
		if p.waitJoin && p.children == 0 {
			p.waitJoin = false
			p.State = ThreadRunnable
			p.PC++ // complete the OpJoin
		}
	}
}
