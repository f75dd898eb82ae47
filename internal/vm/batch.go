package vm

import (
	"stmdiag/internal/isa"
	"stmdiag/internal/prof"
)

// pcInfo is one entry of the machine's per-PC run table, decoded once by
// New. Straight-line runs of register-only instructions (regOnly) retire
// in one dispatch from the quantum loop instead of one step each.
type pcInfo struct {
	// run is the length of the register-only run starting at this PC;
	// 0 when the instruction here is not register-only.
	run uint32
	// addi is the length of the run of identical `addi rd, imm`
	// instructions (same Rd, same Imm, all register-only) starting here,
	// which retire as one fused add; 0 when the instruction is no addi.
	addi uint32
	// kernel marks PCs inside an AttrKernel function (ring 0).
	kernel bool
}

// regOnly reports whether an instruction only reads and writes registers
// and flags: no memory, no control transfer, no trap, no thread-state
// change, and no branch site for the branch hook to observe. Its
// retirement costs exactly CostInstr cycles and records no event.
func regOnly(in *isa.Instr) bool {
	if in.BranchID != isa.NoBranch {
		return false
	}
	switch in.Op {
	case isa.OpNop, isa.OpMovi, isa.OpMov, isa.OpLea,
		isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr,
		isa.OpAddi, isa.OpSubi, isa.OpMuli, isa.OpAndi, isa.OpCmp, isa.OpCmpi:
		return true
	}
	return false
}

// buildPCTable decodes the program's run table in one allocation,
// scanning backwards so each entry extends the run that follows it.
func buildPCTable(prog *isa.Program) []pcInfo {
	code := prog.Instrs
	pcs := make([]pcInfo, len(code))
	for pc := len(code) - 1; pc >= 0; pc-- {
		in := &code[pc]
		if !regOnly(in) {
			continue
		}
		e := &pcs[pc]
		e.run = 1
		if in.Op == isa.OpAddi {
			e.addi = 1
		}
		if pc+1 < len(code) {
			next, ne := &code[pc+1], pcs[pc+1]
			e.run += ne.run
			if e.addi > 0 && ne.addi > 0 && next.Rd == in.Rd && next.Imm == in.Imm {
				e.addi += ne.addi
			}
		}
	}
	for _, f := range prog.Funcs {
		for pc := f.Entry; pc < f.End && pc < len(pcs); pc++ {
			pcs[pc].kernel = f.Attr.Has(isa.AttrKernel)
		}
	}
	return pcs
}

// runAt returns the length of the register-only run starting at pc, 0 if
// none (including an out-of-range PC, which step turns into a crash).
func (m *Machine) runAt(pc int) int {
	if uint(pc) < uint(len(m.pcs)) {
		return int(m.pcs[pc].run)
	}
	return 0
}

// retireRun retires the next k instructions of t, all register-only (k is
// at most runAt(t.PC)), in one dispatch. The machine ends in exactly the
// state k calls of step would leave: each instruction costs CostInstr and
// counts one step, a run of j identical addis adds j*imm (wrapping exactly
// like j adds), and an armed profiler attributes every instruction to its
// opcode.
func (m *Machine) retireRun(t *Thread, k int) {
	pc, end := t.PC, t.PC+k
	code, pcs, p := m.prog.Instrs, m.pcs, m.tel.prof
	for pc < end {
		in := &code[pc]
		n := 1
		if in.Op == isa.OpAddi {
			n = min(int(pcs[pc].addi), end-pc)
			t.Regs[in.Rd] += in.Imm * int64(n)
		} else {
			execReg(t, in)
		}
		if p != nil {
			p.ObserveN(prof.Slot(in.Op), uint64(n), uint64(n)*CostInstr)
		}
		pc += n
	}
	t.PC = end
	m.res.Steps += uint64(k)
	m.res.Cycles += uint64(k) * CostInstr
}

// execReg applies the register semantics of a register-only opcode and
// reports whether the opcode was one.
func execReg(t *Thread, in *isa.Instr) bool {
	r := &t.Regs
	switch in.Op {
	case isa.OpNop:
	case isa.OpMovi, isa.OpLea:
		r[in.Rd] = in.Imm
	case isa.OpMov:
		r[in.Rd] = r[in.Rs]
	case isa.OpAdd:
		r[in.Rd] += r[in.Rs]
	case isa.OpSub:
		r[in.Rd] -= r[in.Rs]
	case isa.OpMul:
		r[in.Rd] *= r[in.Rs]
	case isa.OpAnd:
		r[in.Rd] &= r[in.Rs]
	case isa.OpOr:
		r[in.Rd] |= r[in.Rs]
	case isa.OpXor:
		r[in.Rd] ^= r[in.Rs]
	case isa.OpShl:
		r[in.Rd] <<= uint64(r[in.Rs]) & 63
	case isa.OpShr:
		r[in.Rd] = int64(uint64(r[in.Rd]) >> (uint64(r[in.Rs]) & 63))
	case isa.OpAddi:
		r[in.Rd] += in.Imm
	case isa.OpSubi:
		r[in.Rd] -= in.Imm
	case isa.OpMuli:
		r[in.Rd] *= in.Imm
	case isa.OpAndi:
		r[in.Rd] &= in.Imm
	case isa.OpCmp:
		t.Flags = compare(r[in.Rd], r[in.Rs])
	case isa.OpCmpi:
		t.Flags = compare(r[in.Rd], in.Imm)
	default:
		return false
	}
	return true
}
