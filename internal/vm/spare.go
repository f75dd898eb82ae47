package vm

import (
	"fmt"
	"sync"

	"stmdiag/internal/cache"
	"stmdiag/internal/isa"
)

// Spare is what one session of runs keeps between its machines: each
// program's validated run table, built once per program instead of once
// per machine, and the cache systems of finished runs, reset and reused
// so a session's runs stop allocating cache pages per run. Machines of
// one session may share it concurrently. It holds one table per program
// it has seen and one cache system per machine that was live at once.
// The zero value is ready; a nil Spare keeps nothing.
type Spare struct {
	mu     sync.Mutex
	tables map[*isa.Program][]pcInfo
	caches []*cache.System
}

// table returns prog's run table, validating prog and building the table
// on first use. A program must not change once a machine has run it.
func (s *Spare) table(prog *isa.Program) ([]pcInfo, error) {
	if s != nil {
		s.mu.Lock()
		pcs, ok := s.tables[prog]
		s.mu.Unlock()
		if ok {
			return pcs, nil
		}
	}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("vm: invalid program: %w", err)
	}
	pcs := buildPCTable(prog)
	if s != nil {
		s.mu.Lock()
		if s.tables == nil {
			s.tables = make(map[*isa.Program][]pcInfo)
		}
		s.tables[prog] = pcs
		s.mu.Unlock()
	}
	return pcs, nil
}

// cacheSystem returns a reset idle system of ncores caches, or a new one.
func (s *Spare) cacheSystem(ncores int) (*cache.System, error) {
	if s != nil {
		s.mu.Lock()
		for i := len(s.caches) - 1; i >= 0; i-- {
			if cs := s.caches[i]; cs.NumCores() == ncores {
				s.caches = append(s.caches[:i], s.caches[i+1:]...)
				s.mu.Unlock()
				cs.Reset()
				return cs, nil
			}
		}
		s.mu.Unlock()
	}
	return cache.NewSystem(ncores, cache.DefaultConfig)
}

// release makes a finished run's cache system idle.
func (s *Spare) release(cs *cache.System) {
	s.mu.Lock()
	s.caches = append(s.caches, cs)
	s.mu.Unlock()
}
