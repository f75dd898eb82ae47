// Package cache simulates the per-core L1 data caches of the machine with a
// MESI coherence protocol over a snooping bus.
//
// It mirrors the paper's LCR simulator (§4.3): each core's L1 is 2-way set
// associative with 64-byte blocks and 64KB total, and every load or store
// reports the coherence state the block was in *before* the access — the
// exact event that Intel's L1D cache-coherence performance events count
// (paper Table 2) and that the proposed LCR records.
package cache

import "fmt"

// State is a MESI coherence state.
type State uint8

// The MESI states. The zero value is Invalid, matching an empty cache.
const (
	// Invalid: the block is not present (or was invalidated by a remote
	// write or an eviction).
	Invalid State = iota
	// Shared: present, clean, possibly cached elsewhere.
	Shared
	// Exclusive: present, clean, cached nowhere else.
	Exclusive
	// Modified: present, dirty, cached nowhere else.
	Modified
)

// String returns the one-letter MESI name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Valid reports whether s is one of the four MESI states.
func (s State) Valid() bool { return s <= Modified }

// AccessKind distinguishes loads from stores.
type AccessKind uint8

// Access kinds; the paper's event codes are 0x40 for loads and 0x41 for
// stores (Table 2).
const (
	Load AccessKind = iota
	Store
)

// String returns "load" or "store".
func (k AccessKind) String() string {
	if k == Store {
		return "store"
	}
	return "load"
}

// Config fixes the cache geometry.
type Config struct {
	// SizeBytes is the total capacity of one core's L1D.
	SizeBytes int
	// Ways is the set associativity.
	Ways int
	// BlockBytes is the cache-block (line) size.
	BlockBytes int
}

// DefaultConfig is the geometry the paper's simulator uses: a 2-way
// associative cache with 64-byte blocks and 64KB total size (§6).
var DefaultConfig = Config{SizeBytes: 64 << 10, Ways: 2, BlockBytes: 64}

// sets returns the number of sets the geometry implies.
func (c Config) sets() int { return c.SizeBytes / (c.Ways * c.BlockBytes) }

// wordsPerBlock returns how many 64-bit words fit one block.
func (c Config) wordsPerBlock() int64 { return int64(c.BlockBytes / 8) }

// validate reports whether the geometry is usable.
func (c Config) validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.BlockBytes < 8 {
		return fmt.Errorf("cache: bad geometry %+v", c)
	}
	if c.BlockBytes%8 != 0 {
		return fmt.Errorf("cache: block size %d not a whole number of words", c.BlockBytes)
	}
	if c.sets() <= 0 {
		return fmt.Errorf("cache: geometry %+v yields no sets", c)
	}
	return nil
}

// line is one cache line's bookkeeping.
type line struct {
	tag     int64
	state   State
	lastUse uint64
}

// pageSets is how many sets one page of lines covers.
const pageSets = 16

// Cache is one core's L1D. Its lines live in pages of pageSets sets,
// indexed (set%pageSets)*Ways+way within page set/pageSets, each allocated
// on the first fill of one of its sets: a missing page reads as all
// Invalid, exactly as an empty cache would. The page table itself comes
// with the core's first fill, so a core no thread runs on allocates
// nothing, and a short run that touches a few blocks allocates a few
// small pages instead of the whole cache.
type Cache struct {
	cfg   Config
	nsets int
	pages [][]line // nil until the first fill; a nil page is all Invalid
	stats Stats
}

// Stats counts cache events per core.
type Stats struct {
	Loads, Stores   uint64
	Hits, Misses    uint64
	Evictions       uint64
	Invalidations   uint64 // lines killed by remote writes
	ObservedByState [4]uint64
}

// System is a coherent domain: one cache per core connected by a snooping
// bus. All methods are single-threaded by design; the VM serializes
// accesses, which models the sequentially consistent interleaving the
// paper's PIN-based simulator observes.
type System struct {
	cfg    Config
	caches []*Cache
	tick   uint64
	tel    telemetry
}

// NewSystem builds a coherent domain of ncores caches.
func NewSystem(ncores int, cfg Config) (*System, error) {
	if ncores <= 0 {
		return nil, fmt.Errorf("cache: ncores must be positive, got %d", ncores)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, caches: make([]*Cache, ncores)}
	for i := range s.caches {
		s.caches[i] = &Cache{cfg: cfg, nsets: cfg.sets()}
	}
	return s, nil
}

// Reset readies s for a fresh run: every line Invalid, every counter
// zero, telemetry detached. The pages earlier fills allocated stay, so
// the next run fills them without allocating; a cleared page reads
// exactly as a missing one does (all Invalid, LRU ages zero).
func (s *System) Reset() {
	s.tick = 0
	s.tel = telemetry{}
	for _, c := range s.caches {
		c.stats = Stats{}
		for _, pg := range c.pages {
			clear(pg)
		}
	}
}

// MustNewSystem is NewSystem with a panic on configuration error; for use
// with the package defaults.
func MustNewSystem(ncores int, cfg Config) *System {
	s, err := NewSystem(ncores, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// NumCores returns the number of caches in the domain.
func (s *System) NumCores() int { return len(s.caches) }

// Stats returns a copy of one core's counters.
func (s *System) Stats(core int) Stats { return s.caches[core].stats }

// blockOf maps a word address to its block address.
func (s *System) blockOf(wordAddr int64) int64 {
	return wordAddr / s.cfg.wordsPerBlock()
}

// Access performs a load or store by the given core at the given word
// address and returns the MESI state the core's cache held for the block
// *before* the access — the "observed" state of paper Table 2. The cache
// contents are updated per the MESI protocol, including invalidating remote
// copies on stores.
func (s *System) Access(core int, wordAddr int64, kind AccessKind) State {
	s.tick++
	c := s.caches[core]
	block := s.blockOf(wordAddr)
	set := int(block % int64(c.nsets))
	tag := block / int64(c.nsets)

	if kind == Load {
		c.stats.Loads++
	} else {
		c.stats.Stores++
	}

	ln := c.find(set, tag)
	observed := Invalid
	if ln != nil {
		observed = ln.state
	}
	c.stats.ObservedByState[observed]++

	if ln != nil && ln.state != Invalid {
		c.stats.Hits++
		s.tel.hits.Inc()
		ln.lastUse = s.tick
		if kind == Store {
			switch ln.state {
			case Shared:
				// Upgrade: invalidate every remote copy.
				s.tel.busUpgr.Inc()
				s.invalidateOthers(core, set, tag)
				ln.state = Modified
			case Exclusive:
				ln.state = Modified
			}
			s.tel.transition(observed, ln.state)
		}
		return observed
	}

	// Miss (absent or Invalid): fetch over the bus.
	c.stats.Misses++
	s.tel.misses.Inc()
	if kind == Store {
		s.tel.busRdX.Inc()
	} else {
		s.tel.busRd.Inc()
	}
	remote := s.snoop(core, set, tag, kind)
	if ln == nil {
		evBefore := c.stats.Evictions
		ln = c.victim(set)
		if c.stats.Evictions != evBefore {
			s.tel.evictions.Inc()
		}
	}
	ln.tag = tag
	ln.lastUse = s.tick
	switch {
	case kind == Store:
		ln.state = Modified
	case remote:
		ln.state = Shared
	default:
		ln.state = Exclusive
	}
	s.tel.transition(observed, ln.state)
	return observed
}

// Peek returns the state core currently holds for the block containing
// wordAddr, without touching LRU or statistics.
func (s *System) Peek(core int, wordAddr int64) State {
	c := s.caches[core]
	block := s.blockOf(wordAddr)
	set := int(block % int64(c.nsets))
	tag := block / int64(c.nsets)
	if ln := c.find(set, tag); ln != nil {
		return ln.state
	}
	return Invalid
}

// set returns the ways of one set; nil while its page is unallocated.
// Small enough that find, which calls it on every access and snoop, stays
// inlinable.
func (c *Cache) set(set int) []line {
	p := uint(set) / pageSets
	if p >= uint(len(c.pages)) {
		return nil // no fill yet: every set is Invalid
	}
	pg := c.pages[p]
	if pg == nil {
		return nil
	}
	i := uint(set) % pageSets * uint(c.cfg.Ways)
	return pg[i : i+uint(c.cfg.Ways)]
}

// find returns the valid line holding tag in the set, or nil.
func (c *Cache) find(set int, tag int64) *line {
	lines := c.set(set)
	for i := range lines {
		ln := &lines[i]
		if ln.tag == tag && ln.state != Invalid {
			return ln
		}
	}
	return nil
}

// victim picks the line to replace in the set: an Invalid line if any,
// otherwise the least recently used. A valid victim counts as an eviction.
// The first fill of a set allocates its page.
func (c *Cache) victim(set int) *line {
	if c.pages == nil {
		c.pages = make([][]line, (c.nsets+pageSets-1)/pageSets)
	}
	if pg := &c.pages[uint(set)/pageSets]; *pg == nil {
		*pg = make([]line, pageSets*c.cfg.Ways)
	}
	lines := c.set(set)
	var v *line
	for i := range lines {
		ln := &lines[i]
		if ln.state == Invalid {
			return ln
		}
		if v == nil || ln.lastUse < v.lastUse {
			v = ln
		}
	}
	c.stats.Evictions++
	v.state = Invalid
	return v
}

// snoop services a bus transaction from the requester: for a load (BusRd)
// remote M/E copies degrade to S; for a store (BusRdX) every remote copy is
// invalidated. It reports whether any remote cache held the block.
func (s *System) snoop(requester, set int, tag int64, kind AccessKind) bool {
	shared := false
	for id, c := range s.caches {
		if id == requester {
			continue
		}
		ln := c.find(set, tag)
		if ln == nil {
			continue
		}
		shared = true
		if kind == Store {
			s.tel.transition(ln.state, Invalid)
			ln.state = Invalid
			c.stats.Invalidations++
			s.tel.invalidations.Inc()
		} else if ln.state == Modified || ln.state == Exclusive {
			// Writeback (for M) is implicit; both ends hold S after.
			s.tel.transition(ln.state, Shared)
			ln.state = Shared
		}
	}
	return shared
}

// invalidateOthers kills remote copies on a store upgrade.
func (s *System) invalidateOthers(requester, set int, tag int64) {
	for id, c := range s.caches {
		if id == requester {
			continue
		}
		if ln := c.find(set, tag); ln != nil {
			s.tel.transition(ln.state, Invalid)
			ln.state = Invalid
			c.stats.Invalidations++
			s.tel.invalidations.Inc()
		}
	}
}

// CheckInvariants verifies the MESI single-writer/multiple-reader property
// over the whole domain: for every block, at most one cache holds it in M
// or E, and if one does, no other cache holds it in any valid state. It is
// used by the property-based tests and may be called after any access.
func (s *System) CheckInvariants() error {
	type holder struct {
		core  int
		state State
	}
	holders := make(map[[2]int64][]holder)
	for id, c := range s.caches {
		for p, pg := range c.pages {
			for i := range pg {
				ln := &pg[i]
				if ln.state == Invalid {
					continue
				}
				key := [2]int64{int64(p*pageSets + i/c.cfg.Ways), ln.tag}
				holders[key] = append(holders[key], holder{id, ln.state})
			}
		}
	}
	for key, hs := range holders {
		exclusiveOwners := 0
		for _, h := range hs {
			if h.state == Modified || h.state == Exclusive {
				exclusiveOwners++
			}
		}
		if exclusiveOwners > 1 {
			return fmt.Errorf("cache: block set=%d tag=%d has %d M/E owners: %v", key[0], key[1], exclusiveOwners, hs)
		}
		if exclusiveOwners == 1 && len(hs) > 1 {
			return fmt.Errorf("cache: block set=%d tag=%d owned M/E but also cached elsewhere: %v", key[0], key[1], hs)
		}
	}
	return nil
}
