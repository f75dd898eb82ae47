// Package memory implements the VM's word-addressed shared memory as a set
// of mapped segments with access protection. Accesses outside any segment
// raise a Fault, which the machine surfaces as a segmentation fault — the
// crash symptom of several of the paper's Table 4 benchmarks (sort,
// Cppcheck, PBZIP2, tac, Squid2, Mozilla-JS1, MySQL1, PBZIP3).
//
// Addresses are in 64-bit words; the data cache translates them to byte
// addresses (one word = 8 bytes) when forming cache blocks.
package memory

import "fmt"

// Fault describes an invalid memory access.
type Fault struct {
	// Addr is the faulting word address.
	Addr int64
	// Write reports whether the access was a store.
	Write bool
}

// Error implements the error interface.
func (f *Fault) Error() string {
	kind := "read"
	if f.Write {
		kind = "write"
	}
	return fmt.Sprintf("segmentation fault: invalid %s at word address %d", kind, f.Addr)
}

// pageShift sets the backing page size: 1<<pageShift words (512 bytes).
// Runs touch a few dozen words of globals and of each stack, so small
// pages keep a machine's backing store small.
const (
	pageShift = 6
	pageWords = 1 << pageShift
)

// page is one fixed-size block of backing words.
type page [pageWords]int64

// Segment is a contiguous mapped region. Its words are backed in pages
// allocated on the first store into them; a word no store has reached
// reads as 0, so a segment behaves as zero-filled from the moment it is
// mapped while costing nothing until it is written. The page slots cover
// only the window of pages stores have reached (the top of a stack, the
// front of the globals), not the whole reservation.
type Segment struct {
	// Name identifies the segment in diagnostics ("globals", "stack0"...).
	Name string
	// Base is the first mapped word address.
	Base int64

	size  int64   // the segment spans [Base, Base+size)
	first int64   // page number of pages[0]
	pages []*page // the slot window; a nil slot reads as zeros
}

// Contains reports whether the word address falls inside the segment.
func (s *Segment) Contains(addr int64) bool {
	return addr >= s.Base && addr < s.Base+s.size
}

// load reads the word at offset off from Base.
func (s *Segment) load(off int64) int64 {
	if i := off>>pageShift - s.first; uint64(i) < uint64(len(s.pages)) {
		if p := s.pages[i]; p != nil {
			return p[off&(pageWords-1)]
		}
	}
	return 0
}

// store writes the word at offset off from Base, backing its page first.
func (s *Segment) store(off, val int64) {
	i := off>>pageShift - s.first
	if uint64(i) >= uint64(len(s.pages)) {
		s.widen(off >> pageShift)
		i = off>>pageShift - s.first
	}
	p := s.pages[i]
	if p == nil {
		p = new(page)
		s.pages[i] = p
	}
	p[off&(pageWords-1)] = val
}

// widen grows the slot window to cover page n. It grows toward n by at
// least the window's width, so a stack deepening page by page copies the
// window a logarithmic number of times.
func (s *Segment) widen(n int64) {
	w := int64(len(s.pages))
	if w == 0 {
		s.first, s.pages = n, make([]*page, 1)
		return
	}
	lo, hi := s.first, s.first+w
	if n < lo {
		lo = max(0, min(n, lo-w))
	} else {
		hi = min((s.size+pageWords-1)>>pageShift, max(n+1, hi+w))
	}
	pages := make([]*page, hi-lo)
	copy(pages[s.first-lo:], s.pages)
	s.first, s.pages = lo, pages
}

// Memory is a collection of non-overlapping segments.
type Memory struct {
	segs []*Segment
}

// New returns an empty address space.
func New() *Memory { return &Memory{} }

// Map adds a zeroed segment of the given size. It returns an error if the
// new segment would overlap an existing one.
func (m *Memory) Map(name string, base, size int64) (*Segment, error) {
	if size < 0 {
		return nil, fmt.Errorf("memory: map %s: negative size %d", name, size)
	}
	for _, s := range m.segs {
		if base < s.Base+s.size && s.Base < base+size {
			return nil, fmt.Errorf("memory: map %s [%d,%d) overlaps %s [%d,%d)",
				name, base, base+size, s.Name, s.Base, s.Base+s.size)
		}
	}
	seg := &Segment{Name: name, Base: base, size: size}
	m.segs = append(m.segs, seg)
	return seg, nil
}

// SegmentAt returns the segment containing addr, or nil.
func (m *Memory) SegmentAt(addr int64) *Segment {
	for _, s := range m.segs {
		if s.Contains(addr) {
			return s
		}
	}
	return nil
}

// Load reads the word at addr.
func (m *Memory) Load(addr int64) (int64, error) {
	s := m.SegmentAt(addr)
	if s == nil {
		return 0, &Fault{Addr: addr}
	}
	return s.load(addr - s.Base), nil
}

// Store writes the word at addr.
func (m *Memory) Store(addr, val int64) error {
	s := m.SegmentAt(addr)
	if s == nil {
		return &Fault{Addr: addr, Write: true}
	}
	s.store(addr-s.Base, val)
	return nil
}

// Segments returns the mapped segments (not a copy; callers must not
// mutate the slice).
func (m *Memory) Segments() []*Segment { return m.segs }
