package memory

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestMapAndAccess(t *testing.T) {
	m := New()
	if _, err := m.Map("globals", 4096, 16); err != nil {
		t.Fatalf("Map: %v", err)
	}
	if err := m.Store(4100, 42); err != nil {
		t.Fatalf("Store: %v", err)
	}
	v, err := m.Load(4100)
	if err != nil || v != 42 {
		t.Fatalf("Load = %d, %v", v, err)
	}
}

func TestNullPageFaults(t *testing.T) {
	m := New()
	if _, err := m.Map("globals", 4096, 16); err != nil {
		t.Fatal(err)
	}
	_, err := m.Load(0)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("Load(0) err = %v, want Fault", err)
	}
	if f.Write || f.Addr != 0 {
		t.Errorf("fault = %+v", f)
	}
	err = m.Store(3, 1)
	if !errors.As(err, &f) || !f.Write {
		t.Fatalf("Store(3) err = %v, want write Fault", err)
	}
	if !strings.Contains(err.Error(), "segmentation fault") {
		t.Errorf("fault message = %q", err)
	}
}

func TestOutOfSegmentFaults(t *testing.T) {
	m := New()
	if _, err := m.Map("g", 100, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Load(110); err == nil {
		t.Error("Load just past end should fault")
	}
	if _, err := m.Load(99); err == nil {
		t.Error("Load just before base should fault")
	}
	if _, err := m.Load(109); err != nil {
		t.Errorf("last word should be mapped: %v", err)
	}
}

func TestOverlapRejected(t *testing.T) {
	m := New()
	if _, err := m.Map("a", 100, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Map("b", 105, 10); err == nil {
		t.Error("overlapping map should fail")
	}
	if _, err := m.Map("c", 90, 10); err != nil {
		t.Errorf("adjacent map should succeed: %v", err)
	}
	if _, err := m.Map("d", 110, 0); err != nil {
		t.Errorf("empty map should succeed: %v", err)
	}
	if _, err := m.Map("e", 100, -1); err == nil {
		t.Error("negative size should fail")
	}
}

func TestSegmentAt(t *testing.T) {
	m := New()
	g, _ := m.Map("g", 100, 10)
	s, _ := m.Map("s", 1000, 10)
	if m.SegmentAt(105) != g {
		t.Error("SegmentAt(105) != g")
	}
	if m.SegmentAt(1000) != s {
		t.Error("SegmentAt(1000) != s")
	}
	if m.SegmentAt(500) != nil {
		t.Error("SegmentAt(500) should be nil")
	}
	if len(m.Segments()) != 2 {
		t.Errorf("Segments() = %d entries", len(m.Segments()))
	}
}

// Property: a store followed by a load of the same mapped address returns
// the stored value, independent of offset and value.
func TestStoreLoadQuick(t *testing.T) {
	m := New()
	const base, size = 4096, 1024
	if _, err := m.Map("g", base, size); err != nil {
		t.Fatal(err)
	}
	f := func(off uint16, val int64) bool {
		addr := base + int64(off%size)
		if err := m.Store(addr, val); err != nil {
			return false
		}
		got, err := m.Load(addr)
		return err == nil && got == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: accesses outside every segment always fault and never mutate
// mapped state.
func TestFaultQuick(t *testing.T) {
	m := New()
	const base, size = 4096, 64
	if _, err := m.Map("g", base, size); err != nil {
		t.Fatal(err)
	}
	if err := m.Store(base, 7); err != nil {
		t.Fatal(err)
	}
	f := func(raw int64) bool {
		addr := raw
		if addr >= base && addr < base+size {
			addr = base - 1 - (addr-base)%base // push it below the segment
		}
		if addr >= base && addr < base+size {
			return true // still inside; skip
		}
		if err := m.Store(addr, 99); err == nil {
			return false
		}
		if _, err := m.Load(addr); err == nil {
			return false
		}
		v, err := m.Load(base)
		return err == nil && v == 7
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// An untouched word reads as 0 without backing its page, values survive a
// page boundary and the segment's last word, and the words just outside
// still fault.
func TestLazyPages(t *testing.T) {
	m := New()
	const base, size = 4096, 3*pageWords + 5
	seg, err := m.Map("g", base, size)
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range []int64{base, base + pageWords, base + size - 1} {
		if v, err := m.Load(addr); err != nil || v != 0 {
			t.Fatalf("untouched Load(%d) = %d, %v; want 0", addr, v, err)
		}
	}
	for _, p := range seg.pages {
		if p != nil {
			t.Fatal("a load backed a page")
		}
	}
	writes := map[int64]int64{
		base + pageWords - 1: 11, // last word of the first page
		base + pageWords:     12, // first word of the second
		base + size - 1:      13, // the segment's last word, in a partial page
	}
	for addr, v := range writes {
		if err := m.Store(addr, v); err != nil {
			t.Fatalf("Store(%d): %v", addr, err)
		}
	}
	for addr, want := range writes {
		if v, err := m.Load(addr); err != nil || v != want {
			t.Errorf("Load(%d) = %d, %v; want %d", addr, v, err, want)
		}
	}
	if v, err := m.Load(base + 2*pageWords); err != nil || v != 0 {
		t.Errorf("untouched word in a backed segment = %d, %v; want 0", v, err)
	}
	for _, addr := range []int64{base - 1, base + size} {
		if _, err := m.Load(addr); err == nil {
			t.Errorf("Load(%d) outside the segment did not fault", addr)
		}
		if err := m.Store(addr, 1); err == nil {
			t.Errorf("Store(%d) outside the segment did not fault", addr)
		}
	}
}

// TestPageWindow: the slot window grows in both directions — a stack
// deepening page by page from the top, then stores near the bottom and
// back at the top — without losing a stored word, and never spans more
// pages than the segment has.
func TestPageWindow(t *testing.T) {
	m := New()
	const base, size = 1 << 22, 16*pageWords + 3
	seg, err := m.Map("stack0", base, size)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]int64{}
	store := func(addr int64) {
		t.Helper()
		v := addr*7 + 1
		if err := m.Store(addr, v); err != nil {
			t.Fatalf("Store(%d): %v", addr, err)
		}
		want[addr] = v
	}
	for addr := int64(base + size - 1); addr >= base+size-6*pageWords; addr -= pageWords / 2 {
		store(addr)
	}
	store(base)
	store(base + pageWords + 1)
	store(base + size - 1)
	for addr, v := range want {
		if got, err := m.Load(addr); err != nil || got != v {
			t.Errorf("Load(%d) = %d, %v; want %d", addr, got, err, v)
		}
	}
	if n := int64(len(seg.pages)); seg.first < 0 || seg.first+n > (size+pageWords-1)/pageWords {
		t.Errorf("window [%d, %d) exceeds the segment's %d pages", seg.first, seg.first+n, (size+pageWords-1)/pageWords)
	}
}
