package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func sys(t *testing.T, cores int) *System {
	t.Helper()
	s, err := NewSystem(cores, DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{SizeBytes: 64 << 10, Ways: 2, BlockBytes: 12},
		{SizeBytes: -1, Ways: 2, BlockBytes: 64},
		{SizeBytes: 64, Ways: 2, BlockBytes: 64}, // zero sets
	}
	for _, cfg := range bad {
		if _, err := NewSystem(2, cfg); err == nil {
			t.Errorf("NewSystem(%+v) accepted bad geometry", cfg)
		}
	}
	if _, err := NewSystem(0, DefaultConfig); err == nil {
		t.Error("zero cores accepted")
	}
	if DefaultConfig.sets() != 512 {
		t.Errorf("paper geometry should have 512 sets, got %d", DefaultConfig.sets())
	}
}

func TestColdLoadObservesInvalidThenExclusive(t *testing.T) {
	s := sys(t, 2)
	if st := s.Access(0, 100, Load); st != Invalid {
		t.Errorf("first load observed %v, want I", st)
	}
	if st := s.Peek(0, 100); st != Exclusive {
		t.Errorf("after sole load state = %v, want E", st)
	}
	if st := s.Access(0, 100, Load); st != Exclusive {
		t.Errorf("re-load observed %v, want E", st)
	}
}

func TestSharedOnSecondReader(t *testing.T) {
	s := sys(t, 2)
	s.Access(0, 100, Load)
	if st := s.Access(1, 100, Load); st != Invalid {
		t.Errorf("remote first load observed %v, want I", st)
	}
	if st := s.Peek(0, 100); st != Shared {
		t.Errorf("first reader degraded to %v, want S", st)
	}
	if st := s.Peek(1, 100); st != Shared {
		t.Errorf("second reader got %v, want S", st)
	}
}

func TestStoreInvalidatesRemote(t *testing.T) {
	s := sys(t, 2)
	s.Access(0, 100, Load)  // core0: E
	s.Access(1, 100, Store) // core1 takes ownership
	if st := s.Peek(0, 100); st != Invalid {
		t.Errorf("remote write left core0 in %v, want I", st)
	}
	if st := s.Peek(1, 100); st != Modified {
		t.Errorf("writer in %v, want M", st)
	}
	// The WWR/RWR pattern of paper Table 3: the failure thread's next read
	// observes Invalid.
	if st := s.Access(0, 100, Load); st != Invalid {
		t.Errorf("victim read observed %v, want I (the failure-predicting event)", st)
	}
}

func TestStoreUpgradeFromShared(t *testing.T) {
	s := sys(t, 3)
	s.Access(0, 100, Load)
	s.Access(1, 100, Load)
	s.Access(2, 100, Load)
	if st := s.Access(1, 100, Store); st != Shared {
		t.Errorf("upgrade store observed %v, want S", st)
	}
	if st := s.Peek(1, 100); st != Modified {
		t.Errorf("writer in %v, want M", st)
	}
	for _, core := range []int{0, 2} {
		if st := s.Peek(core, 100); st != Invalid {
			t.Errorf("core %d in %v after upgrade, want I", core, st)
		}
	}
}

func TestExclusiveToModifiedSilent(t *testing.T) {
	s := sys(t, 2)
	s.Access(0, 100, Load)
	if st := s.Access(0, 100, Store); st != Exclusive {
		t.Errorf("store observed %v, want E", st)
	}
	if st := s.Peek(0, 100); st != Modified {
		t.Errorf("state %v, want M", st)
	}
}

func TestReadOfModifiedRemoteDowngrades(t *testing.T) {
	s := sys(t, 2)
	s.Access(0, 100, Store) // core0: M
	if st := s.Access(1, 100, Load); st != Invalid {
		t.Errorf("reader observed %v, want I", st)
	}
	if st := s.Peek(0, 100); st != Shared {
		t.Errorf("former owner in %v, want S", st)
	}
	if st := s.Peek(1, 100); st != Shared {
		t.Errorf("reader in %v, want S", st)
	}
}

// TestReadTooEarlyExclusivePattern reproduces the FFT order-violation event
// of paper Figure 5: when the consumer reads a value its own thread wrote
// (uninitialized use), it observes E/M rather than the S it would observe
// after the producer wrote it.
func TestReadTooEarlyExclusivePattern(t *testing.T) {
	// Failure run: thread 1 (core 1) reads Gend before thread 2 (core 0)
	// initializes it. Because core 1 itself allocated/zeroed the block, it
	// observes a non-Shared state.
	s := sys(t, 2)
	s.Access(1, 200, Load) // B1 reads uninitialized: observes I, installs E
	if st := s.Access(1, 200, Load); st != Exclusive {
		t.Errorf("failure-run re-read observed %v, want E", st)
	}

	// Success run: producer stores first, consumer then reads and observes
	// I on first touch, then S — never E.
	s2 := sys(t, 2)
	s2.Access(0, 200, Store) // A: Gend=time()
	s2.Access(1, 200, Load)  // B1
	if st := s2.Access(1, 200, Load); st != Shared {
		t.Errorf("success-run re-read observed %v, want S", st)
	}
}

func TestEvictionLRU(t *testing.T) {
	cfg := Config{SizeBytes: 2 * 64, Ways: 2, BlockBytes: 64} // 1 set, 2 ways
	s, err := NewSystem(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Access(0, 0, Load)  // block 0
	s.Access(0, 8, Load)  // block 1
	s.Access(0, 0, Load)  // touch block 0 so block 1 is LRU
	s.Access(0, 16, Load) // block 2 evicts block 1
	if st := s.Peek(0, 8); st != Invalid {
		t.Errorf("LRU block still %v, want I (evicted)", st)
	}
	if st := s.Peek(0, 0); st != Exclusive {
		t.Errorf("MRU block got %v, want E", st)
	}
	if got := s.Stats(0).Evictions; got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
}

func TestStatsObservedStates(t *testing.T) {
	s := sys(t, 2)
	s.Access(0, 100, Load)  // observes I
	s.Access(0, 100, Load)  // observes E
	s.Access(0, 100, Store) // observes E
	s.Access(0, 100, Store) // observes M
	st := s.Stats(0)
	if st.ObservedByState[Invalid] != 1 || st.ObservedByState[Exclusive] != 2 || st.ObservedByState[Modified] != 1 {
		t.Errorf("observed counts = %v", st.ObservedByState)
	}
	if st.Loads != 2 || st.Stores != 2 {
		t.Errorf("loads/stores = %d/%d", st.Loads, st.Stores)
	}
	if st.Hits != 3 || st.Misses != 1 {
		t.Errorf("hits/misses = %d/%d", st.Hits, st.Misses)
	}
}

// Property: after any random access sequence the MESI single-writer
// invariant holds, and the observed state is always a valid MESI state.
func TestMESIInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Small cache to force evictions and conflicts.
		cfg := Config{SizeBytes: 4 * 64, Ways: 2, BlockBytes: 64}
		s, err := NewSystem(4, cfg)
		if err != nil {
			return false
		}
		for i := 0; i < 400; i++ {
			core := rng.Intn(4)
			addr := int64(rng.Intn(64)) * 4 // overlapping block set
			kind := Load
			if rng.Intn(2) == 1 {
				kind = Store
			}
			if st := s.Access(core, addr, kind); !st.Valid() {
				return false
			}
			if err := s.CheckInvariants(); err != nil {
				t.Logf("seed %d step %d: %v", seed, i, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: single-core operation never produces Shared states (nothing to
// share with) and never invalidates.
func TestSingleCoreNeverShares(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := NewSystem(1, DefaultConfig)
		if err != nil {
			return false
		}
		for i := 0; i < 200; i++ {
			addr := int64(rng.Intn(1 << 12))
			kind := AccessKind(rng.Intn(2))
			if st := s.Access(0, addr, kind); st == Shared {
				return false
			}
		}
		return s.Stats(0).Invalidations == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestStateString(t *testing.T) {
	want := map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M"}
	for st, w := range want {
		if st.String() != w {
			t.Errorf("%d.String() = %q, want %q", st, st.String(), w)
		}
	}
	if Load.String() != "load" || Store.String() != "store" {
		t.Error("AccessKind strings wrong")
	}
}

// A core that never accessed memory holds no lines: it peeks Invalid,
// reports zero statistics, is skipped by other cores' snoops without
// being filled, and joins the domain coherently on its first access and
// through a mixed stream over all four cores.
func TestUntouchedCoreIsEmpty(t *testing.T) {
	s := sys(t, 4)
	rng := rand.New(rand.NewSource(9))
	idle := s.caches[3]
	for i := 0; i < 2000; i++ {
		core := rng.Intn(3) // core 3 stays idle
		// Addresses that collide in a few sets, so lines are evicted too.
		addr := int64(rng.Intn(8))*int64(DefaultConfig.sets())*8 + int64(rng.Intn(4))*8
		kind := Load
		if rng.Intn(3) == 0 {
			kind = Store
		}
		s.Access(core, addr, kind)
		if st := s.Peek(3, addr); st != Invalid {
			t.Fatalf("idle core peeks %v at %d", st, addr)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("access %d: %v", i, err)
		}
	}
	if n := allocatedPages(idle); n != 0 {
		t.Errorf("snoops filled %d pages of the idle core's lines", n)
	}
	if st := s.Stats(3); st != (Stats{}) {
		t.Errorf("idle core stats = %+v, want zero", st)
	}
	if s.Stats(0).Evictions == 0 {
		t.Error("stream evicted nothing; widen the address collisions")
	}
	// The idle core's first access fills it and keeps the domain coherent.
	if st := s.Access(3, 0, Store); st != Invalid {
		t.Errorf("first access observed %v, want I", st)
	}
	if st := s.Peek(3, 0); st != Modified {
		t.Errorf("after store the core holds %v, want M", st)
	}
	for core := 0; core < 3; core++ {
		if st := s.Peek(core, 0); st != Invalid {
			t.Errorf("core %d still holds %v after a remote store", core, st)
		}
	}
	// Then a mixed stream over all four cores.
	for i := 0; i < 2000; i++ {
		addr := int64(rng.Intn(8))*int64(DefaultConfig.sets())*8 + int64(rng.Intn(4))*8
		s.Access(rng.Intn(4), addr, AccessKind(rng.Intn(2)))
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("four-core access %d: %v", i, err)
		}
	}
}

// Lines are allocated a page of sets at a time, on the first fill of one
// of the page's sets: a run that touches two distant blocks holds two
// pages, and every other set still reads as Invalid.
func TestLinesPagedOnFirstFill(t *testing.T) {
	s := sys(t, 2)
	c := s.caches[0]
	words := DefaultConfig.wordsPerBlock()
	far := int64(pageSets) * 3 * words // a block whose set is in page 3
	s.Access(0, 0, Load)
	s.Access(0, far, Store)
	s.Access(0, words, Load) // set 1: page 0 again
	for p, pg := range c.pages {
		if pg != nil && p != 0 && p != 3 {
			t.Errorf("page %d allocated; only pages 0 and 3 were filled", p)
		}
	}
	if n := allocatedPages(c); n != 2 || len(c.pages) != DefaultConfig.sets()/pageSets {
		t.Errorf("%d of %d pages allocated, want 2 of %d", n, len(c.pages), DefaultConfig.sets()/pageSets)
	}
	for addr, want := range map[int64]State{0: Exclusive, far: Modified, words: Exclusive, 2 * far: Invalid} {
		if st := s.Peek(0, addr); st != want {
			t.Errorf("Peek(%d) = %v, want %v", addr, st, want)
		}
	}
	if n := allocatedPages(s.caches[1]); n != 0 {
		t.Errorf("the untouched core allocated %d pages", n)
	}
	// Set 1 (page 0) and set 16 (page 1) hold tag 0 in M on two cores:
	// two distinct blocks, which the checker must tell apart.
	s.Access(0, words, Store)
	s.Access(1, pageSets*words, Store)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func allocatedPages(c *Cache) int {
	n := 0
	for _, pg := range c.pages {
		if pg != nil {
			n++
		}
	}
	return n
}
