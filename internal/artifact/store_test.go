package artifact

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"

	"stmdiag/internal/faultinj"
	"stmdiag/internal/obs"
)

func testSink() *obs.Sink { return &obs.Sink{Metrics: obs.NewRegistry()} }

func mustSpec(t *testing.T, in string) faultinj.Spec {
	t.Helper()
	s, err := faultinj.ParseSpec(in)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sink := testSink()
	s, err := Open(dir, sink)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"value": 42}`)
	if err := s.Put("app/fail", 3, "key-a", payload); err != nil {
		t.Fatal(err)
	}
	// Duplicate puts are no-ops.
	if err := s.Put("app/fail", 3, "key-a", payload); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Load("key-a")
	if err != nil || !ok || string(got) != string(payload) {
		t.Fatalf("Load = %q, %v, %v", got, ok, err)
	}
	if _, ok, _ := s.Load("key-absent"); ok {
		t.Error("Load of absent key reported a hit")
	}
	s.Close()

	// Reopen: the manifest replays to the same index.
	s2, err := Open(dir, testSink())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 1 {
		t.Fatalf("reopened Len = %d, want 1", s2.Len())
	}
	got, ok, err = s2.Load("key-a")
	if err != nil || !ok || string(got) != string(payload) {
		t.Fatalf("reopened Load = %q, %v, %v", got, ok, err)
	}
	snap := sink.Metrics.Snapshot()
	if snap.Counter("artifact.puts") != 1 {
		t.Errorf("puts = %d, want 1 (dup must not recount)", snap.Counter("artifact.puts"))
	}
}

// TestStoreCorruptBlobQuarantined flips a byte of a stored blob on disk:
// Load must return the typed *Error, quarantine the blob, forget the key,
// and a fresh Put must repair the store.
func TestStoreCorruptBlobQuarantined(t *testing.T) {
	sink := testSink()
	s, err := Open(t.TempDir(), sink)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	payload := []byte("precious trial result")
	if err := s.Put("st", 0, "k", payload); err != nil {
		t.Fatal(err)
	}
	path, ok := s.BlobPath("k")
	if !ok {
		t.Fatal("BlobPath miss")
	}
	data, _ := os.ReadFile(path)
	data[0] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, ok, err = s.Load("k")
	var ae *Error
	if ok || !errors.As(err, &ae) {
		t.Fatalf("Load of corrupt blob = ok=%v err=%v, want typed *Error", ok, err)
	}
	if ae.Reason != "checksum mismatch" {
		t.Errorf("Reason = %q, want checksum mismatch", ae.Reason)
	}
	ents, _ := os.ReadDir(s.QuarantineDir())
	if len(ents) != 1 {
		t.Errorf("quarantine holds %d files, want 1", len(ents))
	}
	// The key is forgotten: the caller re-executes and the fresh Put heals.
	if _, ok, err := s.Load("k"); ok || err != nil {
		t.Fatalf("post-quarantine Load = ok=%v err=%v, want clean miss", ok, err)
	}
	if err := s.Put("st", 0, "k", payload); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Load("k")
	if err != nil || !ok || string(got) != string(payload) {
		t.Fatalf("healed Load = %q, %v, %v", got, ok, err)
	}
	if q := sink.Metrics.Snapshot().Counter("artifact.quarantined"); q != 1 {
		t.Errorf("quarantined = %d, want 1", q)
	}
}

// TestStoreInjectedFaults drives each store-layer injector at rate 1 and
// checks the damage is detected exactly as advertised.
func TestStoreInjectedFaults(t *testing.T) {
	payload := []byte("0123456789abcdef0123456789abcdef")

	t.Run("artifact-corrupt", func(t *testing.T) {
		s, err := Open(t.TempDir(), testSink())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.WithFaults(mustSpec(t, "artifact-corrupt=1"), 7)
		if err := s.Put("st", 0, "k", payload); err != nil {
			t.Fatal(err)
		}
		_, ok, err := s.Load("k")
		var ae *Error
		if ok || !errors.As(err, &ae) {
			t.Fatalf("corrupted blob loaded: ok=%v err=%v", ok, err)
		}
	})

	t.Run("artifact-torn-write", func(t *testing.T) {
		s, err := Open(t.TempDir(), testSink())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.WithFaults(mustSpec(t, "artifact-torn-write=1"), 7)
		if err := s.Put("st", 0, "k", payload); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := s.Load("k"); ok && err == nil {
			// A torn write that kept every byte is impossible: TruncN caps
			// at len(payload) so at least the size check must fire... unless
			// the prefix happened to be the whole payload. TruncN's modulus
			// is len+1, so a full-length "tear" is possible; accept it only
			// if the bytes round-tripped intact.
			got, _, _ := s.Load("k")
			if string(got) != string(payload) {
				t.Error("torn blob loaded without error")
			}
		}
	})

	t.Run("journal-trunc", func(t *testing.T) {
		dir := t.TempDir()
		s, err := Open(dir, testSink())
		if err != nil {
			t.Fatal(err)
		}
		s.WithFaults(mustSpec(t, "journal-trunc=1"), 7)
		if err := s.Put("st", 0, "k", payload); err != nil {
			t.Fatal(err)
		}
		s.Close()
		// The torn manifest append must salvage on reopen; whether the
		// record survived depends on where the frame was cut, but the open
		// must never fail and never index a damaged record.
		sink := testSink()
		s2, err := Open(dir, sink)
		if err != nil {
			t.Fatalf("reopen after torn manifest append: %v", err)
		}
		defer s2.Close()
		if s2.Len() != 0 {
			// A cut inside the frame always drops the record.
			t.Errorf("torn manifest record still indexed (Len=%d)", s2.Len())
		}
		if sink.Metrics.Snapshot().Counter("artifact.salvaged_opens") != 1 {
			t.Error("salvage not reported on reopen")
		}
	})
}

// TestStoreManifestLaterWins: a re-executed trial's fresh manifest record
// must shadow the stale one on replay.
func TestStoreManifestLaterWins(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testSink())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("st", 0, "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Simulate quarantine-then-reexecute: evict and put a new value.
	path, _ := s.BlobPath("k")
	os.WriteFile(path, []byte("xx"), 0o644)
	if _, _, err := s.Load("k"); err == nil {
		t.Fatal("corrupt blob loaded")
	}
	if err := s.Put("st", 0, "k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(dir, testSink())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok, err := s2.Load("k")
	if err != nil || !ok || string(got) != "v2" {
		t.Fatalf("replayed Load = %q, %v, %v (later record must win)", got, ok, err)
	}
}

// TestStoreConcurrentAccess exercises parallel Load/Put under -race: the
// dispatch path loads concurrently while the commit path puts.
func TestStoreConcurrentAccess(t *testing.T) {
	s, err := Open(t.TempDir(), testSink())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("key-%d", i%8)
			if i%2 == 0 {
				if err := s.Put("st", i, key, []byte(key)); err != nil {
					t.Error(err)
				}
			} else {
				if _, ok, err := s.Load(key); ok && err == nil {
					if got, _, _ := s.Load(key); got != nil && string(got) != key {
						t.Errorf("Load(%s) = %q", key, got)
					}
				}
			}
		}(i)
	}
	wg.Wait()
}

// sharedStore writes payload under n keys ("k0".."kn-1") and reopens the
// store with a fresh sink, as a resumed run sees it.
func sharedStore(t *testing.T, n int, payload []byte) (*Store, *obs.Sink) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := s.Put("st", i, fmt.Sprint("k", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	sink := testSink()
	s, err = Open(dir, sink)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, sink
}

// counts returns the session's hit, read and quarantine counters.
func counts(sink *obs.Sink) (hits, reads, quarantined uint64) {
	snap := sink.Metrics.Snapshot()
	return snap.Counter("artifact.hits"), snap.Counter("artifact.reads"), snap.Counter("artifact.quarantined")
}

// TestStoreSharedBlobReadOnce: a blob the manifest names under N keys is
// read from disk once per session; every other load is served from the
// verified copy, and Close drops it.
func TestStoreSharedBlobReadOnce(t *testing.T) {
	const n = 5
	payload := []byte("identical derived-trial record")
	s, sink := sharedStore(t, n, payload)
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			got, ok, err := s.Load(fmt.Sprint("k", i))
			if err != nil || !ok || string(got) != string(payload) {
				t.Fatalf("Load(k%d) = %q, %v, %v", i, got, ok, err)
			}
			got[0] ^= 0xff // Load hands out a copy: the held bytes stay intact
		}
	}
	if h, r, q := counts(sink); h != 2*n || r != 1 || q != 0 {
		t.Errorf("hits %d, reads %d, quarantined %d; want %d, 1, 0", h, r, q, 2*n)
	}
	s.Close()
	for _, b := range s.blobs {
		if b.data != nil {
			t.Error("Close kept a held blob")
		}
	}
}

// TestStoreSingleKeyBlobNotHeld: a blob named by one key is not kept
// after its load, so each load reads it.
func TestStoreSingleKeyBlobNotHeld(t *testing.T) {
	s, sink := sharedStore(t, 1, []byte("unique record"))
	for i := 0; i < 2; i++ {
		if _, ok, err := s.Load("k0"); err != nil || !ok {
			t.Fatalf("Load = %v, %v", ok, err)
		}
		for _, b := range s.blobs {
			if b.data != nil {
				t.Fatal("single-key blob held after its load")
			}
		}
	}
	if h, r, _ := counts(sink); h != 2 || r != 2 {
		t.Errorf("hits %d, reads %d; want 2, 2", h, r)
	}
}

// TestStoreSharedBlobCorruptedBetweenSessions: a shared blob damaged
// after the session that verified it closed is caught on the next
// session's first load, quarantined, and repaired by the re-executed
// trials' Puts.
func TestStoreSharedBlobCorruptedBetweenSessions(t *testing.T) {
	const n = 3
	payload := []byte("shared record, corrupted at rest")
	s, _ := sharedStore(t, n, payload)
	for i := 0; i < n; i++ {
		if _, ok, err := s.Load(fmt.Sprint("k", i)); err != nil || !ok {
			t.Fatalf("clean Load(k%d) = %v, %v", i, ok, err)
		}
	}
	path, _ := s.BlobPath("k0")
	s.Close()
	data, _ := os.ReadFile(path)
	data[0] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	sink := testSink()
	s, err := Open(s.Dir(), sink)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var ae *Error
	if _, ok, err := s.Load("k0"); ok || !errors.As(err, &ae) || ae.Reason != "checksum mismatch" {
		t.Fatalf("first Load of corrupted blob = %v, %v; want checksum mismatch", ok, err)
	}
	// The blob is quarantined: its other keys fail too and re-execute.
	for i := 1; i < n; i++ {
		if _, ok, err := s.Load(fmt.Sprint("k", i)); ok || !errors.As(err, &ae) {
			t.Fatalf("Load(k%d) after quarantine = %v, %v; want *Error", i, ok, err)
		}
	}
	for i := 0; i < n; i++ {
		if err := s.Put("st", i, fmt.Sprint("k", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if got, ok, err := s.Load(fmt.Sprint("k", i)); err != nil || !ok || string(got) != string(payload) {
			t.Fatalf("repaired Load(k%d) = %q, %v, %v", i, got, ok, err)
		}
	}
	if h, r, q := counts(sink); h != n || r != 2 || q != n {
		t.Errorf("hits %d, reads %d, quarantined %d; want %d, 2, %d", h, r, q, n, n)
	}
}

// TestStoreEvictForgetsSharedBlob: once a load evicts a shared blob (here:
// its record does not decode), the session forgets it — the next load of
// another key reads the disk again, and the next Put of its bytes writes
// the blob again instead of trusting the session's earlier write.
func TestStoreEvictForgetsSharedBlob(t *testing.T) {
	payload := []byte("shared record")
	s, sink := sharedStore(t, 3, payload)
	if _, ok, err := s.Load("k0"); err != nil || !ok {
		t.Fatalf("Load(k0) = %v, %v", ok, err)
	}
	reject := func([]byte) error { return errors.New("not a record of this kind") }
	if ok, err := s.LoadInto("k1", reject); ok || err == nil {
		t.Fatalf("rejected LoadInto(k1) = %v, %v; want *Error", ok, err)
	}
	// k2 goes to disk again and finds the blob quarantined.
	var ae *Error
	if _, ok, err := s.Load("k2"); ok || !errors.As(err, &ae) || ae.Reason != "blob missing" {
		t.Fatalf("Load(k2) of an evicted blob = %v, %v; want blob missing", ok, err)
	}
	if _, r, q := counts(sink); r != 1 || q != 2 {
		t.Errorf("reads %d, quarantined %d; want 1, 2", r, q)
	}
	if err := s.Put("st", 1, "k1", payload); err != nil {
		t.Fatal(err)
	}
	path, _ := s.BlobPath("k1")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("Put after evict did not write the blob: %v", err)
	}
	if got, ok, err := s.Load("k1"); err != nil || !ok || string(got) != string(payload) {
		t.Fatalf("repaired Load(k1) = %q, %v, %v", got, ok, err)
	}
}

// TestStorePutSkipsKnownBlob: a blob this session already wrote is not
// stat'ed or written again by a later Put of the same bytes under another
// key; a new blob still is.
func TestStorePutSkipsKnownBlob(t *testing.T) {
	s, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("st", 0, "k0", []byte("same")); err != nil {
		t.Fatal(err)
	}
	path, _ := s.BlobPath("k0")
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("st", 1, "k1", []byte("same")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("Put rewrote a blob the session had written: stat err %v", err)
	}
	if err := s.Put("st", 2, "k2", []byte("other")); err != nil {
		t.Fatal(err)
	}
	if p, _ := s.BlobPath("k2"); p == path {
		t.Fatal("distinct payloads share a blob")
	} else if _, err := os.Stat(p); err != nil {
		t.Errorf("new blob not written: %v", err)
	}
}

// TestStoreSharedBlobConcurrentLoads runs parallel LoadInto calls on one
// shared blob under -race: every load sees the verified bytes, and the
// blob is read at most once per key however the loads interleave.
func TestStoreSharedBlobConcurrentLoads(t *testing.T) {
	const keys, loaders = 8, 32
	payload := []byte("shared by every key")
	s, sink := sharedStore(t, keys, payload)
	var wg sync.WaitGroup
	for i := 0; i < loaders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ok, err := s.LoadInto(fmt.Sprint("k", i%keys), func(b []byte) error {
				if string(b) != string(payload) {
					return fmt.Errorf("loaded %q", b)
				}
				return nil
			})
			if err != nil || !ok {
				t.Errorf("LoadInto(k%d) = %v, %v", i%keys, ok, err)
			}
		}(i)
	}
	wg.Wait()
	if h, r, q := counts(sink); h != loaders || r < 1 || r > loaders || q != 0 {
		t.Errorf("hits %d, reads %d, quarantined %d; want %d, 1..%d, 0", h, r, q, loaders, loaders)
	}
}
