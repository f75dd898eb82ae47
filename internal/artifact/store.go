package artifact

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"stmdiag/internal/canon"
	"stmdiag/internal/faultinj"
	"stmdiag/internal/obs"
)

// Store layout under one directory:
//
//	MANIFEST                journal of {key, sha, size} entries, append-only
//	blobs/<aa>/<sha256>     content-addressed payloads (aa = first hex byte)
//	quarantine/             blobs evicted after a checksum mismatch
//
// Keys are caller-chosen identity hashes (the harness hashes the trial's
// stream/index/kind/params/fault tuple); blob names are the payload's own
// SHA-256, so identical results dedupe and every load is self-verifying.
const (
	manifestName  = "MANIFEST"
	blobsDir      = "blobs"
	quarantineDir = "quarantine"
	tmpPrefix     = ".tmp-"
)

// Error is the typed artifact fault: a stored trial result that failed
// verification (or could not be read back). It rides the same degradation
// path as harness.TrialError — the caller quarantines, re-executes the
// trial, and only gives up through the insufficient-evidence verdict.
type Error struct {
	Key    string // store key of the damaged entry
	Path   string // file that failed verification ("" if missing)
	Reason string // human-readable cause ("checksum mismatch", "blob missing", ...)
	Err    error  // underlying error, if any
}

func (e *Error) Error() string {
	msg := fmt.Sprintf("artifact %s: %s", short(e.Key), e.Reason)
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

func (e *Error) Unwrap() error { return e.Err }

// short abbreviates a hex key for messages.
func short(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// manifestEntry is one journal record: key → blob identity.
type manifestEntry struct {
	Key  string `json:"key"`
	SHA  string `json:"sha"`
	Size int64  `json:"size"`
}

// decodeManifestEntry is json.Unmarshal(rec, e) for a zero e. A canonical
// record — {"key":…,"sha":…,"size":N} exactly as json.Marshal writes it,
// which is every record Put appends — is read without reflection; any
// other record goes to encoding/json, so the entry and the error are
// encoding/json's for every input.
func decodeManifestEntry(rec []byte, e *manifestEntry) error {
	r := canon.NewReader(rec)
	r.Lit(`{"key":`)
	key := r.Str()
	r.Lit(`,"sha":`)
	sha := r.Str()
	r.Lit(`,"size":`)
	size := r.Int()
	r.Lit("}")
	if !r.Done() {
		return json.Unmarshal(rec, e)
	}
	// One allocation holds both strings.
	var buf [128]byte
	ks := string(append(append(buf[:0], key...), sha...))
	e.Key, e.SHA, e.Size = ks[:len(key)], ks[len(key):], int64(size)
	return nil
}

// Store is a content-addressed, checksummed result store. Put is called
// from the pool's commit scan (one goroutine, trial order); Load may be
// called concurrently from trial dispatch, so the index is read-locked.
type Store struct {
	dir      string
	manifest *Journal
	sink     *obs.Sink

	faults    faultinj.Spec
	faultSeed int64

	mu    sync.RWMutex
	index map[string]manifestEntry
	blobs map[string]*blob // by SHA: what this session knows of each blob

	puts, putBytes, hits, reads, misses, quarantined, putErrors *obs.Counter
}

// blob is one session's knowledge of a content address. A blob the index
// names under two or more keys (derived trials produce identical records)
// is held in memory once a load has verified it, so its repeat loads cost
// no read and no hash; a blob named once is never held. Held bytes live
// until Close or until an eviction of the blob.
type blob struct {
	refs  int    // index keys naming this blob
	known bool   // written or verified this session: Put skips writeBlob
	data  []byte // verified bytes, held while refs >= 2
	epoch int    // bumped by evict; a load that raced one marks nothing
}

// blob returns sha's session entry, creating it. Callers hold s.mu.
func (s *Store) blob(sha string) *blob {
	b := s.blobs[sha]
	if b == nil {
		b = &blob{}
		s.blobs[sha] = b
	}
	return b
}

// Open opens (creating if needed) the store rooted at dir. The manifest is
// scanned and salvaged like any journal: a torn tail is quarantined and the
// log truncated, so a SIGKILL mid-append costs at most the final record.
// Entries later in the manifest win, so a re-executed trial's fresh record
// shadows a quarantined one. sink may be nil; counters land under
// "artifact.*".
func Open(dir string, sink *obs.Sink) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, blobsDir), filepath.Join(dir, quarantineDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("artifact: create store dir: %w", err)
		}
	}
	j, recs, rep, err := OpenJournal(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	s := &Store{
		dir:      dir,
		manifest: j,
		sink:     sink,
		index:    make(map[string]manifestEntry, len(recs)),
		blobs:    make(map[string]*blob),

		puts:        sink.Counter("artifact.puts"),
		putBytes:    sink.Counter("artifact.put_bytes"),
		hits:        sink.Counter("artifact.hits"),
		reads:       sink.Counter("artifact.reads"),
		misses:      sink.Counter("artifact.misses"),
		quarantined: sink.Counter("artifact.quarantined"),
		putErrors:   sink.Counter("artifact.put_errors"),
	}
	dropped := 0
	for _, rec := range recs {
		var e manifestEntry
		if err := decodeManifestEntry(rec, &e); err != nil || e.Key == "" || e.SHA == "" {
			dropped++
			continue
		}
		s.index[e.Key] = e
	}
	for _, e := range s.index {
		s.blob(e.SHA).refs++
	}
	sink.Counter("artifact.scan_records").Add(uint64(len(recs)))
	if rep.Salvaged() {
		sink.Counter("artifact.salvaged_opens").Inc()
		sink.Counter("artifact.salvage_dropped_bytes").Add(uint64(rep.DroppedBytes))
	}
	if dropped > 0 {
		sink.Counter("artifact.manifest_rejects").Add(uint64(dropped))
	}
	return s, nil
}

// WithFaults arms the store-layer injectors (artifact-torn-write,
// artifact-corrupt, journal-trunc). Plans derive from (spec, seed, stream,
// trial) exactly like the capture layers, so injected store damage is
// byte-reproducible for any worker count.
func (s *Store) WithFaults(spec faultinj.Spec, seed int64) *Store {
	s.faults, s.faultSeed = spec, seed
	return s
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of loadable keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Put persists one trial result under key. stream and trial are the trial's
// identity coordinates, used only to derive the deterministic fault plan
// for the store layers. Duplicate keys are no-ops (the result is already
// durable), and a blob this session already wrote or verified is not
// written again. Put errors are counted, not fatal: losing durability must
// never fail the trial that produced the result.
func (s *Store) Put(stream string, trial int, key string, payload []byte) error {
	sum := sha256.Sum256(payload)
	sha := hex.EncodeToString(sum[:])
	s.mu.RLock()
	_, dup := s.index[key]
	b := s.blobs[sha]
	known := b != nil && b.known
	s.mu.RUnlock()
	if dup {
		return nil
	}
	plan := faultinj.NewPlan(s.faults, s.faultSeed, stream, trial, 0, s.sink)

	body := payload
	if plan.Hit(faultinj.ArtifactCorrupt) && len(payload) > 0 {
		// Silent media corruption: the blob lands with a flipped byte but
		// the manifest records the true hash, so a later Load catches it.
		body = append([]byte(nil), payload...)
		body[plan.TruncN(faultinj.ArtifactCorrupt, len(body))] ^= 0xff
	}
	if plan.Hit(faultinj.ArtifactTorn) {
		// Torn write: only a prefix reaches the final name.
		body = body[:plan.TruncN(faultinj.ArtifactTorn, len(body)+1)]
	}
	if !known {
		if err := s.writeBlob(sha, body); err != nil {
			s.putErrors.Inc()
			return &Error{Key: key, Reason: "write blob", Err: err}
		}
	}
	rec, err := json.Marshal(manifestEntry{Key: key, SHA: sha, Size: int64(len(payload))})
	if err != nil {
		s.putErrors.Inc()
		return &Error{Key: key, Reason: "encode manifest entry", Err: err}
	}
	keep := -1
	if plan.Hit(faultinj.JournalTrunc) {
		// Torn journal append: the frame is cut mid-record, exactly what a
		// SIGKILL during the write syscall leaves behind.
		keep = plan.TruncN(faultinj.JournalTrunc, len(rec)+frameHeader)
	}
	if err := s.manifest.appendPrefix(rec, keep); err != nil {
		s.putErrors.Inc()
		return &Error{Key: key, Reason: "append manifest", Err: err}
	}
	s.mu.Lock()
	if _, dup := s.index[key]; !dup {
		s.index[key] = manifestEntry{Key: key, SHA: sha, Size: int64(len(payload))}
		s.blob(sha).refs++
	}
	s.blob(sha).known = true
	s.mu.Unlock()
	s.puts.Inc()
	s.putBytes.Add(uint64(len(payload)))
	return nil
}

// writeBlob stores body under its content address via temp file + rename,
// so a concurrent or crashed writer can never expose a half-written blob
// under the final name (torn injected writes excepted — that is the point).
func (s *Store) writeBlob(sha string, body []byte) error {
	dir := filepath.Join(s.dir, blobsDir, sha[:2])
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	final := filepath.Join(dir, sha)
	if _, err := os.Stat(final); err == nil {
		return nil // content-addressed: already present
	}
	tmp, err := os.CreateTemp(dir, tmpPrefix)
	if err != nil {
		return err
	}
	if _, err := tmp.Write(body); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), final)
}

// Load fetches the payload stored under key. Returns (payload, true, nil)
// on a verified hit, (nil, false, nil) on a miss, and (nil, false, *Error)
// when the stored artifact failed verification — in which case the damaged
// blob has already been quarantined and the key forgotten, so the caller
// re-executes the trial and the fresh Put repairs the store.
func (s *Store) Load(key string) (data []byte, hit bool, err error) {
	hit, err = s.LoadInto(key, func(b []byte) error {
		data = append([]byte(nil), b...)
		return nil
	})
	return data, hit, err
}

// LoadInto is Load with the caller's decoding as part of verification: a
// checksum-valid payload that decode rejects is treated like a damaged
// one — quarantined, its key forgotten, an *Error returned — so the
// caller's re-execution and fresh Put repair the record instead of every
// later open tripping over it. A hit is counted only once decode accepts.
//
// A blob the index names under two or more keys is read and verified once
// per session and its later loads are served from memory, so decode must
// neither modify nor retain the bytes it is given.
func (s *Store) LoadInto(key string, decode func([]byte) error) (bool, error) {
	s.mu.RLock()
	e, ok := s.index[key]
	var data []byte
	epoch := 0
	if ok {
		b := s.blobs[e.SHA] // every indexed SHA has an entry
		data, epoch = b.data, b.epoch
	}
	s.mu.RUnlock()
	if !ok {
		s.misses.Inc()
		return false, nil
	}
	path := filepath.Join(s.dir, blobsDir, e.SHA[:2], e.SHA)
	if data == nil {
		var err error
		data, err = os.ReadFile(path)
		if err != nil {
			s.evict(key, "", e)
			return false, &Error{Key: key, Path: path, Reason: "blob missing", Err: err}
		}
		s.reads.Inc()
		sum := sha256.Sum256(data)
		var hx [2 * sha256.Size]byte
		hex.Encode(hx[:], sum[:])
		if string(hx[:]) != e.SHA || int64(len(data)) != e.Size {
			s.evict(key, path, e)
			return false, &Error{Key: key, Path: path, Reason: "checksum mismatch"}
		}
		s.mu.Lock()
		if b := s.blobs[e.SHA]; b.epoch == epoch {
			b.known = true
			if b.refs >= 2 {
				b.data = data
			}
		}
		s.mu.Unlock()
	}
	if err := decode(data); err != nil {
		s.evict(key, path, e)
		return false, &Error{Key: key, Path: path, Reason: "undecodable record", Err: err}
	}
	s.hits.Inc()
	return true, nil
}

// evict quarantines a damaged blob (when path != "") and forgets its key
// and the session's knowledge of the blob, so its other keys read it again
// (and fail again) and the next Put of its bytes writes it again. The
// manifest is not rewritten — the stale entry is shadowed by the fresh
// record the re-executed trial appends, and open-time replay keeps the
// last record per key.
func (s *Store) evict(key, path string, e manifestEntry) {
	if path != "" {
		os.Rename(path, filepath.Join(s.dir, quarantineDir, e.SHA))
	}
	s.mu.Lock()
	if cur, ok := s.index[key]; ok {
		delete(s.index, key)
		s.blobs[cur.SHA].refs--
	}
	if b := s.blobs[e.SHA]; b != nil {
		b.known, b.data = false, nil
		b.epoch++
	}
	s.mu.Unlock()
	s.quarantined.Inc()
}

// Close closes the manifest journal and drops the blobs the session held.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	for _, b := range s.blobs {
		b.data = nil
	}
	s.mu.Unlock()
	return s.manifest.Close()
}

// ManifestPath returns the manifest journal's path (tests truncate it to
// simulate kills at exact record boundaries).
func (s *Store) ManifestPath() string { return filepath.Join(s.dir, manifestName) }

// QuarantineDir returns the quarantine directory path.
func (s *Store) QuarantineDir() string { return filepath.Join(s.dir, quarantineDir) }

// BlobPath returns where the payload for key is stored, for tests that
// damage blobs directly. ok is false on a miss.
func (s *Store) BlobPath(key string) (string, bool) {
	s.mu.RLock()
	e, ok := s.index[key]
	s.mu.RUnlock()
	if !ok {
		return "", false
	}
	return filepath.Join(s.dir, blobsDir, e.SHA[:2], e.SHA), true
}
