package artifact

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// FuzzManifestRecord: for any bytes, decodeManifestEntry gives the entry
// encoding/json gives, and fails exactly where it fails.
func FuzzManifestRecord(f *testing.F) {
	for _, seed := range []string{
		`{"key":"k","sha":"s","size":0}`,
		`{"key":"` + fmt.Sprintf("%064x", 7) + `","sha":"` + fmt.Sprintf("%064x", 9) + `","size":9223372036854775807}`,
		`{"key":"k","sha":"s","size":9223372036854775808}`,
		`{"key":"k","sha":"s","size":01}`, `{"key":"k","sha":"s","size":1.0}`,
		`{"key":"","sha":"","size":0}`, `{"key":"k","sha":"s"}`, `{"key":"k","sha":"s","size":1} `,
		`{"key":"a<b","sha":"s","size":1}`, `{"key":1,"sha":"s","size":1}`, `null`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		var got, want manifestEntry
		gerr := decodeManifestEntry(rec, &got)
		werr := json.Unmarshal(rec, &want)
		if (gerr == nil) != (werr == nil) || !reflect.DeepEqual(got, want) {
			t.Errorf("%q: decodeManifestEntry (%+v, %v), encoding/json (%+v, %v)", rec, got, gerr, want, werr)
		}
	})
}

// TestManifestNonCanonicalRecordsLoad: manifest records encoding/json
// wrote differently — keys reordered, whitespace — index their blobs like
// the canonical records Put appends.
func TestManifestNonCanonicalRecordsLoad(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testSink())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("payload")
	if err := s.Put("st", 0, "canonical", payload); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(payload)
	sha := hex.EncodeToString(sum[:])
	for _, rec := range []string{
		fmt.Sprintf(`{"sha":%q,"size":%d,"key":"reordered"}`, sha, len(payload)),
		fmt.Sprintf("{ \"key\" : \"spaced\",\n \"sha\" : %q, \"size\" : %d }", sha, len(payload)),
	} {
		if err := s.manifest.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	sink := testSink()
	s2, err := Open(dir, sink)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, key := range []string{"canonical", "reordered", "spaced"} {
		got, ok, err := s2.Load(key)
		if err != nil || !ok || string(got) != string(payload) {
			t.Errorf("Load(%q) = %q, %v, %v", key, got, ok, err)
		}
	}
	if n := sink.Metrics.Snapshot().Counter("artifact.manifest_rejects"); n != 0 {
		t.Errorf("%d manifest records rejected, want 0", n)
	}
}
