package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"stmdiag/internal/artifact"
	"stmdiag/internal/cache"
	"stmdiag/internal/canon"
	"stmdiag/internal/cbi"
	"stmdiag/internal/isa"
	"stmdiag/internal/pmu"
	"stmdiag/internal/vm"
)

// jsonLoadOutcome is loadOutcome through encoding/json alone: the decode
// the trial codec must reproduce for every input.
func jsonLoadOutcome[T any](label string, i int, data []byte) (trialOutcome[T], error) {
	var rec storedRecord[T]
	if err := json.Unmarshal(data, &rec); err != nil {
		return trialOutcome[T]{}, err
	}
	o, accepted := respOutcome[T](label, i, &rec.TrialResponse)
	if accepted {
		o.val, o.ok = rec.Value, true
	}
	return o, nil
}

// checkCodecDecode holds the codec's value and record readers to
// encoding/json on data: the same value, and an error exactly when
// encoding/json errs.
func checkCodecDecode[T any](t *testing.T, data []byte) {
	t.Helper()
	var got, want T
	gerr := unmarshalValue(data, &got, map[string]string{})
	werr := json.Unmarshal(data, &want)
	if (gerr == nil) != (werr == nil) || !reflect.DeepEqual(got, want) {
		t.Errorf("%T value from %q: codec (%+v, %v), encoding/json (%+v, %v)", want, data, got, gerr, want, werr)
	}
	o, gerr := loadOutcome[T]("fz", 1, data, nil)
	w, werr := jsonLoadOutcome[T]("fz", 1, data)
	if (gerr == nil) != (werr == nil) || o.ok != w.ok || !reflect.DeepEqual(o.val, w.val) ||
		fmt.Sprint(o.err) != fmt.Sprint(w.err) || !reflect.DeepEqual(o.degraded, w.degraded) ||
		!reflect.DeepEqual(o.resp, w.resp) {
		t.Errorf("%T record %q: codec (%+v, %v), encoding/json (%+v, %v)", want, data, o, gerr, w, werr)
	}
}

// FuzzTrialCodec: for any bytes, the trial codec's readers — the uint64,
// vm.Profile and cbi.RunObs values and the stored record envelope around
// each — decode what encoding/json decodes and fail where it fails.
func FuzzTrialCodec(f *testing.F) {
	for _, seed := range []string{
		`0`, `18446744073709551615`, `18446744073709551616`, `-1`, `01`, `1.5`, `1e3`, ` 7`, `null`,
		`{"Site":3,"Thread":0,"Success":false,"Branches":[{"From":1,"To":2,"Class":1,"Kernel":false}],"Coherence":null}`,
		`{"Site":-9223372036854775808,"Thread":9223372036854775807,"Success":true,"Branches":[],"Coherence":[{"PC":4,"Kind":1,"State":3,"Kernel":true},{"PC":5,"Kind":0,"State":255,"Kernel":false}]}`,
		`{"Site":-0,"Thread":0,"Success":true,"Branches":null,"Coherence":null}`,
		`{"Site":1,"Thread":0,"Success":true,"Branches":[{"From":1,"To":2,"Class":256,"Kernel":false}],"Coherence":null}`,
		`{"site":1,"Thread":0,"Success":true,"Branches":null,"Coherence":null}`,
		`{"Failed":true,"Observed":{"a=0":true,"a=1":true,"b=1":false},"True":{"a=1":true}}`,
		`{"Failed":false,"Observed":{},"True":null}`,
		`{"Failed":false,"Observed":{"a=1":true,"a=1":false},"True":{}}`,
		`{"Failed":false,"Observed":{"a=01":true},"True":{"a=+1":true}}`,
		`{"Failed":false,"Observed":{"x<y=1":true,"noedge":true},"True":{}}`,
		`{"Failed":false,"Observed":{"a=256":true},"True":{"==1":true}}`,
		`{"value":42,"ok":true}`, `{}`, `{"ok":true,"value":42}`, `{"value":42}`, `{"value":42,"ok":true} `,
		`{"value":{"Failed":true,"Observed":{"a=1":true},"True":{"a=1":true}},"ok":true}`,
		`{"value":{"Site":1,"Thread":2,"Success":false,"Branches":[],"Coherence":[]},"ok":true}`,
		`{"value":"x","ok":true}`, `{"err":"boom"}`, `{"degraded":{"attempts":2,"panic":"p"}}`, `not json`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCodecDecode[uint64](t, data)
		checkCodecDecode[vm.Profile](t, data)
		checkCodecDecode[cbi.RunObs](t, data)
	})
}

// hostileBranches are branch names encoding/json must escape or repair,
// and plain ones the codec writes itself.
var hostileBranches = []string{
	"a", "b_1", "wk_cond", "a=b", "=", "", "x<&>y", `q"uote`, `back\slash`,
	"line\u2028sep", "bad\xffutf8", "tab\there", "é", "sp ace", "{}[]:,",
}

func randInt(r *rand.Rand) int {
	switch r.Intn(5) {
	case 0:
		return math.MaxInt
	case 1:
		return math.MinInt
	case 2:
		return -r.Intn(1000)
	}
	return r.Intn(1 << 20)
}

func randProfile(r *rand.Rand) vm.Profile {
	p := vm.Profile{Site: randInt(r), Thread: randInt(r), Success: r.Intn(2) == 0}
	if n := r.Intn(20) - 2; n >= 0 {
		p.Branches = make([]pmu.BranchRecord, n)
		for i := range p.Branches {
			p.Branches[i] = pmu.BranchRecord{From: randInt(r), To: randInt(r),
				Class: isa.BranchClass(r.Intn(256)), Kernel: r.Intn(2) == 0}
		}
	}
	if n := r.Intn(20) - 2; n >= 0 {
		p.Coherence = make([]pmu.CoherenceEvent, n)
		for i := range p.Coherence {
			p.Coherence[i] = pmu.CoherenceEvent{PC: randInt(r), Kind: cache.AccessKind(r.Intn(256)),
				State: cache.State(r.Intn(256)), Kernel: r.Intn(2) == 0}
		}
	}
	return p
}

func randPreds(r *rand.Rand, names []string) map[cbi.Pred]bool {
	n := r.Intn(12) - 2
	if n < 0 {
		return nil
	}
	m := make(map[cbi.Pred]bool, n)
	for i := 0; i < n; i++ {
		edge := isa.BranchEdge(r.Intn(2))
		if r.Intn(8) == 0 {
			edge = isa.BranchEdge(r.Intn(256))
		}
		m[cbi.Pred{Branch: names[r.Intn(len(names))], Edge: edge}] = r.Intn(4) != 0
	}
	return m
}

// TestCodecEncodesLikeJSON: the codec's writers produce json.Marshal's
// bytes for random values, hostile branch names included; its readers
// take canonical bytes without falling back and decode them to the value
// encoding/json decodes.
func TestCodecEncodesLikeJSON(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	plain := hostileBranches[:6]
	for i := 0; i < 2000; i++ {
		names := plain
		if i%2 == 1 {
			names = hostileBranches
		}
		ro := cbi.RunObs{Failed: r.Intn(2) == 0, Observed: randPreds(r, names), True: randPreds(r, names)}
		checkEncode(t, randProfile(r), true)
		checkEncode(t, ro, i%2 == 0)
		checkEncode(t, r.Uint64()>>uint(r.Intn(64)), true)
	}
}

func checkEncode[T any](t *testing.T, v T, canonical bool) {
	t.Helper()
	got, gerr := marshalValue(v)
	want, werr := json.Marshal(v)
	if gerr != nil || werr != nil || !bytes.Equal(got, want) {
		t.Fatalf("%T %+v: codec %s (%v), json.Marshal %s (%v)", v, v, got, gerr, want, werr)
	}
	var back, jsonBack T
	if err := unmarshalValue(got, &back, nil); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got, &jsonBack); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, jsonBack) {
		t.Fatalf("%T %s: codec decodes %+v, encoding/json %+v", v, got, back, jsonBack)
	}
	if canonical {
		var x T
		r := canon.NewReader(got)
		if !readValue(&r, &x, nil) || !r.Done() {
			t.Fatalf("%T: the canonical reader refused json.Marshal's bytes %s", v, got)
		}
	}
	for _, resp := range []*TrialResponse{{Value: got, OK: true}, {}} {
		rec, err := encodeStored(resp)
		if want, werr := json.Marshal(resp); err != nil || werr != nil || !bytes.Equal(rec, want) {
			t.Fatalf("stored %+v: codec %s (%v), json.Marshal %s (%v)", resp, rec, err, want, werr)
		}
	}
}

// TestNonCanonicalRecordLoads: a stored record encoding/json wrote
// differently — keys reordered, whitespace — is no codec record, yet it
// loads like the canonical one: all hits, nothing quarantined, the same
// results.
func TestNonCanonicalRecordLoads(t *testing.T) {
	const n = 3
	want, err := MapKind[uint64](NewPool(1, nil), n, "nc/ov", "mean-cycles", ovParams())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(ovParams())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := artifact.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rec := fmt.Sprintf(`{"ok":true,"value":%d}`, want[i])
		if i == 1 {
			rec = fmt.Sprintf("{ \"value\" : %d ,\n \"ok\" : true }", want[i])
		}
		req := &TrialRequest{Stream: "nc/ov", Index: i, Kind: "mean-cycles", Params: raw}
		if err := store.Put(req.Stream, i, requestKey(req), []byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	store.Close()
	sink := testWireSink()
	st, err := artifact.Open(dir, sink)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got, err := MapKind[uint64](NewPool(1, sink).WithArtifacts(st), n, "nc/ov", "mean-cycles", ovParams())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("results %v, want %v", got, want)
	}
	snap := sink.Metrics.Snapshot()
	if h, q := snap.Counter("artifact.hits"), snap.Counter("artifact.quarantined"); h != n || q != 0 {
		t.Errorf("hits %d, quarantined %d; want %d, 0", h, q, n)
	}
}

// TestSessionParamsOncePerFanout: a session decodes and resolves a
// kind's params once for as long as they repeat, afresh when they change,
// keeps one entry per kind, and keeps no failure.
func TestSessionParamsOncePerFanout(t *testing.T) {
	var s session
	params := func(app string, seed int64) json.RawMessage {
		raw, err := json.Marshal(meanCyclesParams{App: app, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	first, err := sessionParams[meanCyclesParams](&s, "mean-cycles", params("sort", 1))
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := sessionParams[meanCyclesParams](&s, "mean-cycles", params("sort", 1)); again != first {
		t.Error("repeated params decoded again")
	}
	other, _ := sessionParams[meanCyclesParams](&s, "mean-cycles", params("sort", 2))
	if other == first || other.P.Seed != 2 || other.k.app != first.k.app || len(s.params.last) != 1 {
		t.Errorf("changed params: %+v, %d entries; want a fresh seed-2 value for the same app, 1 entry", other, len(s.params.last))
	}
	for _, bad := range []json.RawMessage{json.RawMessage("x"), params("no-such-app", 2)} {
		if _, err := sessionParams[meanCyclesParams](&s, "mean-cycles", bad); err == nil {
			t.Errorf("params %s resolved", bad)
		}
	}
	if kept, _ := sessionParams[meanCyclesParams](&s, "mean-cycles", params("sort", 2)); kept != other {
		t.Error("a failed decode replaced the kept params")
	}
	if fresh, _ := sessionParams[meanCyclesParams](nil, "mean-cycles", params("sort", 2)); fresh == other {
		t.Error("a nil session returned kept params")
	}
}
