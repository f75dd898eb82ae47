package harness

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strconv"

	"stmdiag/internal/cache"
	"stmdiag/internal/canon"
	"stmdiag/internal/cbi"
	"stmdiag/internal/isa"
	"stmdiag/internal/pmu"
	"stmdiag/internal/vm"
)

// This file is the trial codec: the bytes encoding/json writes for the hot
// trial values — vm.Profile (fail-, succ- and conc-profile), cbi.RunObs
// (cbi-run) and uint64 (mean-cycles) — and for the stored record envelope
// around them, written and read without reflection. The writers produce
// exactly json.Marshal's bytes, falling back to it for anything they do not
// cover (a branch name that needs escaping, any other value type). The
// readers accept only those canonical bytes and hand every other input to
// encoding/json, so the value decoded and whether decoding fails are
// encoding/json's for every input. Stored, wire and in-process bytes are
// therefore unchanged, and so is every result read from them.

// marshalValue is json.Marshal(v) for a trial result.
func marshalValue(v any) ([]byte, error) {
	switch x := v.(type) {
	case uint64:
		return strconv.AppendUint(nil, x, 10), nil
	case vm.Profile:
		return appendProfile(make([]byte, 0, 64+40*len(x.Branches)+48*len(x.Coherence)), &x), nil
	case cbi.RunObs:
		if b, ok := appendRunObs(nil, &x); ok {
			return b, nil
		}
	}
	return json.Marshal(v)
}

func appendProfile(b []byte, p *vm.Profile) []byte {
	b = strconv.AppendInt(append(b, `{"Site":`...), int64(p.Site), 10)
	b = strconv.AppendInt(append(b, `,"Thread":`...), int64(p.Thread), 10)
	b = strconv.AppendBool(append(b, `,"Success":`...), p.Success)
	b = append(b, `,"Branches":`...)
	if p.Branches == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, br := range p.Branches {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(append(b, `{"From":`...), int64(br.From), 10)
			b = strconv.AppendInt(append(b, `,"To":`...), int64(br.To), 10)
			b = strconv.AppendUint(append(b, `,"Class":`...), uint64(br.Class), 10)
			b = append(strconv.AppendBool(append(b, `,"Kernel":`...), br.Kernel), '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"Coherence":`...)
	if p.Coherence == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, ev := range p.Coherence {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(append(b, `{"PC":`...), int64(ev.PC), 10)
			b = strconv.AppendUint(append(b, `,"Kind":`...), uint64(ev.Kind), 10)
			b = strconv.AppendUint(append(b, `,"State":`...), uint64(ev.State), 10)
			b = append(strconv.AppendBool(append(b, `,"Kernel":`...), ev.Kernel), '}')
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendRunObs appends o's encoding, or reports false when a branch name
// needs escaping.
func appendRunObs(b []byte, o *cbi.RunObs) ([]byte, bool) {
	b = strconv.AppendBool(append(b, `{"Failed":`...), o.Failed)
	b, ok := appendPreds(append(b, `,"Observed":`...), o.Observed)
	if !ok {
		return nil, false
	}
	if b, ok = appendPreds(append(b, `,"True":`...), o.True); !ok {
		return nil, false
	}
	return append(b, '}'), true
}

// appendPreds appends a predicate set as encoding/json writes a map with
// text keys: members sorted by key text ("branch=edge").
func appendPreds(b []byte, m map[cbi.Pred]bool) ([]byte, bool) {
	if m == nil {
		return append(b, "null"...), true
	}
	type member struct {
		off, end int
		val      bool
	}
	text := make([]byte, 0, 16*len(m))
	members := make([]member, 0, len(m))
	for p, v := range m {
		if !canon.Plain(p.Branch) {
			return nil, false
		}
		off := len(text)
		text = strconv.AppendUint(append(append(text, p.Branch...), '='), uint64(p.Edge), 10)
		members = append(members, member{off, len(text), v})
	}
	slices.SortFunc(members, func(x, y member) int {
		return bytes.Compare(text[x.off:x.end], text[y.off:y.end])
	})
	b = append(b, '{')
	for i, mb := range members {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(append(append(b, '"'), text[mb.off:mb.end]...), `":`...)
		b = strconv.AppendBool(b, mb.val)
	}
	return append(b, '}'), true
}

// unmarshalValue is json.Unmarshal(data, v) for a trial result, with v
// pointing at a zero T. names interns predicate branch names (nil: none).
func unmarshalValue[T any](data []byte, v *T, names map[string]string) error {
	var x T
	r := canon.NewReader(data)
	if readValue(&r, &x, names) && r.Done() {
		*v = x
		return nil
	}
	return json.Unmarshal(data, v)
}

// readValue reads a canonical T into v, reporting false when T has no
// canonical reader. The caller checks r for a mismatch; v is then partial.
func readValue[T any](r *canon.Reader, v *T, names map[string]string) bool {
	switch p := any(v).(type) {
	case *uint64:
		*p = r.Uint(math.MaxUint64)
	case *vm.Profile:
		readProfile(r, p)
	case *cbi.RunObs:
		readRunObs(r, p, names)
	default:
		return false
	}
	return true
}

func readProfile(r *canon.Reader, p *vm.Profile) {
	r.Lit(`{"Site":`)
	p.Site = r.Int()
	r.Lit(`,"Thread":`)
	p.Thread = r.Int()
	r.Lit(`,"Success":`)
	p.Success = r.Bool()
	r.Lit(`,"Branches":`)
	if !r.Next("null") {
		r.Lit("[")
		p.Branches = make([]pmu.BranchRecord, 0, r.Count('{', ']'))
		for !r.Next("]") && r.OK() {
			if len(p.Branches) > 0 {
				r.Lit(",")
			}
			var br pmu.BranchRecord
			r.Lit(`{"From":`)
			br.From = r.Int()
			r.Lit(`,"To":`)
			br.To = r.Int()
			r.Lit(`,"Class":`)
			br.Class = isa.BranchClass(r.Uint(math.MaxUint8))
			r.Lit(`,"Kernel":`)
			br.Kernel = r.Bool()
			r.Lit("}")
			p.Branches = append(p.Branches, br)
		}
	}
	r.Lit(`,"Coherence":`)
	if !r.Next("null") {
		r.Lit("[")
		p.Coherence = make([]pmu.CoherenceEvent, 0, r.Count('{', ']'))
		for !r.Next("]") && r.OK() {
			if len(p.Coherence) > 0 {
				r.Lit(",")
			}
			var ev pmu.CoherenceEvent
			r.Lit(`{"PC":`)
			ev.PC = r.Int()
			r.Lit(`,"Kind":`)
			ev.Kind = cache.AccessKind(r.Uint(math.MaxUint8))
			r.Lit(`,"State":`)
			ev.State = cache.State(r.Uint(math.MaxUint8))
			r.Lit(`,"Kernel":`)
			ev.Kernel = r.Bool()
			r.Lit("}")
			p.Coherence = append(p.Coherence, ev)
		}
	}
	r.Lit("}")
}

func readRunObs(r *canon.Reader, o *cbi.RunObs, names map[string]string) {
	r.Lit(`{"Failed":`)
	o.Failed = r.Bool()
	r.Lit(`,"Observed":`)
	o.Observed = readPreds(r, names)
	r.Lit(`,"True":`)
	o.True = readPreds(r, names)
	r.Lit("}")
}

// readPreds reads a predicate set. A key reads only in the form
// Pred.MarshalText writes ("branch=edge", the edge a plain decimal), so
// distinct keys are distinct predicates and a repeated key's last value
// wins, as with encoding/json.
func readPreds(r *canon.Reader, names map[string]string) map[cbi.Pred]bool {
	if r.Next("null") {
		return nil
	}
	r.Lit("{")
	m := make(map[cbi.Pred]bool, r.Count('"', '}')/2)
	for !r.Next("}") && r.OK() {
		if len(m) > 0 {
			r.Lit(",")
		}
		key := r.Str()
		r.Lit(":")
		v := r.Bool()
		i := bytes.LastIndexByte(key, '=')
		if i < 0 {
			r.Fail()
			break
		}
		er := canon.NewReader(key[i+1:])
		edge := isa.BranchEdge(er.Uint(math.MaxUint8))
		if !er.Done() {
			r.Fail()
			break
		}
		m[cbi.Pred{Branch: intern(names, key[:i]), Edge: edge}] = v
	}
	return m
}

// intern returns b as a string, shared through names when it is non-nil.
func intern(names map[string]string, b []byte) string {
	if names == nil {
		return string(b)
	}
	if s, ok := names[string(b)]; ok {
		return s
	}
	s := string(b)
	names[s] = s
	return s
}

// storedEnvelope is the durable record of resp when it is one of the two
// envelopes a trial without telemetry leaves — {"value":V,"ok":true} for
// an accepted value, {} for a rejection — exactly as json.Marshal writes
// them. It reports false for any other response. resp.Value is already
// compact encoding/json output (marshalValue's, or a wire RawMessage
// encoding/json compacted), so it is copied as is.
func storedEnvelope(resp *TrialResponse) ([]byte, bool) {
	if resp.Err != "" || resp.Degraded != nil || resp.Metrics != nil || resp.Flight != nil ||
		resp.HasFlight || resp.Trace != nil || resp.OK != (len(resp.Value) > 0) {
		return nil, false
	}
	if !resp.OK {
		return []byte("{}"), true
	}
	b := append(append(make([]byte, 0, len(resp.Value)+22), `{"value":`...), resp.Value...)
	return append(b, `,"ok":true}`...), true
}

// readStored reads a canonical envelope (storedEnvelope's) into rec,
// reporting false for any other input.
func readStored[T any](data []byte, rec *storedRecord[T], names map[string]string) bool {
	if string(data) == "{}" {
		return true
	}
	r := canon.NewReader(data)
	r.Lit(`{"value":`)
	if !readValue(&r, &rec.Value, names) {
		return false
	}
	r.Lit(`,"ok":true}`)
	rec.OK = true
	return r.Done()
}
