// Package canon reads the exact bytes encoding/json produces for small
// fixed-shape records, without reflection, and tells which strings it
// writes unchanged, for writers of those bytes. A Reader accepts only
// those canonical bytes: fields in the encoder's order, no whitespace,
// plain decimal integers within range, and strings that need no escape.
// Callers fall back to encoding/json on the same bytes whenever a Reader
// refuses its input, so the decoded value — and whether decoding fails —
// is encoding/json's for every input, by construction.
package canon

import "strconv"

// Reader scans one canonical JSON document. Errors are sticky: after the
// first mismatch every method returns a zero value and Done reports
// false, so a record reader is a straight run of calls and one check.
type Reader struct {
	b   []byte
	off int
	bad bool
}

// NewReader returns a Reader positioned at the start of b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Done reports whether every byte was read with no mismatch.
func (r *Reader) Done() bool { return !r.bad && r.off == len(r.b) }

// OK reports whether no mismatch has occurred yet.
func (r *Reader) OK() bool { return !r.bad }

// Fail marks the input as not canonical.
func (r *Reader) Fail() { r.bad = true }

// Lit consumes the exact bytes s.
func (r *Reader) Lit(s string) {
	if r.bad || len(r.b)-r.off < len(s) || string(r.b[r.off:r.off+len(s)]) != s {
		r.bad = true
		return
	}
	r.off += len(s)
}

// Next consumes s if the input continues with it, and reports whether it
// did. A mismatch is not an error.
func (r *Reader) Next(s string) bool {
	if r.bad || len(r.b)-r.off < len(s) || string(r.b[r.off:r.off+len(s)]) != s {
		return false
	}
	r.off += len(s)
	return true
}

// Bool reads true or false.
func (r *Reader) Bool() bool {
	switch {
	case r.Next("true"):
		return true
	case r.Next("false"):
		return false
	}
	r.bad = true
	return false
}

// Uint reads a canonical unsigned decimal (no sign, no leading zero) no
// greater than max. A leading zero is the whole number, so the digits
// after it fail the caller's next read.
func (r *Reader) Uint(max uint64) uint64 {
	if r.bad || r.off == len(r.b) || r.b[r.off] < '0' || r.b[r.off] > '9' {
		r.bad = true
		return 0
	}
	if r.b[r.off] == '0' {
		r.off++
		return 0
	}
	var v uint64
	for r.off < len(r.b) && r.b[r.off] >= '0' && r.b[r.off] <= '9' {
		d := uint64(r.b[r.off] - '0')
		if d > max || v > (max-d)/10 {
			r.bad = true
			return 0
		}
		v = v*10 + d
		r.off++
	}
	return v
}

// Int reads a canonical decimal that fits an int. encoding/json never
// writes "-0", so it is refused.
func (r *Reader) Int() int {
	const maxInt = 1<<(strconv.IntSize-1) - 1
	if r.Next("-") {
		v := r.Uint(maxInt + 1)
		if v == 0 {
			r.bad = true
		}
		return int(-v)
	}
	return int(r.Uint(maxInt))
}

// Str reads a string literal whose bytes need no escape and no UTF-8
// check: printable ASCII other than '"' and '\\'. It returns the bytes
// between the quotes, aliasing the input.
func (r *Reader) Str() []byte {
	r.Lit(`"`)
	if r.bad {
		return nil
	}
	start := r.off
	for r.off < len(r.b) {
		c := r.b[r.off]
		if c == '"' {
			s := r.b[start:r.off]
			r.off++
			return s
		}
		if c < 0x20 || c > 0x7e || c == '\\' {
			break
		}
		r.off++
	}
	r.bad = true
	return nil
}

// Plain reports that encoding/json writes s between quotes unchanged: s
// is printable ASCII with no '"', '\\' or HTML-escaped '<', '>', '&'.
// (Some non-ASCII strings are written unchanged too; Plain refuses them.)
func Plain(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// Count counts the bytes c in the rest of the input up to the first end
// byte outside a string literal — a capacity hint for the array or object
// being read. Input that is not canonical can only skew the hint.
func (r *Reader) Count(c, end byte) int {
	n, in := 0, false
	for _, x := range r.b[r.off:] {
		if x == c {
			n++
		}
		switch {
		case x == '"':
			in = !in
		case x == end && !in:
			return n
		}
	}
	return n
}
