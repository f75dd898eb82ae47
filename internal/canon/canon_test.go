package canon

import (
	"encoding/json"
	"math"
	"testing"
)

// TestNumbersMatchJSON: a number the Reader accepts decodes to the value
// encoding/json decodes; every number it refuses is one encoding/json
// either rejects or never writes.
func TestNumbersMatchJSON(t *testing.T) {
	canonical := map[string]bool{
		"0": true, "7": true, "255": true, "-1": true,
		"9223372036854775807": true, "-9223372036854775808": true, "18446744073709551615": true,
	}
	for _, in := range []string{
		"0", "7", "255", "256", "-1", "-0", "01", "00", "+1", "1.0", "1e2", "-", "", " 1",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"18446744073709551615", "18446744073709551616",
	} {
		var wantInt int
		intErr := json.Unmarshal([]byte(in), &wantInt)
		r := NewReader([]byte(in))
		if got := r.Int(); r.Done() {
			if intErr != nil || got != wantInt {
				t.Errorf("Int(%q) = %d, encoding/json (%d, %v)", in, got, wantInt, intErr)
			}
		} else if intErr == nil && canonical[in] {
			t.Errorf("Int refused canonical %q", in)
		}
		var wantU uint64
		uErr := json.Unmarshal([]byte(in), &wantU)
		r = NewReader([]byte(in))
		if got := r.Uint(math.MaxUint64); r.Done() {
			if uErr != nil || got != wantU {
				t.Errorf("Uint(%q) = %d, encoding/json (%d, %v)", in, got, wantU, uErr)
			}
		} else if uErr == nil && canonical[in] {
			t.Errorf("Uint refused canonical %q", in)
		}
		var wantB uint8
		bErr := json.Unmarshal([]byte(in), &wantB)
		r = NewReader([]byte(in))
		if got := r.Uint(math.MaxUint8); r.Done() && (bErr != nil || uint8(got) != wantB) {
			t.Errorf("Uint(%q, 255) = %d, encoding/json (%d, %v)", in, got, wantB, bErr)
		}
	}
}

// TestStrAndPlain: Str takes only strings that need no escape; a Plain
// string is one encoding/json writes unchanged.
func TestStrAndPlain(t *testing.T) {
	for _, s := range []string{"", "abc", "a=b", "x<y", "a&b", `q"`, `b\`, "tab\t", "é", "\xff", " "} {
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if Plain(s) && string(enc) != `"`+s+`"` {
			t.Errorf("Plain(%q) = %v, encoding/json writes %s", s, Plain(s), enc)
		}
		r := NewReader(enc)
		if b := r.Str(); r.Done() && string(b) != s {
			t.Errorf("Str(%s) = %q, want %q", enc, b, s)
		} else if !r.Done() && Plain(s) {
			t.Errorf("Str refused plain %s", enc)
		}
	}
}
