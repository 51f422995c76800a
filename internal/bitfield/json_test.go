package bitfield

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestValueJSONRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		v    Value
		want string
	}{
		{Value{}, `{"w":0}`},
		{New(0), `{"w":0}`},
		{FromUint(1, 1), `{"w":1,"b":"AQ=="}`},
		{New(8), `{"w":8,"b":"AA=="}`},
		{FromUint(9, 1), `{"w":9,"b":"AAE="}`},
		{FromUint(48, 0x0a0b0c0d0e0f), `{"w":48,"b":"CgsMDQ4P"}`},
	} {
		got, err := json.Marshal(tc.v)
		if err != nil || string(got) != tc.want {
			t.Errorf("Marshal(%v) = %s, %v; want %s", tc.v, got, err, tc.want)
			continue
		}
		var back Value
		if err := json.Unmarshal(got, &back); err != nil {
			t.Errorf("Unmarshal(%s): %v", got, err)
			continue
		}
		if back.Width() != tc.v.Width() || !back.EqualBits(tc.v) {
			t.Errorf("Unmarshal(%s) = %v (width %d), want %v", got, back, back.Width(), tc.v)
		}
	}
}

// TestValueJSONRejectsMalformed covers the two shape rules — no negative
// width, and exactly ceil(w/8) bytes — so untrusted input can neither panic
// New nor make it allocate more than the input carries. Inputs that are not
// a value object at all fail in encoding/json instead.
func TestValueJSONRejectsMalformed(t *testing.T) {
	for _, tc := range []struct {
		in    string
		shape bool // rejected by the shape rules, not by the JSON decoder
	}{
		{`{"w":-1}`, true},
		{`{"w":-8,"b":"AA=="}`, true},
		{`{"w":1}`, true},
		{`{"w":8,"b":null}`, true},
		{`{"w":9,"b":"AQ=="}`, true},
		{`{"w":7,"b":"AAE="}`, true},
		{`{"w":0,"b":"AA=="}`, true},
		{`{"w":1000000000000}`, true},
		{`{"w":9223372036854775807}`, true},
		{`{"w":"8"}`, false},
		{`{"w":8,"b":"!!"}`, false},
		{`[8]`, false},
	} {
		var v Value
		err := json.Unmarshal([]byte(tc.in), &v)
		switch {
		case err == nil:
			t.Errorf("Unmarshal(%s) accepted %v", tc.in, v)
		case tc.shape && !strings.Contains(err.Error(), "bitfield: malformed value"):
			t.Errorf("Unmarshal(%s): %v, want a bitfield shape error", tc.in, err)
		}
	}
}

// TestValueJSONClampsTopBits checks that bits above the width in the first
// byte are cleared on decode, like FromBytes, so re-encoding is canonical.
func TestValueJSONClampsTopBits(t *testing.T) {
	var v Value
	if err := json.Unmarshal([]byte(`{"w":4,"b":"/w=="}`), &v); err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(v)
	if string(got) != `{"w":4,"b":"Dw=="}` {
		t.Fatalf("re-encoded %s, want the top bits cleared", got)
	}
}
