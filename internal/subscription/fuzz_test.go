package subscription

import "testing"

// FuzzParse hardens the constraint parser: arbitrary input must either
// parse into a valid subscription or return an error — never panic, never
// produce out-of-domain ranges.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"x == 5",
		"x in [1,2] && y >= 3",
		"true",
		"",
		"x in [,]",
		"x <= 999999999999999999999",
		"x && y",
		"x in [5",
		"&& && &&",
		"x == 5 && x == 6",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	schema := MustSchema(8, "x", "y")
	f.Fuzz(func(t *testing.T, expr string) {
		s, err := Parse(schema, expr)
		if err != nil {
			return
		}
		for i := 0; i < schema.NumAttrs(); i++ {
			r := s.Range(i)
			if r.Lo > r.Hi || r.Hi > schema.MaxValue() {
				t.Fatalf("parsed invalid range %+v from %q", r, expr)
			}
		}
		// Whatever parses must render and re-parse to the same thing.
		back, err := Parse(schema, s.String())
		if err != nil {
			t.Fatalf("render of %q does not re-parse: %v", expr, err)
		}
		if !back.Equal(s) {
			t.Fatalf("render roundtrip changed %q: %v vs %v", expr, s, back)
		}
	})
}

// FuzzParseEvent hardens the event parser the same way.
func FuzzParseEvent(f *testing.F) {
	for _, s := range []string{
		"x = 1, y = 2",
		"x = 1",
		"x = , y = 2",
		"x == 1, y = 2",
		"x = 999, y = 0",
	} {
		f.Add(s)
	}
	schema := MustSchema(8, "x", "y")
	f.Fuzz(func(t *testing.T, expr string) {
		e, err := ParseEvent(schema, expr)
		if err != nil {
			return
		}
		if len(e) != 2 {
			t.Fatalf("parsed event with %d attributes from %q", len(e), expr)
		}
		for _, v := range e {
			if v > schema.MaxValue() {
				t.Fatalf("parsed out-of-domain value %d from %q", v, expr)
			}
		}
	})
}

// FuzzUnmarshalSubscription hardens the wire decoder against arbitrary
// bytes: decode either fails or yields a subscription that re-encodes to
// an equivalent payload.
func FuzzUnmarshalSubscription(f *testing.F) {
	schema := MustSchema(8, "x", "y")
	good, _ := MustParse(schema, "x in [3,7] && y in [1,200]").MarshalBinary()
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0x51, 2, 8, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := UnmarshalSubscription(schema, data)
		if err != nil {
			return
		}
		re, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		back, err := UnmarshalSubscription(schema, re)
		if err != nil || !back.Equal(s) {
			t.Fatalf("re-marshal roundtrip broken")
		}
	})
}
