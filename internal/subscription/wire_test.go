package subscription

import (
	"math/rand"
	"slices"
	"testing"
)

func TestSubscriptionWireRoundTrip(t *testing.T) {
	schema := MustSchema(12, "a", "b", "c")
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		s := New(schema)
		for _, attr := range schema.Attrs() {
			lo := uint32(rng.Intn(4096))
			hi := lo + uint32(rng.Intn(int(4096-lo)))
			if err := s.SetRange(attr, lo, hi); err != nil {
				t.Fatal(err)
			}
		}
		data, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalSubscription(schema, data)
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if !back.Equal(s) {
			t.Fatalf("roundtrip %v -> %v", s, back)
		}
	}
}

func TestEventWireRoundTrip(t *testing.T) {
	schema := MustSchema(10, "x", "y")
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		e := Event{uint32(rng.Intn(1024)), uint32(rng.Intn(1024))}
		data, err := e.MarshalBinary(schema)
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalEvent(schema, data)
		if err != nil {
			t.Fatal(err)
		}
		if back[0] != e[0] || back[1] != e[1] {
			t.Fatalf("roundtrip %v -> %v", e, back)
		}
	}
}

func TestWireRejectsCorruptPayloads(t *testing.T) {
	schema := MustSchema(8, "x", "y")
	s := MustParse(schema, "x in [3,7] && y in [1,200]")
	good, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"empty":          {},
		"too short":      good[:2],
		"wrong type":     append([]byte{0x45}, good[1:]...),
		"wrong beta":     append([]byte{good[0], 9}, good[2:]...),
		"wrong bits":     append([]byte{good[0], good[1], 13}, good[3:]...),
		"truncated body": good[:len(good)-1],
		"trailing bytes": append(append([]byte{}, good...), 0x00),
	}
	for name, data := range cases {
		if _, err := UnmarshalSubscription(schema, data); err == nil {
			t.Errorf("%s: expected decode error", name)
		}
	}

	// Inverted range in an otherwise valid payload.
	bad := []byte{good[0], 2, 8}
	bad = append(bad, 200, 1) // lo=200 (varint single byte? 200 > 127...)
	// Build explicitly with known-small varints: lo=5, hi=3 (inverted).
	bad = []byte{good[0], 2, 8, 5, 3, 0, 0}
	if _, err := UnmarshalSubscription(schema, bad); err == nil {
		t.Error("inverted range should fail")
	}
	// Out-of-domain value in an event.
	evBad := []byte{0x45, 2, 8, 255, 10, 1}           // 255+... varint 255 needs 2 bytes
	evBad = append([]byte{0x45, 2, 8}, 0xFF, 0x07, 1) // value 1023 > 255
	if _, err := UnmarshalEvent(schema, evBad); err == nil {
		t.Error("out-of-domain event value should fail")
	}

	if _, err := (Event{1}).MarshalBinary(schema); err == nil {
		t.Error("wrong arity event marshal should fail")
	}
	if _, err := UnmarshalEvent(schema, good); err == nil {
		t.Error("subscription payload decoded as event")
	}
}

func TestWireCrossSchemaRejected(t *testing.T) {
	a := MustSchema(8, "x", "y")
	b := MustSchema(10, "x", "y")
	c := MustSchema(8, "x", "y", "z")
	s := MustParse(a, "x in [1,2]")
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalSubscription(b, data); err == nil {
		t.Error("different bits must be rejected")
	}
	if _, err := UnmarshalSubscription(c, data); err == nil {
		t.Error("different attribute count must be rejected")
	}
}

// TestAppendAndDecodeIntoForms pins the buffer-reusing codec forms against
// the allocating ones: same bytes out, same subscription (and transformed
// point) in, nothing allocated once the buffers exist, and the bound
// MaxWireLen promises.
func TestAppendAndDecodeIntoForms(t *testing.T) {
	schema := MustSchema(16, "a", "b", "c", "d", "e", "f", "g", "h")
	widest := New(schema)
	for _, attr := range schema.Attrs() {
		if err := widest.SetRange(attr, schema.MaxValue()-1, schema.MaxValue()); err != nil {
			t.Fatal(err)
		}
	}
	narrow := MustParse(schema, "a in [3,7] && h <= 9")
	prefix := []byte("frame:")
	scratch := New(schema)
	for _, s := range []*Subscription{widest, narrow} {
		want, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if len(want) > MaxWireLen {
			t.Fatalf("encoding is %d bytes, MaxWireLen promises %d", len(want), MaxWireLen)
		}
		got, err := s.AppendBinary(prefix)
		if err != nil || string(got) != "frame:"+string(want) {
			t.Fatalf("AppendBinary = %x, %v; want the prefix followed by %x", got, err, want)
		}
		if err := UnmarshalSubscriptionInto(scratch, want); err != nil {
			t.Fatal(err)
		}
		if !scratch.Equal(s) || !slices.Equal(scratch.Point(), s.Point()) {
			t.Fatalf("decode-into %v -> %v", s, scratch)
		}
	}
	payload, _ := narrow.MarshalBinary()
	buf := make([]byte, 0, MaxWireLen)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := narrow.AppendBinary(buf); err != nil {
			t.Fatal(err)
		}
		if err := UnmarshalSubscriptionInto(scratch, payload); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("append + decode-into allocate %.1f times, want 0", allocs)
	}
	if err := UnmarshalSubscriptionInto(scratch, payload[:len(payload)-1]); err == nil {
		t.Error("decode-into accepted a truncated payload")
	}

	// An event decodes into the point-subscription that exactly it matches.
	e := Event{1, 2, 3, 4, 5, 6, 7, 65535}
	raw, err := e.AppendBinary(nil, schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := UnmarshalPointInto(scratch, raw); err != nil {
		t.Fatal(err)
	}
	for i, v := range e {
		if scratch.Range(i) != (Range{Lo: v, Hi: v}) {
			t.Fatalf("attribute %d decoded to %v, want exactly %d", i, scratch.Range(i), v)
		}
	}
	if !scratch.Matches(e) {
		t.Fatal("the point-subscription does not match its own event")
	}
}

func TestMarshalBatch(t *testing.T) {
	schema := MustSchema(10, "x", "y")
	var subs []*Subscription
	for i := uint32(0); i < 200; i++ {
		if i%7 == 3 {
			subs = append(subs, nil) // a slot its caller already failed
			continue
		}
		s := New(schema)
		if err := s.SetRange("x", i, i+500); err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	payloads, err := MarshalBatch(subs)
	if err != nil || len(payloads) != len(subs) {
		t.Fatalf("MarshalBatch = %d payloads, %v", len(payloads), err)
	}
	for i, s := range subs {
		if s == nil {
			if payloads[i] != nil {
				t.Fatalf("nil slot %d got payload %x", i, payloads[i])
			}
			continue
		}
		want, _ := s.MarshalBinary()
		if string(payloads[i]) != string(want) {
			t.Fatalf("payload %d = %x, want %x", i, payloads[i], want)
		}
		// Appending to one payload must not run into its neighbour.
		_ = append(payloads[i], 0xff)
	}
	for i, s := range subs {
		if s != nil {
			if back, err := UnmarshalSubscription(schema, payloads[i]); err != nil || !back.Equal(s) {
				t.Fatalf("payload %d corrupted by a neighbour's append: %v", i, err)
			}
		}
	}
}
