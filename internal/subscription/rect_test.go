package subscription

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// checkRect checks every promise Rect makes for a and b, two subscriptions
// of one schema: the round trip back to a subscription, the point written
// from the packed form, and covering.
func checkRect(t *testing.T, a, b *Subscription) {
	t.Helper()
	schema := a.Schema()
	ra, rb := a.Rect(), b.Rect()
	if back := ra.Subscription(schema); !back.Equal(a) {
		t.Fatalf("%v: Rect round trip gives %v", a, back)
	}
	var buf [2 * MaxAttrs]uint32
	if p := ra.PointInto(schema, buf[:]); !slices.Equal(p, a.Point()) {
		t.Fatalf("%v: PointInto = %v, Point = %v", a, p, a.Point())
	}
	if got, want := ra.Covers(rb), a.Covers(b); got != want {
		t.Fatalf("Rect(%v).Covers(Rect(%v)) = %v, Covers says %v", a, b, got, want)
	}
	if got, want := ra == rb, a.Equal(b); got != want {
		t.Fatalf("Rect(%v) == Rect(%v) is %v, Equal says %v", a, b, got, want)
	}
}

// rectFromWords builds a subscription of schema from words, two per
// attribute reduced to the domain, the missing ones zero.
func rectFromWords(schema *Schema, words []uint32) *Subscription {
	s := New(schema)
	for i := 0; i < schema.NumAttrs(); i++ {
		var lo, hi uint32
		if 2*i+1 < len(words) {
			lo, hi = words[2*i]&schema.MaxValue(), words[2*i+1]&schema.MaxValue()
		}
		s.setRangeAt(i, Range{Lo: min(lo, hi), Hi: max(lo, hi)})
	}
	return s
}

func TestRectRoundTrip(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	rng := rand.New(rand.NewSource(40))
	for _, shape := range []struct{ bits, attrs int }{{16, 8}, {1, 1}, {10, 2}, {16, 1}, {3, 8}} {
		t.Run(fmt.Sprintf("%dx%d", shape.attrs, shape.bits), func(t *testing.T) {
			schema := MustSchema(shape.bits, names[:shape.attrs]...)
			top := schema.MaxValue()
			// The edges of the domain first, then random rectangles.
			var subs []*Subscription
			for _, r := range []Range{{0, top}, {0, 0}, {top, top}, {0, top / 2}, {top / 2, top}, {1, top - 1}} {
				s := New(schema)
				for i := 0; i < shape.attrs; i++ {
					s.setRangeAt(i, Range{Lo: min(r.Lo, r.Hi), Hi: r.Hi})
				}
				subs = append(subs, s)
			}
			for range 40 {
				words := make([]uint32, 2*shape.attrs)
				for i := range words {
					words[i] = rng.Uint32()
				}
				subs = append(subs, rectFromWords(schema, words))
			}
			for _, a := range subs {
				for _, b := range subs {
					checkRect(t, a, b)
				}
			}
		})
	}
}

// FuzzRect drives checkRect with a fuzzer-chosen schema (1–8 attributes
// of 1–16 bits) and two rectangles read from the fuzzer's bytes.
func FuzzRect(f *testing.F) {
	edges := make([]byte, 0, 128)
	for range 16 {
		edges = binary.LittleEndian.AppendUint32(edges, 0)
		edges = binary.LittleEndian.AppendUint32(edges, 0xFFFF)
	}
	f.Add(uint8(15), uint8(7), edges)
	f.Add(uint8(0), uint8(0), []byte{1, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(9), uint8(1), []byte{3, 0, 0, 0, 7, 0, 0, 0, 1, 0, 0, 0, 9, 0, 0, 0})
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	f.Fuzz(func(t *testing.T, bits, attrs uint8, data []byte) {
		schema := MustSchema(1+int(bits)%MaxBits, names[:1+int(attrs)%MaxAttrs]...)
		words := make([]uint32, 0, len(data)/4)
		for ; len(data) >= 4; data = data[4:] {
			words = append(words, binary.LittleEndian.Uint32(data))
		}
		half := 2 * schema.NumAttrs()
		a := rectFromWords(schema, words)
		b := rectFromWords(schema, words[min(half, len(words)):])
		checkRect(t, a, b)
		checkRect(t, b, a)
		checkRect(t, a, a)
	})
}
