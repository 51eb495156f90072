// Package subscription models the content-based publish/subscribe data
// model of Section 1.1: messages (events) carry β numeric attributes;
// subscriptions are conjunctions of range constraints, one per attribute;
// and a subscription is a β-dimensional rectangle that matches all events
// whose points lie inside it.
//
// The package also provides the Edelsbrunner–Overmars transform [EO82] that
// turns covering between β-dimensional rectangles into dominance between
// 2β-dimensional points: subscription s = ([ℓ1,r1], ..., [ℓβ,rβ]) becomes
// the point p(s) = (2^k−1−ℓ1, r1, ..., 2^k−1−ℓβ, rβ), and s1 covers s2 iff
// p(s1) dominates p(s2) coordinate-wise.
package subscription

import (
	"fmt"
	"strings"
)

// Schema declares the attributes of a pub/sub domain. All attributes share
// the same k-bit discrete domain [0, 2^k−1], matching the paper's
// 2^k × ... × 2^k universe.
type Schema struct {
	names []string
	index map[string]int
	bits  int
}

// MaxBits and MaxAttrs bound a schema, so the 2β-dimensional transform
// fits a 32-dim key — and an attribute's two bounds fit one 32-bit word,
// a whole rectangle one small fixed-size array.
const (
	MaxBits  = 16
	MaxAttrs = 8
)

// NewSchema builds a schema with the given per-attribute resolution
// (1..MaxBits bits) and attribute names (at most MaxAttrs).
func NewSchema(bits int, attrs ...string) (*Schema, error) {
	if bits < 1 || bits > MaxBits {
		return nil, fmt.Errorf("subscription: bits %d out of range [1,%d]", bits, MaxBits)
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("subscription: schema needs at least one attribute")
	}
	if len(attrs) > MaxAttrs {
		return nil, fmt.Errorf("subscription: %d attributes exceed the supported maximum of %d", len(attrs), MaxAttrs)
	}
	s := &Schema{
		names: append([]string(nil), attrs...),
		index: make(map[string]int, len(attrs)),
		bits:  bits,
	}
	for i, a := range attrs {
		if a == "" {
			return nil, fmt.Errorf("subscription: attribute %d has empty name", i)
		}
		if _, dup := s.index[a]; dup {
			return nil, fmt.Errorf("subscription: duplicate attribute %q", a)
		}
		s.index[a] = i
	}
	return s, nil
}

// MustSchema is NewSchema for known-good literals.
func MustSchema(bits int, attrs ...string) *Schema {
	s, err := NewSchema(bits, attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Bits returns the per-attribute resolution k.
func (s *Schema) Bits() int { return s.bits }

// NumAttrs returns β, the number of attributes.
func (s *Schema) NumAttrs() int { return len(s.names) }

// Attrs returns the attribute names in declaration order.
func (s *Schema) Attrs() []string { return append([]string(nil), s.names...) }

// AttrIndex returns the position of the named attribute.
func (s *Schema) AttrIndex(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// MaxValue returns the largest attribute value, 2^k − 1.
func (s *Schema) MaxValue() uint32 { return 1<<uint(s.bits) - 1 }

// Dims returns the dominance dimensionality of the transform, 2β.
func (s *Schema) Dims() int { return 2 * len(s.names) }

// Range is an inclusive interval of attribute values.
type Range struct {
	Lo, Hi uint32
}

// Contains reports whether v lies in the range.
func (r Range) Contains(v uint32) bool { return r.Lo <= v && v <= r.Hi }

// ContainsRange reports whether o is a subinterval of r.
func (r Range) ContainsRange(o Range) bool { return r.Lo <= o.Lo && o.Hi <= r.Hi }

// Subscription is a conjunction of range constraints over a schema's
// attributes; attributes not explicitly constrained span the full domain.
type Subscription struct {
	schema *Schema
	ranges []Range
	// point is the Edelsbrunner–Overmars transform of ranges, maintained
	// eagerly by every mutation so the query hot path reads it without
	// transforming (or allocating) per call.
	point []uint32
}

// New returns a subscription with every attribute unconstrained.
func New(schema *Schema) *Subscription {
	ranges := make([]Range, schema.NumAttrs())
	s := &Subscription{
		schema: schema,
		ranges: ranges,
		point:  make([]uint32, 2*len(ranges)),
	}
	full := Range{Lo: 0, Hi: schema.MaxValue()}
	for i := range ranges {
		s.setRangeAt(i, full)
	}
	return s
}

// setRangeAt is the single mutation point for a constraint: it keeps the
// transformed point in lockstep with the rectangle.
func (s *Subscription) setRangeAt(i int, r Range) {
	s.ranges[i] = r
	max := s.schema.MaxValue()
	s.point[2*i] = max - r.Lo
	s.point[2*i+1] = r.Hi
}

// Schema returns the subscription's schema.
func (s *Subscription) Schema() *Schema { return s.schema }

// Range returns the constraint on attribute i.
func (s *Subscription) Range(i int) Range { return s.ranges[i] }

// SetRange constrains the named attribute to [lo, hi].
func (s *Subscription) SetRange(attr string, lo, hi uint32) error {
	i, ok := s.schema.AttrIndex(attr)
	if !ok {
		return fmt.Errorf("subscription: unknown attribute %q", attr)
	}
	if lo > hi {
		return fmt.Errorf("subscription: inverted range [%d,%d] on %q", lo, hi, attr)
	}
	if hi > s.schema.MaxValue() {
		return fmt.Errorf("subscription: value %d exceeds domain max %d on %q", hi, s.schema.MaxValue(), attr)
	}
	s.setRangeAt(i, Range{Lo: lo, Hi: hi})
	return nil
}

// SetEq constrains attr to exactly v.
func (s *Subscription) SetEq(attr string, v uint32) error { return s.SetRange(attr, v, v) }

// SetMin constrains attr to values >= v.
func (s *Subscription) SetMin(attr string, v uint32) error {
	return s.SetRange(attr, v, s.schema.MaxValue())
}

// SetMax constrains attr to values <= v.
func (s *Subscription) SetMax(attr string, v uint32) error { return s.SetRange(attr, 0, v) }

// Clone returns an independent copy.
func (s *Subscription) Clone() *Subscription {
	return &Subscription{
		schema: s.schema,
		ranges: append([]Range(nil), s.ranges...),
		point:  append([]uint32(nil), s.point...),
	}
}

// Rect is a subscription's constraint rectangle as a comparable value:
// attribute i's bounds packed lo<<MaxBits | hi (a schema admits at most
// MaxAttrs attributes of at most MaxBits bits, so nothing is lost); slots
// past the schema's attributes stay zero. It is what a holder keeps of a
// subscription: the schema is the holder's, and the rectangle is a copy
// no later SetRange on the caller's subscription reaches.
type Rect [MaxAttrs]uint32

// Rect packs the subscription's rectangle.
func (s *Subscription) Rect() Rect {
	var r Rect
	for i, rg := range s.ranges {
		r[i] = rg.Lo<<MaxBits | rg.Hi
	}
	return r
}

// bounds unpacks attribute i.
func (r Rect) bounds(i int) Range {
	return Range{Lo: r[i] >> MaxBits, Hi: r[i] & (1<<MaxBits - 1)}
}

// Subscription builds a fresh subscription of schema holding r, which
// must have been packed from a subscription of that schema.
func (r Rect) Subscription(schema *Schema) *Subscription {
	s := New(schema)
	for i := range s.ranges {
		s.setRangeAt(i, r.bounds(i))
	}
	return s
}

// PointInto writes r's Edelsbrunner–Overmars point under schema into dst,
// which must hold schema.Dims() coordinates, and returns that prefix of
// dst: what Point returns for the subscription r was packed from.
func (r Rect) PointInto(schema *Schema, dst []uint32) []uint32 {
	max := schema.MaxValue()
	p := dst[:schema.Dims()]
	for i := 0; i < len(p)/2; i++ {
		b := r.bounds(i)
		p[2*i], p[2*i+1] = max-b.Lo, b.Hi
	}
	return p
}

// Check reports whether r is a rectangle of schema: every attribute's
// bounds ordered and inside the domain, every slot past the schema's
// attributes zero.
func (r Rect) Check(schema *Schema) error {
	n, max := schema.NumAttrs(), schema.MaxValue()
	for i := range r {
		if i >= n {
			if r[i] != 0 {
				return fmt.Errorf("subscription: rectangle sets slot %d past the schema's %d attributes", i, n)
			}
			continue
		}
		if b := r.bounds(i); b.Lo > b.Hi || b.Hi > max {
			return fmt.Errorf("subscription: range [%d,%d] invalid for attribute %d", b.Lo, b.Hi, i)
		}
	}
	return nil
}

// Covers is Subscription.Covers on packed rectangles of one schema: every
// attribute of o lies within r's.
func (r Rect) Covers(o Rect) bool {
	for i := range r {
		if !r.bounds(i).ContainsRange(o.bounds(i)) {
			return false
		}
	}
	return true
}

// Matches reports whether the event satisfies every constraint.
func (s *Subscription) Matches(e Event) bool {
	if len(e) != len(s.ranges) {
		return false
	}
	for i, r := range s.ranges {
		if !r.Contains(e[i]) {
			return false
		}
	}
	return true
}

// Covers reports whether s covers o: N(s) ⊇ N(o), i.e. every event
// matching o also matches s. For rectangle subscriptions this is
// per-attribute range containment.
func (s *Subscription) Covers(o *Subscription) bool {
	if s.schema != o.schema {
		return false
	}
	for i, r := range s.ranges {
		if !r.ContainsRange(o.ranges[i]) {
			return false
		}
	}
	return true
}

// Equal reports whether the two subscriptions constrain identically.
func (s *Subscription) Equal(o *Subscription) bool {
	if s.schema != o.schema {
		return false
	}
	for i := range s.ranges {
		if s.ranges[i] != o.ranges[i] {
			return false
		}
	}
	return true
}

// Point is the Edelsbrunner–Overmars transform of the subscription: the
// 2β-dimensional point whose dominance order mirrors covering —
// coordinate 2i is 2^k−1−ℓ_i (wider-to-the-left sorts higher) and
// coordinate 2i+1 is r_i. The returned slice is the subscription's own,
// maintained by every mutation: callers must treat it as read-only and
// not retain it across a SetRange. Index layers that store points copy
// them, so the shared slice never escapes into long-lived state.
func (s *Subscription) Point() []uint32 { return s.point }

// FromPoint inverts Point, reconstructing the subscription rectangle.
func FromPoint(schema *Schema, p []uint32) (*Subscription, error) {
	r, err := PointRect(schema, p)
	if err != nil {
		return nil, err
	}
	return r.Subscription(schema), nil
}

// PointRect is FromPoint into a packed rectangle, building no
// subscription.
func PointRect(schema *Schema, p []uint32) (Rect, error) {
	var r Rect
	if len(p) != schema.Dims() {
		return r, fmt.Errorf("subscription: point has %d dims, schema needs %d", len(p), schema.Dims())
	}
	max := schema.MaxValue()
	for i := range schema.NumAttrs() {
		lo, hi := max-p[2*i], p[2*i+1]
		if lo > hi || hi > max {
			return r, fmt.Errorf("subscription: point decodes to inverted range on attribute %d", i)
		}
		r[i] = lo<<MaxBits | hi
	}
	return r, nil
}

// String renders the subscription in the parseable constraint syntax.
func (s *Subscription) String() string {
	var b strings.Builder
	first := true
	for i, r := range s.ranges {
		if r.Lo == 0 && r.Hi == s.schema.MaxValue() {
			continue
		}
		if !first {
			b.WriteString(" && ")
		}
		first = false
		switch {
		case r.Lo == r.Hi:
			fmt.Fprintf(&b, "%s == %d", s.schema.names[i], r.Lo)
		case r.Lo == 0:
			fmt.Fprintf(&b, "%s <= %d", s.schema.names[i], r.Hi)
		case r.Hi == s.schema.MaxValue():
			fmt.Fprintf(&b, "%s >= %d", s.schema.names[i], r.Lo)
		default:
			fmt.Fprintf(&b, "%s in [%d,%d]", s.schema.names[i], r.Lo, r.Hi)
		}
	}
	if first {
		return "true"
	}
	return b.String()
}

// Event is a message: one value per schema attribute, in declaration order.
type Event []uint32

// NewEvent builds an event from attribute name/value pairs; every attribute
// must be assigned exactly once.
func NewEvent(schema *Schema, values map[string]uint32) (Event, error) {
	if len(values) != schema.NumAttrs() {
		return nil, fmt.Errorf("subscription: event assigns %d attributes, schema has %d", len(values), schema.NumAttrs())
	}
	e := make(Event, schema.NumAttrs())
	for name, v := range values {
		i, ok := schema.AttrIndex(name)
		if !ok {
			return nil, fmt.Errorf("subscription: unknown attribute %q", name)
		}
		if v > schema.MaxValue() {
			return nil, fmt.Errorf("subscription: value %d exceeds domain max on %q", v, name)
		}
		e[i] = v
	}
	return e, nil
}
