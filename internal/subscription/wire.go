package subscription

import (
	"encoding/binary"
	"fmt"
)

// Wire format: brokers exchange subscriptions and events between
// processes; the codec is a compact, versioned, schema-checked binary
// encoding built on unsigned varints.
//
//	subscription: version | beta | bits | (lo, hi) per attribute
//	event:        version | beta | bits | value per attribute
//
// The embedded beta/bits let the receiver verify the payload matches its
// schema before trusting any range.
const (
	wireVersionSub   = 0x51 // 'Q' — subscription payload
	wireVersionEvent = 0x45 // 'E' — event payload
)

// MaxWireLen bounds the encoded size of any subscription or event: the
// 3-byte header plus, per attribute (at most 8), two uvarints of a value
// below 2^16. Encoders that append into a buffer of this capacity never
// grow it.
const MaxWireLen = 3 + 2*8*3

// AppendBinary appends the subscription's wire encoding to dst and returns
// the extended slice, so callers that own a buffer (a frame under
// construction, a batch arena) pay no per-payload allocation.
func (s *Subscription) AppendBinary(dst []byte) ([]byte, error) {
	return s.Rect().AppendBinary(dst, s.schema), nil
}

// AppendBinary appends the wire encoding of the subscription of schema r
// was packed from — the bytes Subscription.AppendBinary writes — to dst,
// building no subscription.
func (r Rect) AppendBinary(dst []byte, schema *Schema) []byte {
	dst = append(dst, wireVersionSub, byte(schema.NumAttrs()), byte(schema.bits))
	for i := range schema.NumAttrs() {
		b := r.bounds(i)
		dst = binary.AppendUvarint(dst, uint64(b.Lo))
		dst = binary.AppendUvarint(dst, uint64(b.Hi))
	}
	return dst
}

// MarshalBinary implements encoding.BinaryMarshaler for subscriptions.
func (s *Subscription) MarshalBinary() ([]byte, error) {
	return s.AppendBinary(make([]byte, 0, 3+2*len(s.ranges)*binary.MaxVarintLen32))
}

// MarshalBatch encodes subs back to back into one arena and returns each
// subscription's slice of it, so a batch costs three allocations instead
// of one per payload. A nil entry yields a nil payload in its slot.
func MarshalBatch(subs []*Subscription) ([][]byte, error) {
	ends := make([]int, len(subs))
	arena := make([]byte, 0, 16*len(subs))
	for i, s := range subs {
		if s != nil {
			var err error
			if arena, err = s.AppendBinary(arena); err != nil {
				return nil, err
			}
		}
		ends[i] = len(arena)
	}
	// Sliced only now: growth may have moved the arena while it filled.
	payloads := make([][]byte, len(subs))
	start := 0
	for i, end := range ends {
		if end > start {
			payloads[i] = arena[start:end:end]
		}
		start = end
	}
	return payloads, nil
}

// UnmarshalSubscription decodes a subscription payload against the given
// schema, validating shape and domain.
func UnmarshalSubscription(schema *Schema, data []byte) (*Subscription, error) {
	s := New(schema)
	if err := UnmarshalSubscriptionInto(s, data); err != nil {
		return nil, err
	}
	return s, nil
}

// UnmarshalSubscriptionInto decodes a subscription payload into dst,
// against dst's schema, overwriting every constraint — the form for
// callers that keep one scratch subscription per worker and must not
// allocate per request. On error dst is left as it was.
func UnmarshalSubscriptionInto(dst *Subscription, data []byte) error {
	r, err := UnmarshalRect(dst.schema, data)
	if err != nil {
		return err
	}
	for i := range dst.ranges {
		dst.setRangeAt(i, r.bounds(i))
	}
	return nil
}

// UnmarshalRect decodes a subscription payload against schema into its
// packed rectangle, validating shape and domain as UnmarshalSubscription
// does, building no subscription.
func UnmarshalRect(schema *Schema, data []byte) (Rect, error) {
	var r Rect
	rest, err := checkHeader(schema, data, wireVersionSub)
	if err != nil {
		return r, fmt.Errorf("subscription: decoding subscription: %w", err)
	}
	for i := range schema.NumAttrs() {
		lo, n := binary.Uvarint(rest)
		if n <= 0 {
			return r, fmt.Errorf("subscription: truncated range lo on attribute %d", i)
		}
		rest = rest[n:]
		hi, n := binary.Uvarint(rest)
		if n <= 0 {
			return r, fmt.Errorf("subscription: truncated range hi on attribute %d", i)
		}
		rest = rest[n:]
		if lo > hi || hi > uint64(schema.MaxValue()) {
			return r, fmt.Errorf("subscription: range [%d,%d] invalid for attribute %d", lo, hi, i)
		}
		r[i] = uint32(lo)<<MaxBits | uint32(hi)
	}
	if len(rest) != 0 {
		return r, fmt.Errorf("subscription: %d trailing bytes", len(rest))
	}
	return r, nil
}

// AppendBinary appends the event's wire encoding to dst. The event does
// not know its schema, so the caller supplies it.
func (e Event) AppendBinary(dst []byte, schema *Schema) ([]byte, error) {
	if len(e) != schema.NumAttrs() {
		return dst, fmt.Errorf("subscription: event has %d attributes, schema needs %d", len(e), schema.NumAttrs())
	}
	dst = append(dst, wireVersionEvent, byte(len(e)), byte(schema.bits))
	for _, v := range e {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	return dst, nil
}

// MarshalBinary implements encoding.BinaryMarshaler for events.
func (e Event) MarshalBinary(schema *Schema) ([]byte, error) {
	buf, err := e.AppendBinary(make([]byte, 0, 3+len(e)*binary.MaxVarintLen32), schema)
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// UnmarshalEvent decodes an event payload against the given schema.
func UnmarshalEvent(schema *Schema, data []byte) (Event, error) {
	e := make(Event, schema.NumAttrs())
	if err := decodeEvent(schema, data, func(i int, v uint32) { e[i] = v }); err != nil {
		return nil, err
	}
	return e, nil
}

// UnmarshalPointInto decodes an event payload into dst as the degenerate
// subscription that constrains every attribute to exactly the event's
// value — its covers are exactly the subscriptions matching the event.
// Like UnmarshalSubscriptionInto it allocates nothing and leaves dst
// partially overwritten on error.
func UnmarshalPointInto(dst *Subscription, data []byte) error {
	return decodeEvent(dst.schema, data, func(i int, v uint32) { dst.setRangeAt(i, Range{Lo: v, Hi: v}) })
}

// decodeEvent validates an event payload against schema and hands each
// attribute's value to set, in declaration order.
func decodeEvent(schema *Schema, data []byte, set func(i int, v uint32)) error {
	rest, err := checkHeader(schema, data, wireVersionEvent)
	if err != nil {
		return fmt.Errorf("subscription: decoding event: %w", err)
	}
	for i := 0; i < schema.NumAttrs(); i++ {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return fmt.Errorf("subscription: truncated value on attribute %d", i)
		}
		rest = rest[n:]
		if v > uint64(schema.MaxValue()) {
			return fmt.Errorf("subscription: value %d out of domain on attribute %d", v, i)
		}
		set(i, uint32(v))
	}
	if len(rest) != 0 {
		return fmt.Errorf("subscription: %d trailing bytes", len(rest))
	}
	return nil
}

func checkHeader(schema *Schema, data []byte, version byte) ([]byte, error) {
	if len(data) < 3 {
		return nil, fmt.Errorf("payload too short (%d bytes)", len(data))
	}
	if data[0] != version {
		return nil, fmt.Errorf("unexpected payload type 0x%02x", data[0])
	}
	if int(data[1]) != schema.NumAttrs() {
		return nil, fmt.Errorf("payload has %d attributes, schema has %d", data[1], schema.NumAttrs())
	}
	if int(data[2]) != schema.Bits() {
		return nil, fmt.Errorf("payload uses %d-bit domains, schema uses %d", data[2], schema.Bits())
	}
	return data[3:], nil
}
