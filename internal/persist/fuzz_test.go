package persist

import (
	"bytes"
	"testing"

	"sfccover/internal/idtable"
	"sfccover/internal/subscription"
)

// fuzzSeedBytes builds a realistic WAL segment and snapshot for the seed
// corpora.
func fuzzSeedBytes(tb testing.TB) (segment, snapshot []byte) {
	schema := subscription.MustSchema(8, "x", "y")
	pay := func(expr string) []byte {
		raw, err := subscription.MustParse(schema, expr).MarshalBinary()
		if err != nil {
			tb.Fatal(err)
		}
		return raw
	}
	segment = []byte(walMagic)
	segment = appendRecord(segment, record{op: opAdd, link: "", sid: 1, payload: pay("x >= 3")})
	segment = appendRecord(segment, record{op: opAdd, link: "b0-n1", sid: 2, payload: pay("x <= 9 && y in [4,5]")})
	segment = appendRecord(segment, record{op: opRem, link: "", sid: 1})
	link := func(es ...Entry) *idtable.Table[[]byte] {
		state := new(idtable.Table[[]byte])
		for _, e := range es {
			state.Put(e.SID, e.Payload)
		}
		return state
	}
	snapshot = encodeSnapshot(schema, map[string]*idtable.Table[[]byte]{
		"":      link(Entry{1, pay("x >= 3")}),
		"b0-n1": link(Entry{2, pay("y == 7")}, Entry{9, pay("x in [1,200]")}),
	}, 7)
	return segment, snapshot
}

// FuzzWALDecode hardens segment replay against arbitrary bytes: replay
// must never panic, every decoded record must survive an
// encode-decode-encode round trip, and the tolerated-torn-tail rule must
// be consistent (a segment that replays cleanly as non-final replays
// identically as final).
func FuzzWALDecode(f *testing.F) {
	seg, _ := fuzzSeedBytes(f)
	f.Add(seg)
	f.Add([]byte(walMagic))
	f.Add([]byte{})
	f.Add(append([]byte(walMagic), 0x05, 'A', 0x00, 0x01, 0xDE, 0xAD, 0xBE, 0xEF))
	// An open segment's image: records, then the zero-filled reserve —
	// clean, torn into the padding, and with a stray byte past it.
	padded := append(append([]byte(nil), seg...), make([]byte, 64)...)
	f.Add(padded)
	f.Add(append([]byte(walMagic), make([]byte, 32)...))
	f.Add(append(append([]byte(nil), seg[:len(seg)-3]...), make([]byte, 32)...))
	stray := append([]byte(nil), padded...)
	stray[len(stray)-1] = 0x41
	f.Add(stray)
	f.Fuzz(func(t *testing.T, data []byte) {
		var strict []record
		strictErr := replayBytes(data, "fuzz", false, func(r record) { strict = append(strict, r) })
		var tolerant []record
		if err := replayBytes(data, "fuzz", true, func(r record) { tolerant = append(tolerant, r) }); err != nil && strictErr == nil {
			t.Fatalf("final replay failed where strict replay succeeded: %v", err)
		}
		if strictErr == nil && len(strict) != len(tolerant) {
			t.Fatalf("strict replay decoded %d records, tolerant %d, from identical clean bytes", len(strict), len(tolerant))
		}
		for _, r := range tolerant {
			re := appendRecord(nil, r)
			back, rest, err := decodeRecord(re)
			if err != nil || len(rest) != 0 {
				t.Fatalf("re-encoded record does not decode: %v (%d leftover)", err, len(rest))
			}
			if back.op != r.op || back.link != r.link || back.sid != r.sid || !bytes.Equal(back.payload, r.payload) {
				t.Fatalf("record round trip changed %+v into %+v", r, back)
			}
		}
	})
}

// FuzzSnapshotDecode hardens snapshot decoding against arbitrary bytes:
// decode must never panic, and whatever decodes must re-encode (under the
// seed schema) into bytes that decode back to the identical state.
func FuzzSnapshotDecode(f *testing.F) {
	_, snap := fuzzSeedBytes(f)
	f.Add(snap)
	f.Add([]byte(snapMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		links, basePos, err := decodeSnapshot(nil, data)
		if err != nil {
			return
		}
		// Whatever decoded is structurally sound: re-encoding it under any
		// schema and decoding again must reproduce it exactly.
		schema := subscription.MustSchema(8, "x", "y")
		re := encodeSnapshot(schema, links, basePos)
		back, backPos, err := decodeSnapshot(schema, re)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if backPos != basePos {
			t.Fatalf("round trip changed basePos %d -> %d", basePos, backPos)
		}
		if len(back) != len(links) {
			t.Fatalf("round trip changed link count %d -> %d", len(links), len(back))
		}
		for name, state := range links {
			bstate, ok := back[name]
			if !ok || bstate.Len() != state.Len() {
				t.Fatalf("round trip lost link %q", name)
			}
			for sid, payload := range state.All() {
				if got, _ := bstate.Get(sid); !bytes.Equal(got, payload) {
					t.Fatalf("round trip changed link %q sid %d payload", name, sid)
				}
			}
		}
	})
}
