package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"testing"

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
	rect := func(expr string) subscription.Rect { return subscription.MustParse(schema, expr).Rect() }
	state := linkTables{}
	state.put("", 1, rect("x >= 3"))
	state.put("b0-n1", 2, rect("y == 7"))
	state.put("b0-n1", 9, rect("x in [1,200]"))
	snapshot = encodeSnapshot(schema, state, 7)
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
		strictErr := replayBytes(data, "fuzz", false, func(r record) error { strict = append(strict, r); return nil })
		var tolerant []record
		if err := replayBytes(data, "fuzz", true, func(r record) error { tolerant = append(tolerant, r); return nil }); err != nil && strictErr == nil {
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

// nonMinimalSnapshot re-spells snap's first payload, which must be that
// of "x >= 3" under the seed schema, with its lower bound as a two-byte
// varint: the payload still decodes, to the same rectangle.
func nonMinimalSnapshot(tb testing.TB, snap []byte) []byte {
	schema := subscription.MustSchema(8, "x", "y")
	pay := subscription.MustParse(schema, "x >= 3").Rect().AppendBinary(nil, schema)
	at := bytes.Index(snap, pay)
	if at < 1 || pay[3] != 3 {
		tb.Fatalf("seed snapshot does not hold payload % x", pay)
	}
	out := append([]byte(nil), snap[:at-1]...)
	out = append(out, byte(len(pay)+1))
	out = append(out, pay[:3]...)
	out = append(out, 0x83, 0x00) // 3, spelled in two bytes
	out = append(out, pay[4:]...)
	out = append(out, snap[at+len(pay):len(snap)-4]...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// tablesDiffer says how two decoded states differ, or "" when they hold
// the same links, each with the same sids and rectangles.
func tablesDiffer(got, want linkTables) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d links, want %d", len(got), len(want))
	}
	for name, table := range want {
		if _, ok := got[name]; !ok {
			return fmt.Sprintf("link %q lost", name)
		}
		if g, w := sortedHeld(got[name]), sortedHeld(table); !slices.Equal(g, w) {
			return fmt.Sprintf("link %q holds %v, want %v", name, g, w)
		}
	}
	return ""
}

// FuzzSnapshotDecode hardens snapshot decoding against arbitrary bytes:
// decode, under the schema the header names, must never panic, and
// whatever decodes must re-encode under that schema into bytes that decode
// back to the same rectangles — bytes the encoder writes again exactly,
// since it spells every payload canonically.
func FuzzSnapshotDecode(f *testing.F) {
	_, snap := fuzzSeedBytes(f)
	f.Add(snap)
	f.Add([]byte(snapMagic))
	f.Add([]byte{})
	nonMin := nonMinimalSnapshot(f, snap)
	_, a, _, errA := decodeSnapshot(nil, snap)
	_, b, _, errB := decodeSnapshot(nil, nonMin)
	if errA != nil || errB != nil {
		f.Fatalf("seed snapshots do not decode: %v, %v", errA, errB)
	}
	if d := tablesDiffer(b, a); d != "" {
		f.Fatalf("a payload that spells a varint in two bytes decodes differently: %s", d)
	}
	f.Add(nonMin)
	f.Fuzz(func(t *testing.T, data []byte) {
		schema, links, basePos, err := decodeSnapshot(nil, data)
		if err != nil {
			return
		}
		re := encodeSnapshot(schema, links, basePos)
		_, back, backPos, err := decodeSnapshot(schema, re)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if backPos != basePos {
			t.Fatalf("round trip changed basePos %d -> %d", basePos, backPos)
		}
		if d := tablesDiffer(back, links); d != "" {
			t.Fatalf("round trip changed the state: %s", d)
		}
		if again := encodeSnapshot(schema, back, backPos); !bytes.Equal(again, re) {
			t.Fatalf("re-encoding a re-encoded snapshot changed its bytes")
		}
	})
}

// FuzzApplyReplicated hardens the follower's decoder: arbitrary bytes go
// through DecodeRecords and, when they decode, through ApplyReplicated on
// a fresh store. Either the store refuses the batch with ErrCorrupt and is
// unchanged — position 0, no link, nothing logged — or a reopen recovers
// it, and every link wraps a fresh engine whose Enumerate is the applied
// adds less the applied removes.
func FuzzApplyReplicated(f *testing.F) {
	seg, _ := fuzzSeedBytes(f)
	f.Add(seg[len(walMagic):])
	f.Add(EncodeRecords([]Record{{Link: "a", SID: 1, Payload: []byte{0x51, 2, 8, 1}}}))
	f.Add(EncodeRecords([]Record{{Remove: true, Link: "a", SID: 4}}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeRecords(data)
		if err != nil {
			return
		}
		schema, dir := testSchema(), t.TempDir()
		st, err := Open(dir, schema, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.ApplyReplicated(0, recs); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("ApplyReplicated on a fresh store = %v, want ErrCorrupt or nil", err)
			}
			if st.Pos() != 0 || len(st.Links()) != 0 || st.Stats().WALRecords != 0 {
				t.Fatalf("refused batch changed the store: Pos %d, Links %v, %d records logged", st.Pos(), st.Links(), st.Stats().WALRecords)
			}
			st.Close()
			return
		}
		model := linkTables{}
		for _, r := range recs {
			if r.Remove {
				model.drop(r.Link, r.SID)
				continue
			}
			rect, err := subscription.UnmarshalRect(schema, r.Payload)
			if err != nil {
				t.Fatalf("store applied link %q sid %d, whose payload does not decode: %v", r.Link, r.SID, err)
			}
			model.put(r.Link, r.SID, rect)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st, err = Open(dir, schema, Options{})
		if err != nil {
			t.Fatalf("reopening an applied batch: %v", err)
		}
		defer st.Close()
		if st.Pos() != uint64(len(recs)) {
			t.Fatalf("Pos = %d after reopen, want %d", st.Pos(), len(recs))
		}
		if got := st.Links(); len(got) != len(model) {
			t.Fatalf("Links = %v after reopen, want %d links", got, len(model))
		}
		for link, table := range model {
			d, err := st.Durable(link, newTestEngine(schema, 1))
			if err != nil {
				t.Fatalf("Durable(%q) after reopen: %v", link, err)
			}
			requireSameHeld(t, fmt.Sprintf("link %q", link), mustEnumerate(t, d), sortedHeld(table))
			d.Close()
		}
	})
}
