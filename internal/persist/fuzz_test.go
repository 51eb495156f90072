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
			back, rest, err := decodeRecord(re, "")
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

// followerSeeds adds the follower fuzzers' seeds: the seed segment's
// records, one add and one remove, a torn tail, a flipped checksum byte,
// and a run of 1 025 records — one past the daemon's frame cap, so a
// frame cut splits it — with the second frame's share alone.
func followerSeeds(f *testing.F) {
	seg, _ := fuzzSeedBytes(f)
	run := seg[len(walMagic):]
	f.Add(run)
	f.Add(appendRecord(nil, record{op: opAdd, link: "a", sid: 1, payload: []byte{0x51, 2, 8, 1}}))
	f.Add(appendRecord(nil, record{op: opRem, link: "a", sid: 4}))
	f.Add([]byte{})
	f.Add(run[:len(run)-3])
	flipped := append([]byte(nil), run...)
	flipped[len(flipped)-1] ^= 0x40
	f.Add(flipped)
	var long []byte
	cut := 0
	for i := range 1025 {
		if i == 1024 {
			cut = len(long)
		}
		r := record{op: opAdd, link: "b0-n1", sid: uint64(i%300 + 1), payload: payload(f, rect(f, testSchema(), i%familyK))}
		if i%7 == 6 {
			r = record{op: opRem, link: "b0-n1", sid: uint64((i-6)%300 + 1)}
		}
		long = appendRecord(long, r)
	}
	f.Add(long)
	f.Add(long[cut:])
}

// fuzzFollower holds one follower entry point to its contract on
// arbitrary bytes: apply hands run to a fresh store, which either refuses
// it with ErrCorrupt and is unchanged — position 0, no link, nothing
// logged — or is reopened at position pos, and every link wraps a fresh
// engine whose Enumerate is the run's adds less its removes.
func fuzzFollower(t *testing.T, run []byte, pos uint64, apply func(st *Store, run []byte) error) {
	schema, dir := testSchema(), t.TempDir()
	st, err := Open(dir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := apply(st, run); err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("a fresh store refused the run with %v, want ErrCorrupt", err)
		}
		if st.Pos() != 0 || len(st.Links()) != 0 || st.Stats().WALRecords != 0 || st.Stats().Snapshots != 0 {
			t.Fatalf("refused run changed the store: Pos %d, Links %v, %d records logged, %d snapshots", st.Pos(), st.Links(), st.Stats().WALRecords, st.Stats().Snapshots)
		}
		st.Close()
		return
	}
	model := linkTables{}
	err = eachRecord(run, func(r record, _ []byte) error {
		if r.op == opRem {
			model.drop(r.link, r.sid)
			return nil
		}
		rect, err := subscription.UnmarshalRect(schema, r.payload)
		if err != nil {
			t.Fatalf("store took link %q sid %d, whose payload does not decode: %v", r.link, r.sid, err)
		}
		model.put(r.link, r.sid, rect)
		return nil
	})
	if err != nil {
		t.Fatalf("store took a run that does not decode: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(dir, schema, Options{})
	if err != nil {
		t.Fatalf("reopening the store: %v", err)
	}
	defer st.Close()
	if st.Pos() != pos {
		t.Fatalf("Pos = %d after reopen, want %d", st.Pos(), pos)
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
}

// FuzzApplyReplicated hardens the follower's decoder of live frames:
// arbitrary bytes go straight into ApplyReplicated on a fresh store,
// which must refuse them or log them as a run reopening at one position
// a record (fuzzFollower).
func FuzzApplyReplicated(f *testing.F) {
	followerSeeds(f)
	f.Fuzz(func(t *testing.T, run []byte) {
		var n uint64 // the records a run holds: the position it reopens at once applied
		_ = eachRecord(run, func(record, []byte) error { n++; return nil })
		fuzzFollower(t, run, n, func(st *Store, run []byte) error { return st.ApplyReplicated(0, run) })
	})
}

// FuzzInstallState hardens the follower's decoder of reset dumps:
// arbitrary bytes go straight into InstallState on a fresh store, which
// must refuse them or install them as a snapshot reopening at the dump's
// position (fuzzFollower).
func FuzzInstallState(f *testing.F) {
	followerSeeds(f)
	f.Fuzz(func(t *testing.T, run []byte) {
		fuzzFollower(t, run, 7, func(st *Store, run []byte) error { return st.InstallState(run, 7) })
	})
}
