package persist

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"strings"
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
	snapshot = encodeTables(schema, state, 7, 12)
	return segment, snapshot
}

// encodeTables encodes links, every link of them by name, as a snapshot
// image at stream position pos with id mark mark.
func encodeTables(schema *subscription.Schema, links linkTables, pos, mark uint64) []byte {
	sections := make([]linkEntries, 0, len(links))
	for name, t := range links {
		sections = append(sections, linkEntries{name: name, list: listRects(t)})
	}
	slices.SortFunc(sections, func(a, b linkEntries) int { return strings.Compare(a.name, b.name) })
	return encodeLinks(schema, sections, pos, mark)
}

// imageOf spells a snapshot image by hand, apart from encodeLinks: the
// magic, schema's header, pos, mark when magic is SFCS3's, and the add
// records rs, by link name and then sid, each payload as its record
// carries it — so a test can spell an SFCS2 image, or plant a payload
// that does not decode.
func imageOf(magic string, schema *subscription.Schema, pos, mark uint64, rs ...record) []byte {
	rs = slices.Clone(rs)
	slices.SortFunc(rs, func(a, b record) int {
		return cmp.Or(strings.Compare(a.link, b.link), cmp.Compare(a.sid, b.sid))
	})
	buf := append([]byte(nil), magic...)
	buf = binary.AppendUvarint(buf, uint64(schema.Bits()))
	buf = binary.AppendUvarint(buf, uint64(len(schema.Attrs())))
	for _, a := range schema.Attrs() {
		buf = binary.AppendUvarint(buf, uint64(len(a)))
		buf = append(buf, a...)
	}
	buf = binary.AppendUvarint(buf, pos)
	if magic == snapMagic {
		buf = binary.AppendUvarint(buf, mark)
	}
	var sections [][]record
	for i, r := range rs {
		if i == 0 || r.link != rs[i-1].link {
			sections = append(sections, nil)
		}
		sections[len(sections)-1] = append(sections[len(sections)-1], r)
	}
	buf = binary.AppendUvarint(buf, uint64(len(sections)))
	for _, sec := range sections {
		buf = binary.AppendUvarint(buf, uint64(len(sec[0].link)))
		buf = append(buf, sec[0].link...)
		buf = binary.AppendUvarint(buf, uint64(len(sec)))
		for _, r := range sec {
			buf = binary.AppendUvarint(buf, r.sid)
			buf = binary.AppendUvarint(buf, uint64(len(r.payload)))
			buf = append(buf, r.payload...)
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
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
// back to the same rectangles, position and id mark — bytes the encoder
// writes again exactly, since it spells every payload canonically. The
// seeds hold SFCS3 images with non-zero marks and an SFCS2 image, which
// decodes with mark 0 and re-encodes as SFCS3.
func FuzzSnapshotDecode(f *testing.F) {
	_, snap := fuzzSeedBytes(f)
	f.Add(snap)
	f.Add([]byte(snapMagic))
	f.Add([]byte{})
	nonMin := nonMinimalSnapshot(f, snap)
	a, errA := decodeSnapshot(nil, snap)
	b, errB := decodeSnapshot(nil, nonMin)
	if errA != nil || errB != nil {
		f.Fatalf("seed snapshots do not decode: %v, %v", errA, errB)
	}
	if d := tablesDiffer(b.links, a.links); d != "" {
		f.Fatalf("a payload that spells a varint in two bytes decodes differently: %s", d)
	}
	f.Add(nonMin)
	schema := testSchema()
	f.Add(imageOf(snapMagic, schema, 40, 1<<40, addRec(f, "", 3, 0), addRec(f, "x", 1<<33, 1)))
	v2 := imageOf(snapMagicV2, schema, 9, 0, addRec(f, "", 3, 0), addRec(f, "x", 5, 1))
	if img, err := decodeSnapshot(schema, v2); err != nil || img.pos != 9 || img.mark != 0 {
		f.Fatalf("the SFCS2 seed decodes at position %d, mark %d (%v), want 9 and 0", img.pos, img.mark, err)
	}
	f.Add(v2)
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := decodeSnapshot(nil, data)
		if err != nil {
			return
		}
		re := encodeTables(img.schema, img.links, img.pos, img.mark)
		back, err := decodeSnapshot(img.schema, re)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if back.pos != img.pos || back.mark != img.mark {
			t.Fatalf("round trip changed basePos %d -> %d, mark %d -> %d", img.pos, back.pos, img.mark, back.mark)
		}
		if d := tablesDiffer(back.links, img.links); d != "" {
			t.Fatalf("round trip changed the state: %s", d)
		}
		if again := encodeTables(img.schema, back.links, back.pos, back.mark); !bytes.Equal(again, re) {
			t.Fatalf("re-encoding a re-encoded snapshot changed its bytes")
		}
	})
}

// followerSeeds adds FuzzApplyReplicated's seeds: the seed segment's
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

// imageSeeds adds FuzzInstallState's seeds, reset images: the seed
// snapshot, one add, an empty state whose mark is past every id (a
// primary that removed its largest), no bytes, a torn tail, a flipped
// checksum byte, 300 entries on one link, an SFCS2 image and an image
// holding a payload that does not decode.
func imageSeeds(f *testing.F) {
	_, snap := fuzzSeedBytes(f)
	schema := testSchema()
	f.Add(snap)
	f.Add(imageOf(snapMagic, schema, 1, 1, addRec(f, "a", 1, 0)))
	f.Add(imageOf(snapMagic, schema, 7, 4))
	f.Add([]byte{})
	f.Add(snap[:len(snap)-3])
	flipped := append([]byte(nil), snap...)
	flipped[len(flipped)-1] ^= 0x40
	f.Add(flipped)
	var long []record
	for i := range 300 {
		long = append(long, addRec(f, "b0-n1", uint64(i+1), i%familyK))
	}
	f.Add(imageOf(snapMagic, schema, 1025, 300, long...))
	f.Add(imageOf(snapMagicV2, schema, 7, 0, addRec(f, "", 3, 0)))
	f.Add(imageOf(snapMagic, schema, 7, 9, addRec(f, "a", 2, 1), record{link: "a", sid: 9, payload: undecodable}))
}

// fuzzFollower holds one follower entry point to its contract on
// arbitrary bytes: apply hands in to a fresh store, which either refuses
// it with one of refusals and is unchanged — position 0, no link, nothing
// logged — or takes it; then model, an account of in apart from the
// store, must decode it, and the store reopens at the position and id
// mark model gives, every link wrapping a fresh engine whose Enumerate is
// model's link.
func fuzzFollower(t *testing.T, in []byte, apply func(st *Store, in []byte) error,
	model func(t *testing.T, schema *subscription.Schema, in []byte) (links linkTables, pos, mark uint64), refusals ...error) {
	schema, dir := testSchema(), t.TempDir()
	st, err := Open(dir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := apply(st, in); err != nil {
		if !slices.ContainsFunc(refusals, func(want error) bool { return errors.Is(err, want) }) {
			t.Fatalf("a fresh store refused the bytes with %v, want one of %v", err, refusals)
		}
		if st.Pos() != 0 || len(st.Links()) != 0 || st.Stats().WALRecords != 0 || st.Stats().Snapshots != 0 {
			t.Fatalf("refused bytes changed the store: Pos %d, Links %v, %d records logged, %d snapshots", st.Pos(), st.Links(), st.Stats().WALRecords, st.Stats().Snapshots)
		}
		st.Close()
		return
	}
	links, pos, mark := model(t, schema, in)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(dir, schema, Options{})
	if err != nil {
		t.Fatalf("reopening the store: %v", err)
	}
	defer st.Close()
	if st.Pos() != pos || st.mark != mark {
		t.Fatalf("Pos %d, mark %d after reopen, want %d and %d", st.Pos(), st.mark, pos, mark)
	}
	if got := st.Links(); len(got) != len(links) {
		t.Fatalf("Links = %v after reopen, want %d links", got, len(links))
	}
	for link, table := range links {
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
// a record, its mark the largest sid an add carried, and holding the
// run's adds less its removes (fuzzFollower).
func FuzzApplyReplicated(f *testing.F) {
	followerSeeds(f)
	f.Fuzz(func(t *testing.T, run []byte) {
		fuzzFollower(t, run, func(st *Store, run []byte) error { return st.ApplyReplicated(0, run) },
			func(t *testing.T, schema *subscription.Schema, run []byte) (linkTables, uint64, uint64) {
				links, pos, mark := linkTables{}, uint64(0), uint64(0)
				err := eachRecord(run, func(r record, _ []byte) error {
					pos++
					if r.op == opRem {
						links.drop(r.link, r.sid)
						return nil
					}
					rect, err := subscription.UnmarshalRect(schema, r.payload)
					if err != nil {
						t.Fatalf("store took link %q sid %d, whose payload does not decode: %v", r.link, r.sid, err)
					}
					links.put(r.link, r.sid, rect)
					mark = max(mark, r.sid)
					return nil
				})
				if err != nil {
					t.Fatalf("store took a run that does not decode: %v", err)
				}
				return links, pos, mark
			}, ErrCorrupt)
	})
}

// FuzzInstallState hardens the follower's decoder of reset images:
// arbitrary bytes go straight into InstallState on a fresh store, which
// must refuse them or install them as a snapshot reopening at the
// image's position and mark and holding its state (fuzzFollower). An
// image under another schema is refused with ErrSchemaMismatch.
func FuzzInstallState(f *testing.F) {
	imageSeeds(f)
	f.Fuzz(func(t *testing.T, img []byte) {
		fuzzFollower(t, img, (*Store).InstallState,
			func(t *testing.T, schema *subscription.Schema, img []byte) (linkTables, uint64, uint64) {
				got, err := decodeSnapshot(schema, img)
				if err != nil {
					t.Fatalf("store took an image that does not decode: %v", err)
				}
				return got.links, got.pos, got.mark
			}, ErrCorrupt, ErrSchemaMismatch)
	})
}
