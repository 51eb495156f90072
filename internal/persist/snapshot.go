package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"

	"sfccover/internal/core"
	"sfccover/internal/idtable"
	"sfccover/internal/subscription"
)

// A snapshot is one self-validating image of the full subscription state
// of every link namespace at a point in time, and the store's only
// full-state form: snap-<seq>.snap holds one, and so does a follower's
// reset, which InstallState lands as its snapshot byte for byte. The seq
// names the first WAL segment whose records post-date the snapshot:
// recovery loads the newest valid snapshot and replays only segments with
// seq >= it.
//
//	snapshot: "SFCS3\n"
//	          | uvarint bits | uvarint numAttrs | (uvarint len | name)*
//	          | uvarint basePos | uvarint mark
//	          | uvarint numLinks
//	          | link*                      (sorted by name)
//	          | crc32(everything above) (4 bytes LE)
//	link:     uvarint len(name) | name
//	          | uvarint numEntries
//	          | (uvarint sid | uvarint len(payload) | payload)*   (sid ascending)
//
// The schema header makes a data dir self-describing: opening it under a
// different schema fails with ErrSchemaMismatch instead of misdecoding
// payloads. Entries are sorted by sid so recovery can feed the engine's
// sorted bulk-load path directly, and the decoder enforces the order (a
// violation is ErrCorrupt, not a silent reorder).
//
// A payload is the subscription's binary wire encoding, as in a WAL
// record. The store holds rectangles, not payloads: the encoder writes
// each rectangle's payload in place, and the decoder decodes each payload
// into its rectangle as it reads the section, refusing one that does not
// decode as ErrCorrupt.
//
// basePos is the replication stream position the snapshot covers: the
// count of WAL records ever applied in this dir's history up to the
// snapshot point. Recovery seeds Store.Pos from it (plus whatever the WAL
// replays on top), which is how a follower knows where to resume the
// primary's stream after its own restart. mark is the id high-water mark
// there (Store.mark). SFCS3 added mark; an SFCS2 image still decodes,
// with mark 0, and SFCS1 dirs predate any release and are refused as
// corrupt.
const (
	snapMagic   = "SFCS3\n"
	snapMagicV2 = "SFCS2\n"
)

// linkTables holds subscriptions by link and sid as their rectangles:
// the store's mirror, a decoded snapshot or reset. Each
// rectangle was decoded once, from the payload its bytes carried into the
// store.
type linkTables map[string]*idtable.Table[subscription.Rect]

// put holds r under link and sid.
func (m linkTables) put(link string, sid uint64, r subscription.Rect) {
	t := m[link]
	if t == nil {
		t = new(idtable.Table[subscription.Rect])
		m[link] = t
	}
	t.Put(sid, r)
}

// drop removes sid from link, and link once it holds nothing.
func (m linkTables) drop(link string, sid uint64) {
	if t := m[link]; t != nil {
		t.Delete(sid)
		if t.Len() == 0 {
			delete(m, link)
		}
	}
}

// listRects captures one link's table: a copy of its entries, listed by
// sid ascending when it is read. Called under the lock the table lives
// under.
func listRects(t *idtable.Table[subscription.Rect]) *core.Listing {
	return core.ListRects(t.AppendTo(make([]idtable.Slot[subscription.Rect], 0, t.Len())))
}

// sortedHeld lists one link's table by sid ascending, the order a
// snapshot stores and Restore checks in one pass.
func sortedHeld(t *idtable.Table[subscription.Rect]) []core.Held {
	return listRects(t).Held()
}

// decodePayload decodes the payload of an add on link under schema. It
// runs where the bytes enter the store from outside — a snapshot or
// reset, WAL replay, a replicated batch, an add on a link no provider
// wraps — so a payload that does not decode is refused there, as
// ErrCorrupt, before anything holds it.
func decodePayload(schema *subscription.Schema, link string, sid uint64, payload []byte) (subscription.Rect, error) {
	r, err := subscription.UnmarshalRect(schema, payload)
	if err != nil {
		return r, fmt.Errorf("%w: link %q sid %d payload does not decode: %v", ErrCorrupt, link, sid, err)
	}
	return r, nil
}

// linkEntries is one link's section of a snapshot: its
// name and its subscriptions as captured, listed by sid ascending and
// encoded straight into the section's bytes.
type linkEntries struct {
	name string
	list *core.Listing
}

// encodeLinks serializes links, which are sorted by name, as a snapshot
// at stream position basePos with id mark mark, into one buffer sized up
// front: each rectangle's payload is written in place, its length byte
// patched after (a payload is shorter than 128 bytes, so its length is
// one byte).
func encodeLinks(schema *subscription.Schema, links []linkEntries, basePos, mark uint64) []byte {
	attrs := schema.Attrs()
	size := len(snapMagic) + 4 + 4*binary.MaxVarintLen64
	for _, a := range attrs {
		size += binary.MaxVarintLen64 + len(a)
	}
	maxRect := 3 + 2*len(attrs)*uvarintLen(uint64(schema.MaxValue()))
	for _, l := range links {
		size += 2*binary.MaxVarintLen64 + len(l.name) + l.list.Len()*(binary.MaxVarintLen64+1+maxRect)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, snapMagic...)
	buf = binary.AppendUvarint(buf, uint64(schema.Bits()))
	buf = binary.AppendUvarint(buf, uint64(len(attrs)))
	for _, a := range attrs {
		buf = binary.AppendUvarint(buf, uint64(len(a)))
		buf = append(buf, a...)
	}
	buf = binary.AppendUvarint(buf, basePos)
	buf = binary.AppendUvarint(buf, mark)
	buf = binary.AppendUvarint(buf, uint64(len(links)))
	for _, l := range links {
		buf = binary.AppendUvarint(buf, uint64(len(l.name)))
		buf = append(buf, l.name...)
		buf = binary.AppendUvarint(buf, uint64(l.list.Len()))
		for sid, r := range l.list.All() {
			buf = binary.AppendUvarint(buf, sid)
			at := len(buf)
			buf = r.AppendBinary(append(buf, 0), schema)
			buf[at] = byte(len(buf) - at - 1)
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// snapCursor tracks a decode position. The first truncation sticks in
// err, as ErrCorrupt naming what it cut; every read after it yields zero.
type snapCursor struct {
	rest []byte
	err  error
}

func (c *snapCursor) uvarint(what string) uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.rest)
	if n <= 0 {
		c.err = fmt.Errorf("%w: snapshot truncated at %s", ErrCorrupt, what)
		return 0
	}
	c.rest = c.rest[n:]
	return v
}

// bytes reads a length-prefixed field.
func (c *snapCursor) bytes(what string) []byte {
	if c.err != nil {
		return nil
	}
	n, k := binary.Uvarint(c.rest)
	if k <= 0 || n > uint64(len(c.rest)-k) {
		c.err = fmt.Errorf("%w: snapshot truncated at %s", ErrCorrupt, what)
		return nil
	}
	out := c.rest[k : k+int(n)]
	c.rest = c.rest[k+int(n):]
	return out
}

// image is a decoded snapshot: its schema, state, basePos and mark.
type image struct {
	schema *subscription.Schema
	links  linkTables
	pos    uint64
	mark   uint64
}

// decodeSnapshot parses and checksum-verifies a snapshot image, decoding
// every payload into its rectangle. A nil schema decodes under the one
// the header names (the fuzz targets' mode), and a header that names no
// valid schema is ErrCorrupt; otherwise bits and attribute names must
// match schema exactly.
func decodeSnapshot(schema *subscription.Schema, data []byte) (image, error) {
	if len(data) < len(snapMagic)+4 {
		return image{}, fmt.Errorf("%w: snapshot has bad magic", ErrCorrupt)
	}
	magic := string(data[:len(snapMagic)])
	if magic != snapMagic && magic != snapMagicV2 {
		return image{}, fmt.Errorf("%w: snapshot has bad magic", ErrCorrupt)
	}
	body, crc := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(crc) {
		return image{}, fmt.Errorf("%w: snapshot checksum mismatch", ErrCorrupt)
	}
	c := &snapCursor{rest: body[len(snapMagic):]}
	bits := c.uvarint("schema bits")
	numAttrs := c.uvarint("attr count")
	attrs := make([]string, 0, min(numAttrs, subscription.MaxAttrs))
	for i := uint64(0); i < numAttrs && c.err == nil; i++ {
		attrs = append(attrs, string(c.bytes("attr name")))
	}
	if c.err != nil {
		return image{}, c.err
	}
	if schema == nil {
		var err error
		if schema, err = subscription.NewSchema(int(bits), attrs...); err != nil {
			return image{}, fmt.Errorf("%w: snapshot header names no valid schema: %v", ErrCorrupt, err)
		}
	}
	if int(bits) != schema.Bits() || !slices.Equal(attrs, schema.Attrs()) {
		return image{}, fmt.Errorf("%w: snapshot has %d bits and attributes %q, schema has %d and %q",
			ErrSchemaMismatch, bits, attrs, schema.Bits(), schema.Attrs())
	}
	img := image{schema: schema, links: make(linkTables)}
	img.pos = c.uvarint("stream base position")
	if magic == snapMagic {
		img.mark = c.uvarint("id mark")
	}
	numLinks := c.uvarint("link count")
	for i := uint64(0); i < numLinks && c.err == nil; i++ {
		name := string(c.bytes("link name"))
		count := c.uvarint("entry count")
		if _, dup := img.links[name]; dup && c.err == nil {
			return image{}, fmt.Errorf("%w: duplicate link %q in snapshot", ErrCorrupt, name)
		}
		// Sized once for the section, but never past what its bytes can
		// hold: an entry takes at least two.
		t := new(idtable.Table[subscription.Rect])
		t.Grow(int(min(count, uint64(len(c.rest)/2))))
		img.links[name] = t
		for j, prev := uint64(0), uint64(0); j < count && c.err == nil; j++ {
			sid := c.uvarint("entry sid")
			payload := c.bytes("payload")
			if c.err != nil {
				break
			}
			if j > 0 && sid <= prev {
				return image{}, fmt.Errorf("%w: snapshot entries out of order in link %q", ErrCorrupt, name)
			}
			prev = sid
			r, err := decodePayload(schema, name, sid, payload)
			if err != nil {
				return image{}, err
			}
			t.Put(sid, r)
		}
	}
	if c.err != nil {
		return image{}, c.err
	}
	if len(c.rest) != 0 {
		return image{}, fmt.Errorf("%w: %d trailing snapshot bytes", ErrCorrupt, len(c.rest))
	}
	return img, nil
}

// writeSnapshot durably lands encoded snapshot bytes under seq: temp
// file, fsync, atomic rename, directory sync. A crash at any point leaves
// either no snap-<seq>.snap or a complete one — never a torn snapshot
// under the final name.
func writeSnapshot(dir string, seq uint64, data []byte) error {
	tmp := filepath.Join(dir, snapshotName(seq)+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("persist: creating snapshot: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("persist: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("persist: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapshotName(seq))); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: publishing snapshot: %w", err)
	}
	// The rename must itself survive a crash, or compaction could delete
	// segments a recovery would still need.
	return syncDir(dir)
}
