package persist

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"sfccover/internal/core"
	"sfccover/internal/idtable"
	"sfccover/internal/subscription"
)

// A snapshot is one self-validating file, snap-<seq>.snap, holding the
// full subscription state of every link namespace at a point in time. The
// seq names the first WAL segment whose records post-date the snapshot:
// recovery loads the newest valid snapshot and replays only segments with
// seq >= it.
//
//	snapshot: "SFCS2\n"
//	          | uvarint bits | uvarint numAttrs | (uvarint len | name)*
//	          | uvarint basePos
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
// basePos is the replication stream position the snapshot covers: the
// count of WAL records ever applied in this dir's history up to the
// snapshot point. Recovery seeds Store.Pos from it (plus whatever the WAL
// replays on top), which is how a follower knows where to resume the
// primary's stream after its own restart. SFCS2 bumped the magic when the
// field was added; SFCS1 dirs predate any release and are refused as
// corrupt rather than carrying a second decode path forever.
const snapMagic = "SFCS2\n"

// Entry is one persisted subscription: its durable sid and its binary
// wire payload.
type Entry struct {
	SID     uint64
	Payload []byte
}

// sortedEntries lists one link's mirror by sid ascending, the order the
// snapshot stores. The payloads are the mirror's own.
func sortedEntries(state *idtable.Table[[]byte]) []Entry {
	out := make([]Entry, 0, state.Len())
	for sid, payload := range state.All() {
		out = append(out, Entry{SID: sid, Payload: payload})
	}
	slices.SortFunc(out, func(a, b Entry) int { return cmp.Compare(a.SID, b.SID) })
	return out
}

// linkEntries is one link's section of a snapshot or a reset dump: its
// name and its subscriptions by sid ascending — an un-wrapped link's
// mirror entries, or a wrapped link's held rectangles, which are encoded
// straight into the section's bytes.
type linkEntries struct {
	name    string
	entries []Entry
	held    []core.Held
}

func (l linkEntries) len() int { return len(l.entries) + len(l.held) }

// heldPayloads hands fn each held rectangle's wire payload under its sid,
// all cut from one arena sized to them.
func heldPayloads(schema *subscription.Schema, held []core.Held, fn func(sid uint64, payload []byte)) {
	var scratch [subscription.MaxWireLen]byte
	size := 0
	for _, h := range held {
		size += len(h.Rect.AppendBinary(scratch[:0], schema))
	}
	arena := make([]byte, 0, size)
	for _, h := range held {
		start := len(arena)
		arena = h.Rect.AppendBinary(arena, schema)
		fn(h.ID, arena[start:len(arena):len(arena)])
	}
}

// encodeSnapshot serializes the per-link state. links maps link name to
// sid -> payload; basePos is the replication stream position the state
// corresponds to.
func encodeSnapshot(schema *subscription.Schema, links map[string]*idtable.Table[[]byte], basePos uint64) []byte {
	sections := make([]linkEntries, 0, len(links))
	for name, state := range links {
		sections = append(sections, linkEntries{name: name, entries: sortedEntries(state)})
	}
	slices.SortFunc(sections, func(a, b linkEntries) int { return strings.Compare(a.name, b.name) })
	return encodeLinks(schema, sections, basePos)
}

// encodeLinks serializes links, which are sorted by name, as a snapshot
// at stream position basePos, into one buffer sized up front: a held
// rectangle's payload is written in place, its length byte patched after
// (a payload is shorter than 128 bytes, so its length is one byte).
func encodeLinks(schema *subscription.Schema, links []linkEntries, basePos uint64) []byte {
	attrs := schema.Attrs()
	size := len(snapMagic) + 4 + 3*binary.MaxVarintLen64
	for _, a := range attrs {
		size += binary.MaxVarintLen64 + len(a)
	}
	maxRect := 3 + 2*len(attrs)*uvarintLen(uint64(schema.MaxValue()))
	for _, l := range links {
		size += 2*binary.MaxVarintLen64 + len(l.name) + len(l.held)*(binary.MaxVarintLen64+1+maxRect)
		for _, e := range l.entries {
			size += binary.MaxVarintLen64 + uvarintLen(uint64(len(e.Payload))) + len(e.Payload)
		}
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
	buf = binary.AppendUvarint(buf, uint64(len(links)))
	for _, l := range links {
		buf = binary.AppendUvarint(buf, uint64(len(l.name)))
		buf = append(buf, l.name...)
		buf = binary.AppendUvarint(buf, uint64(l.len()))
		for _, e := range l.entries {
			buf = binary.AppendUvarint(buf, e.SID)
			buf = binary.AppendUvarint(buf, uint64(len(e.Payload)))
			buf = append(buf, e.Payload...)
		}
		for _, h := range l.held {
			buf = binary.AppendUvarint(buf, h.ID)
			at := len(buf)
			buf = h.Rect.AppendBinary(append(buf, 0), schema)
			buf[at] = byte(len(buf) - at - 1)
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// snapCursor tracks a decode position with uniform truncation errors.
type snapCursor struct {
	rest []byte
}

func (c *snapCursor) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(c.rest)
	if n <= 0 {
		return 0, fmt.Errorf("%w: snapshot truncated at %s", ErrCorrupt, what)
	}
	c.rest = c.rest[n:]
	return v, nil
}

func (c *snapCursor) bytes(n uint64, what string) ([]byte, error) {
	if n > uint64(len(c.rest)) {
		return nil, fmt.Errorf("%w: snapshot truncated at %s", ErrCorrupt, what)
	}
	out := c.rest[:n]
	c.rest = c.rest[n:]
	return out, nil
}

// decodeSnapshot parses and checksum-verifies a snapshot file's bytes,
// returning the per-link state and the stream basePos it covers. A nil
// schema skips the schema check (the fuzz target's mode); otherwise bits
// and attribute names must match exactly.
func decodeSnapshot(schema *subscription.Schema, data []byte) (map[string]*idtable.Table[[]byte], uint64, error) {
	if len(data) < len(snapMagic)+4 || string(data[:len(snapMagic)]) != snapMagic {
		return nil, 0, fmt.Errorf("%w: snapshot has bad magic", ErrCorrupt)
	}
	body, crc := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(crc) {
		return nil, 0, fmt.Errorf("%w: snapshot checksum mismatch", ErrCorrupt)
	}
	c := &snapCursor{rest: body[len(snapMagic):]}
	bits, err := c.uvarint("schema bits")
	if err != nil {
		return nil, 0, err
	}
	numAttrs, err := c.uvarint("attr count")
	if err != nil {
		return nil, 0, err
	}
	attrs := make([]string, 0, numAttrs)
	for i := uint64(0); i < numAttrs; i++ {
		n, err := c.uvarint("attr name length")
		if err != nil {
			return nil, 0, err
		}
		name, err := c.bytes(n, "attr name")
		if err != nil {
			return nil, 0, err
		}
		attrs = append(attrs, string(name))
	}
	if schema != nil {
		if int(bits) != schema.Bits() || len(attrs) != schema.NumAttrs() {
			return nil, 0, fmt.Errorf("%w: snapshot has %d bits and %d attrs, schema has %d and %d",
				ErrSchemaMismatch, bits, len(attrs), schema.Bits(), schema.NumAttrs())
		}
		for i, a := range schema.Attrs() {
			if attrs[i] != a {
				return nil, 0, fmt.Errorf("%w: snapshot attribute %d is %q, schema says %q", ErrSchemaMismatch, i, attrs[i], a)
			}
		}
	}
	basePos, err := c.uvarint("stream base position")
	if err != nil {
		return nil, 0, err
	}
	numLinks, err := c.uvarint("link count")
	if err != nil {
		return nil, 0, err
	}
	links := make(map[string]*idtable.Table[[]byte])
	for i := uint64(0); i < numLinks; i++ {
		n, err := c.uvarint("link name length")
		if err != nil {
			return nil, 0, err
		}
		nameB, err := c.bytes(n, "link name")
		if err != nil {
			return nil, 0, err
		}
		name := string(nameB)
		if _, dup := links[name]; dup {
			return nil, 0, fmt.Errorf("%w: duplicate link %q in snapshot", ErrCorrupt, name)
		}
		count, err := c.uvarint("entry count")
		if err != nil {
			return nil, 0, err
		}
		state := new(idtable.Table[[]byte])
		prev, first := uint64(0), true
		for j := uint64(0); j < count; j++ {
			sid, err := c.uvarint("entry sid")
			if err != nil {
				return nil, 0, err
			}
			if !first && sid <= prev {
				return nil, 0, fmt.Errorf("%w: snapshot entries out of order in link %q", ErrCorrupt, name)
			}
			prev, first = sid, false
			plen, err := c.uvarint("payload length")
			if err != nil {
				return nil, 0, err
			}
			payload, err := c.bytes(plen, "payload")
			if err != nil {
				return nil, 0, err
			}
			state.Put(sid, append([]byte(nil), payload...))
		}
		links[name] = state
	}
	if len(c.rest) != 0 {
		return nil, 0, fmt.Errorf("%w: %d trailing snapshot bytes", ErrCorrupt, len(c.rest))
	}
	return links, basePos, nil
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
