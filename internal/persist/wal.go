package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// The write-ahead log is a sequence of segment files named
// wal-<seq>.log, seq a 16-digit hex number that increases monotonically
// across rotations and snapshots. Each segment starts with a 6-byte magic
// and carries length-prefixed, CRC-protected records:
//
//	segment: "SFCW1\n" | record*
//	record:  uvarint bodyLen | body | crc32(body) (4 bytes LE)
//	body:    op byte ('A' add / 'R' remove)
//	         | uvarint len(link) | link
//	         | uvarint sid
//	         | (add only) uvarint len(payload) | payload
//
// The payload is the subscription's binary wire encoding — the same bytes
// brokers exchange — so the persisted form is schema-checked on decode and
// stays compact (the subscription set, never the derived index).
//
// Crash tolerance: appends are strictly sequential, so a crash leaves at
// most a torn record at the tail of the newest segment. Replay accepts a
// clean prefix: a truncated or CRC-broken tail record in the FINAL segment
// ends replay silently (the record never committed); the same damage in an
// earlier segment — which a crash cannot produce — is reported as
// ErrCorrupt. Records are idempotent under re-replay (an add overwrites,
// a remove of an absent sid is a no-op), so a duplicated segment cannot
// diverge recovered state.
const (
	walMagic      = "SFCW1\n"
	opAdd    byte = 'A'
	opRem    byte = 'R'
)

// Typed failures of the recovery path.
var (
	// ErrCorrupt reports durable state damaged in a way a crash cannot
	// explain: a broken record before the final segment's tail, a snapshot
	// whose checksum does not verify, bad magic bytes. Recovery refuses to
	// guess at such state rather than silently dropping subscriptions.
	ErrCorrupt = errors.New("persist: durable state is corrupt")
	// ErrClosed reports an operation on a closed Store.
	ErrClosed = errors.New("persist: store is closed")
	// ErrSchemaMismatch reports a data dir written under a different
	// schema (bit width or attribute names differ).
	ErrSchemaMismatch = errors.New("persist: data dir was written under a different schema")
)

// record is one decoded WAL entry.
type record struct {
	op      byte
	link    string
	sid     uint64
	payload []byte
}

// appendRecord encodes one record onto buf in the segment wire form. The
// body length is computed up front so the body is written straight into
// buf — no per-record temporary.
func appendRecord(buf []byte, r record) []byte {
	n := 1 + uvarintLen(uint64(len(r.link))) + len(r.link) + uvarintLen(r.sid)
	if r.op == opAdd {
		n += uvarintLen(uint64(len(r.payload))) + len(r.payload)
	}
	buf = binary.AppendUvarint(buf, uint64(n))
	body := len(buf)
	buf = append(buf, r.op)
	buf = binary.AppendUvarint(buf, uint64(len(r.link)))
	buf = append(buf, r.link...)
	buf = binary.AppendUvarint(buf, r.sid)
	if r.op == opAdd {
		buf = binary.AppendUvarint(buf, uint64(len(r.payload)))
		buf = append(buf, r.payload...)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[body:]))
}

// uvarintLen is the encoded size of v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// errTorn marks an incomplete or checksum-broken tail; replaySegment
// translates it to a clean stop (final segment) or ErrCorrupt (earlier).
var errTorn = errors.New("persist: torn record")

// decodeRecord decodes one record from data, returning the remainder.
func decodeRecord(data []byte) (record, []byte, error) {
	bodyLen, n := binary.Uvarint(data)
	if n <= 0 {
		return record{}, nil, errTorn
	}
	rest := data[n:]
	if bodyLen > uint64(len(rest)) || bodyLen+4 > uint64(len(rest)) {
		return record{}, nil, errTorn
	}
	body, crc := rest[:bodyLen], rest[bodyLen:bodyLen+4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(crc) {
		return record{}, nil, errTorn
	}
	rest = rest[bodyLen+4:]
	r, err := decodeBody(body)
	if err != nil {
		// The checksum verified, so this is a writer bug or hand-edited
		// state, not a crash: surface it as corruption.
		return record{}, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return r, rest, nil
}

// decodeBody decodes a checksum-verified record body.
func decodeBody(body []byte) (record, error) {
	if len(body) < 1 {
		return record{}, errors.New("empty record body")
	}
	r := record{op: body[0]}
	if r.op != opAdd && r.op != opRem {
		return record{}, fmt.Errorf("unknown record op 0x%02x", r.op)
	}
	rest := body[1:]
	linkLen, n := binary.Uvarint(rest)
	if n <= 0 || linkLen > uint64(len(rest)-n) {
		return record{}, errors.New("truncated link")
	}
	rest = rest[n:]
	r.link = string(rest[:linkLen])
	rest = rest[linkLen:]
	r.sid, n = binary.Uvarint(rest)
	if n <= 0 {
		return record{}, errors.New("truncated sid")
	}
	rest = rest[n:]
	if r.op == opAdd {
		payLen, n := binary.Uvarint(rest)
		if n <= 0 || payLen != uint64(len(rest)-n) {
			return record{}, errors.New("payload length does not match record body")
		}
		r.payload = append([]byte(nil), rest[n:]...)
	} else if len(rest) != 0 {
		return record{}, fmt.Errorf("%d trailing bytes in remove record", len(rest))
	}
	return r, nil
}

// replaySegment decodes every record of one segment file into apply.
// final marks the newest segment, whose torn tail is a tolerated crash
// artifact; anywhere else damage is ErrCorrupt.
func replaySegment(path string, final bool, apply func(record)) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("persist: reading segment: %w", err)
	}
	return replayBytes(data, filepath.Base(path), final, apply)
}

// replayBytes decodes a segment's raw bytes (the fuzz targets drive it
// directly).
func replayBytes(data []byte, name string, final bool, apply func(record)) error {
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != walMagic {
		if final && len(data) < len(walMagic) && strings.HasPrefix(walMagic, string(data)) {
			return nil // crash between create and header write
		}
		return fmt.Errorf("%w: segment %s has bad magic", ErrCorrupt, name)
	}
	rest := data[len(walMagic):]
	for len(rest) > 0 {
		var r record
		var err error
		r, rest, err = decodeRecord(rest)
		if errors.Is(err, errTorn) {
			if final {
				return nil
			}
			return fmt.Errorf("%w: torn record before the final segment (%s)", ErrCorrupt, name)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		apply(r)
	}
	return nil
}

// walWriter appends records to the current segment, rotating to a fresh
// file once SegmentBytes is crossed.
type walWriter struct {
	dir     string
	opts    Options
	f       *os.File
	seq     uint64
	name    string // segmentName(seq), formatted once per segment
	written int64
	buf     []byte // appendBatch's encode buffer, reused under the store's lock
	// dirty marks bytes written to the current segment since its last
	// fsync — the group-commit tick syncs only when set, so an idle
	// daemon's interval timer costs nothing.
	dirty bool
	// err wedges the writer: set when a failed append could not be
	// snipped back to the last record boundary, so continuing would put
	// acked records after torn bytes that replay silently drops. Every
	// later append reports it.
	err error
}

func segmentName(seq uint64) string  { return fmt.Sprintf("wal-%016x.log", seq) }
func snapshotName(seq uint64) string { return fmt.Sprintf("snap-%016x.snap", seq) }

// parseSeq extracts the sequence number from a segment or snapshot name.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	seq, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 16, 64)
	return seq, err == nil
}

// createSegment creates the segment file for seq and writes its header,
// without touching the writer's current segment.
func (w *walWriter) createSegment(seq uint64) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(w.dir, segmentName(seq)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: creating segment: %w", err)
	}
	if err := w.write(f, segmentName(seq), 0, []byte(walMagic)); err != nil {
		f.Close()
		return nil, err
	}
	// The segment's directory entry must survive a crash too, or a synced
	// record could sit in a file recovery never lists.
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// openSegment makes seq the writer's current segment.
func (w *walWriter) openSegment(seq uint64) error {
	f, err := w.createSegment(seq)
	if err != nil {
		return err
	}
	w.f, w.seq, w.name, w.written = f, seq, segmentName(seq), int64(len(walMagic))
	w.dirty = true // header written, not yet fsynced
	return nil
}

// write puts p at the segment's current offset, through the crash-
// injection hook when one is installed.
func (w *walWriter) write(f *os.File, name string, off int64, p []byte) error {
	if w.opts.WriteHook != nil {
		if err := w.opts.WriteHook(name, off, p); err != nil {
			return err
		}
	}
	if _, err := f.Write(p); err != nil {
		return fmt.Errorf("persist: writing segment: %w", err)
	}
	return nil
}

// keepBufBytes is the largest encode buffer the writer keeps between
// appends: single records and small batches reuse it, a bulk load's arena
// is dropped instead of pinned.
const keepBufBytes = 4 << 10

// appendBatch encodes a whole batch into one buffer and lands it with a
// single write (and, with Sync, a single fsync), rotating first when the
// segment is full. The new segment's seq is current+1.
func (w *walWriter) appendBatch(rs []record) (int, error) {
	buf := w.buf[:0]
	for _, r := range rs {
		buf = appendRecord(buf, r)
	}
	if cap(buf) <= keepBufBytes {
		w.buf = buf
	}
	return w.appendBytes(buf)
}

func (w *walWriter) appendBytes(buf []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.written >= w.opts.SegmentBytes && w.opts.SegmentBytes > 0 {
		if err := w.rotate(); err != nil {
			return 0, err
		}
	}
	if err := w.write(w.f, w.name, w.written, buf); err != nil {
		w.snip(err)
		return 0, err
	}
	w.dirty = true
	if w.opts.Sync {
		if err := w.f.Sync(); err != nil {
			// The record is reported failed (callers roll their state
			// back), so it must not survive on disk to resurrect at
			// recovery: snip it.
			w.snip(err)
			return 0, fmt.Errorf("persist: syncing segment: %w", err)
		}
		w.dirty = false
	}
	w.written += int64(len(buf))
	return len(buf), nil
}

// sync is the group-commit tick: one fsync covers every append since the
// last one. A failed interval sync wedges the writer — records appended
// during the window were acked under a bounded-loss promise that just
// broke, so every later append surfaces the failure instead of quietly
// widening the window.
func (w *walWriter) sync() error {
	if w.err != nil {
		return w.err
	}
	if !w.dirty || w.f == nil {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("persist: group-commit sync failed: %w", err)
		return w.err
	}
	w.dirty = false
	return nil
}

// snip restores the segment to its last record boundary after a failed
// append — a partial write would otherwise sit as torn bytes mid-file,
// and replay drops everything after a torn record. If the boundary
// cannot be restored, the writer wedges: all later appends report the
// failure instead of acking records recovery would silently lose.
func (w *walWriter) snip(cause error) {
	if err := w.f.Truncate(w.written); err != nil {
		w.err = fmt.Errorf("persist: wal writer failed: %v (and truncating to the last record boundary failed: %v)", cause, err)
		return
	}
	if _, err := w.f.Seek(w.written, 0); err != nil {
		w.err = fmt.Errorf("persist: wal writer failed: %v (and seeking to the last record boundary failed: %v)", cause, err)
	}
}

// rotate opens the next segment, then retires the current one. The new
// segment is created FIRST: if creation fails (disk full), the writer
// keeps its current segment and stays append-able — a failed rotation
// must not wedge the store.
func (w *walWriter) rotate() error {
	f, err := w.createSegment(w.seq + 1)
	if err != nil {
		return err
	}
	old := w.f
	w.f, w.seq, w.name, w.written = f, w.seq+1, segmentName(w.seq+1), int64(len(walMagic))
	w.dirty = true // the fresh segment's header is not fsynced yet
	if old != nil {
		if err := old.Sync(); err != nil {
			old.Close()
			return fmt.Errorf("persist: syncing retired segment: %w", err)
		}
		if err := old.Close(); err != nil {
			return fmt.Errorf("persist: closing retired segment: %w", err)
		}
	}
	return nil
}

func (w *walWriter) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// listSeqs returns the sorted sequence numbers of the files in dir
// matching prefix/suffix.
func listSeqs(dir, prefix, suffix string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("persist: reading data dir: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSeq(e.Name(), prefix, suffix); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// syncDir flushes directory metadata so renames and creates survive a
// crash. Filesystems that do not implement directory fsync report ENOTSUP
// or EINVAL; that documented pair is tolerated (the create/rename itself
// still happened), but any other failure is surfaced to the caller —
// group commit must not claim durability the directory cannot provide.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("persist: opening dir for metadata sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.ENOTSUP) && !errors.Is(err, syscall.EINVAL) {
		return fmt.Errorf("persist: syncing dir metadata: %w", err)
	}
	return nil
}
