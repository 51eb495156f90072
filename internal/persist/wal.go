package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
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
// While a segment is open its file is longer than its records: the writer
// reserves space ahead of them (fallocate, 64 KiB first, doubling on
// demand) and maps the file shared, so an append is a copy into the page
// cache and no syscall. The reserve reads as zeros, and a record is never
// 0 bytes long, so a zero byte where a record length belongs, followed
// only by zeros to the end of the file, is padding: replay stops there
// cleanly in any segment. Rotation and Close truncate a segment to its
// last record, so a cleanly closed segment is records only.
//
// Crash tolerance: appends are strictly sequential, so a crash leaves at
// most a torn record at the tail of the newest segment, followed by
// padding. Replay accepts a clean prefix: a truncated or CRC-broken tail
// record in the FINAL segment — or non-zero bytes after a zero length —
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
// link is the name of the record before it: a record on the same link
// shares that string, so a run of records on one link allocates no name.
// An add's payload aliases data.
func decodeRecord(data []byte, link string) (record, []byte, error) {
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
	r, err := decodeBody(body, link)
	if err != nil {
		// The checksum verified, so this is a writer bug or hand-edited
		// state, not a crash: surface it as corruption.
		return record{}, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return r, rest, nil
}

// decodeBody decodes a checksum-verified record body; link is as for
// decodeRecord.
func decodeBody(body []byte, link string) (record, error) {
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
	if r.link = link; string(rest[:linkLen]) != link {
		r.link = string(rest[:linkLen])
	}
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
		r.payload = rest[n:]
	} else if len(rest) != 0 {
		return record{}, fmt.Errorf("%d trailing bytes in remove record", len(rest))
	}
	return r, nil
}

// replaySegment decodes every record of one segment file into apply,
// stopping at the first error apply returns. final marks the newest
// segment, whose torn tail is a tolerated crash artifact; anywhere else
// damage is ErrCorrupt.
func replaySegment(path string, final bool, apply func(record) error) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("persist: reading segment: %w", err)
	}
	return replayBytes(data, filepath.Base(path), final, apply)
}

// replayBytes decodes a segment's raw bytes (the fuzz targets drive it
// directly).
func replayBytes(data []byte, name string, final bool, apply func(record) error) error {
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != walMagic {
		if final && len(data) < len(walMagic) && strings.HasPrefix(walMagic, string(data)) {
			return nil // crash between create and header write
		}
		return fmt.Errorf("%w: segment %s has bad magic", ErrCorrupt, name)
	}
	rest := data[len(walMagic):]
	var r record
	for len(rest) > 0 {
		var err error
		if rest[0] == 0 {
			if allZero(rest) {
				return nil // the open segment's unwritten reserve
			}
			err = errTorn
		} else {
			r, rest, err = decodeRecord(rest, r.link)
		}
		if errors.Is(err, errTorn) {
			if final {
				return nil
			}
			return fmt.Errorf("%w: torn record before the final segment (%s)", ErrCorrupt, name)
		}
		if err == nil {
			err = apply(r)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// allZero reports whether b holds only zero bytes.
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// walWriter appends records to the current segment, rotating to a fresh
// file once SegmentBytes is crossed. The segment is mapped shared: an
// append is a copy into m, and the copied bytes are in the page cache —
// where a process crash cannot take them, exactly like written ones — the
// moment the copy ends. An fsync of the file writes the mapped pages back.
type walWriter struct {
	dir     string
	opts    Options
	f       *os.File
	m       []byte // f mapped shared; len(m) is the segment's reserved size
	seq     uint64
	name    string // segmentName(seq), formatted once per segment
	written int64  // where the last record ends; padding lies beyond
	buf     []byte // appendBatch's encode buffer, reused under the store's lock
	// dirty marks bytes copied into the current segment since its last
	// fsync — the group-commit tick syncs only when set, so an idle
	// daemon's interval timer costs nothing.
	dirty bool
	// err wedges the writer: set when a group-commit sync failed, so
	// records acked in the window may not survive a power failure. Every
	// later append reports it.
	err error
}

// walMapInitial is a fresh segment's first reservation. The mapping
// doubles from there as records need it, so opening a store, or a small
// one, reserves 64 KiB rather than SegmentBytes.
const walMapInitial = 64 << 10

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

// createSegment creates the segment file for seq, writes its header and
// maps its first reservation, without touching the writer's current
// segment. A file that fails half way is removed: it holds no record, and
// left behind it would fail the next attempt's exclusive create.
func (w *walWriter) createSegment(seq uint64) (*os.File, []byte, error) {
	name := segmentName(seq)
	path := filepath.Join(w.dir, name)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: creating segment: %w", err)
	}
	m, err := w.initSegment(f, name)
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, nil, err
	}
	return f, m, nil
}

// initSegment writes a fresh file's header, through the crash-injection
// hook — with a write, so a crash before the reservation leaves the
// header-only (or empty) file replay has always accepted — then reserves
// and maps the file and makes its directory entry durable.
func (w *walWriter) initSegment(f *os.File, name string) ([]byte, error) {
	if err := w.hook(name, 0, []byte(walMagic)); err != nil {
		return nil, err
	}
	if _, err := f.Write([]byte(walMagic)); err != nil {
		return nil, fmt.Errorf("persist: writing segment: %w", err)
	}
	m, err := mapSegment(f, int64(len(walMagic)), walMapInitial)
	if err != nil {
		return nil, err
	}
	// The segment's directory entry must survive a crash too, or a synced
	// record could sit in a file recovery never lists.
	if err := syncDir(w.dir); err != nil {
		syscall.Munmap(m) //nolint:errcheck // the mapping is abandoned either way
		return nil, err
	}
	return m, nil
}

// hook passes a write to the crash-injection hook, when one is installed.
func (w *walWriter) hook(name string, off int64, p []byte) error {
	if w.opts.WriteHook == nil {
		return nil
	}
	return w.opts.WriteHook(name, off, p)
}

// mapSegment extends the file from its end at from to size bytes of
// reserve and maps all of it shared. fallocate makes a full disk an error
// here instead of a SIGBUS at the page fault of a later copy; where the
// filesystem does not support it the reserve is written as zeros.
func mapSegment(f *os.File, from, size int64) ([]byte, error) {
	err := fallocate(f, from, size)
	if errors.Is(err, syscall.EOPNOTSUPP) {
		err = writeZeros(f, from, size)
	}
	if err != nil {
		return nil, fmt.Errorf("persist: reserving segment space: %w", err)
	}
	if int64(int(size)) != size {
		return nil, fmt.Errorf("persist: a %d-byte segment does not fit the address space", size)
	}
	m, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("persist: mapping segment: %w", err)
	}
	return m, nil
}

// writeZeros fills [from, to) of f with zeros, a chunk at a time.
func writeZeros(f *os.File, from, to int64) error {
	zeros := make([]byte, min(to-from, walMapInitial))
	for off := from; off < to; off += int64(len(zeros)) {
		if _, err := f.WriteAt(zeros[:min(to-off, int64(len(zeros)))], off); err != nil {
			return err
		}
	}
	return nil
}

// grow doubles the mapping until it holds end bytes. The larger mapping
// is reserved and mapped before the old one is unmapped, so a failed grow
// (a full disk) leaves the writer on its old mapping, still appendable.
func (w *walWriter) grow(end int64) error {
	size := int64(len(w.m))
	for size < end {
		size *= 2
	}
	m, err := mapSegment(w.f, int64(len(w.m)), size)
	if err != nil {
		return err
	}
	syscall.Munmap(w.m) //nolint:errcheck // the new mapping already serves every byte
	w.m = m
	return nil
}

// keepBufBytes is the largest encode buffer the writer keeps between
// appends: single records and small batches reuse it, a bulk load's arena
// is dropped instead of pinned.
const keepBufBytes = 4 << 10

// appendBatch encodes a whole batch into one buffer and lands it with a
// single copy (and, with Sync, a single fsync), rotating first when the
// segment is full. The new segment's seq is current+1. It returns the
// bytes it landed, the batch's records in their wire form, valid until
// the next append.
func (w *walWriter) appendBatch(rs []record) ([]byte, error) {
	buf := w.buf[:0]
	for _, r := range rs {
		buf = appendRecord(buf, r)
	}
	if cap(buf) <= keepBufBytes {
		w.buf = buf
	}
	if err := w.appendBytes(buf); err != nil {
		return nil, err
	}
	return buf, nil
}

func (w *walWriter) appendBytes(buf []byte) error {
	if w.err != nil {
		return w.err
	}
	if w.written >= w.opts.SegmentBytes && w.opts.SegmentBytes > 0 {
		if err := w.rotate(); err != nil {
			return err
		}
	}
	if err := w.put(buf); err != nil {
		return err
	}
	w.dirty = true
	if w.opts.Sync {
		if err := w.f.Sync(); err != nil {
			// The record is reported failed (callers roll their state
			// back), so it must not survive on disk to resurrect at
			// recovery: turn it back into padding.
			clear(w.m[w.written : w.written+int64(len(buf))])
			return fmt.Errorf("persist: syncing segment: %w", err)
		}
		w.dirty = false
	}
	w.written += int64(len(buf))
	return nil
}

// put lands p after the last record: the crash-injection hook, then a copy
// into the mapping, grown first when p runs past it. A vetoed or failed
// put copies nothing, so the segment still ends at its last record.
func (w *walWriter) put(p []byte) error {
	if err := w.hook(w.name, w.written, p); err != nil {
		return err
	}
	if end := w.written + int64(len(p)); end > int64(len(w.m)) {
		if err := w.grow(end); err != nil {
			return err
		}
	}
	copy(w.m[w.written:], p)
	return nil
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

// rotate opens the next segment, then retires the current one (if any:
// Open rotates a fresh writer onto its first segment). The new segment is
// created FIRST: if creation fails (disk full), the writer keeps its
// current segment and stays append-able — a failed rotation must not
// wedge the store. A crash between the two steps leaves the retired
// segment padded, which replay reads as the end of its records.
func (w *walWriter) rotate() error {
	f, m, err := w.createSegment(w.seq + 1)
	if err != nil {
		return err
	}
	old, oldMap, oldEnd := w.f, w.m, w.written
	w.f, w.m, w.seq, w.name, w.written = f, m, w.seq+1, segmentName(w.seq+1), int64(len(walMagic))
	w.dirty = true // the fresh segment's header is not fsynced yet
	if old != nil {
		if err := closeSegment(old, oldMap, oldEnd); err != nil {
			return fmt.Errorf("persist: retiring segment: %w", err)
		}
	}
	return nil
}

func (w *walWriter) close() error {
	if w.f == nil {
		return nil
	}
	err := closeSegment(w.f, w.m, w.written)
	w.f, w.m = nil, nil
	return err
}

// closeSegment retires a segment: unmap it, cut the reserve off at end,
// where its last record ends, fsync and close. What stays on disk is
// byte for byte what a writer without a reserve would have left.
func closeSegment(f *os.File, m []byte, end int64) error {
	err := syscall.Munmap(m)
	if terr := f.Truncate(end); err == nil {
		err = terr
	}
	if serr := f.Sync(); err == nil {
		err = serr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// listSeqs returns the sorted sequence numbers of the files in dir
// matching prefix/suffix.
func listSeqs(dir, prefix, suffix string) ([]uint64, error) {
	entries, err := readDir(dir)
	if err != nil {
		return nil, err
	}
	return seqsIn(entries, prefix, suffix), nil
}

// readDir returns dir's entries in directory order: one read of the
// directory, where os.ReadDir also sorts them by name.
func readDir(dir string) ([]os.DirEntry, error) {
	d, err := os.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("persist: reading data dir: %w", err)
	}
	defer d.Close()
	entries, err := d.ReadDir(-1)
	if err != nil {
		return nil, fmt.Errorf("persist: reading data dir: %w", err)
	}
	return entries, nil
}

// seqsIn returns the sorted sequence numbers of the files among entries
// matching prefix/suffix; a directory is no segment or snapshot, whatever
// its name.
func seqsIn(entries []os.DirEntry, prefix, suffix string) []uint64 {
	var seqs []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSeq(e.Name(), prefix, suffix); ok {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)
	return seqs
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
