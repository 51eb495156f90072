package sfcd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/iotest"
	"time"
	"unsafe"
)

// frameCorpus is one request and one response per layout the codec
// knows, with every optional field exercised both present and absent.
func frameCorpus() (reqs []Request, resps []Response) {
	sub := []byte{0x51, 2, 10, 1, 5, 0, 0xff, 0x07}
	reqs = []Request{
		{ID: 1, Op: OpPing},
		{ID: 2, Op: OpHello},
		{ID: 3, Op: OpSubscribe, Payload: sub},
		{ID: 300, Op: OpInsert, Link: "b0-n1", Payload: sub},
		{ID: 5, Op: OpSubscribeBatch, Link: "l", Payloads: [][]byte{sub, []byte("!!!"), sub}},
		{ID: 6, Op: OpUnsubscribe, SID: 1 << 40},
		{ID: 7, Op: OpUnsubscribeBatch, SIDs: []uint64{1, 128, 1 << 33}},
		{ID: 8, Op: OpQuery, Payload: sub},
		{ID: 9, Op: OpQueryBatch, Payloads: [][]byte{sub}},
		{ID: 10, Op: OpQueryBatch},
		{ID: 12, Op: OpGet, SID: 41},
		{ID: 13, Op: OpMatch, Payload: []byte{0x45, 2, 10, 9, 9}},
		{ID: 14, Op: OpStats, Link: "x"},
		{ID: 15, Op: OpMetrics},
		{ID: 17, Op: OpSnapshot},
		{ID: 18, Op: OpUnlink, Link: "gone"},
		{ID: 19, Op: OpTrace, Payload: sub},
		{ID: 20, Op: OpSlowlog},
		{ID: 1 << 62, Op: OpReplicate, Pos: 123456},
		{ID: 22, Op: OpPromote},
	}
	resps = []Response{
		{ID: 1, Op: OpPing, OK: true},
		{ID: 2, Op: OpHello, OK: true, Bits: 10, Attrs: []string{"volume", "price"}, Shards: 8, Partition: "prefix", Mode: "approx", Role: RolePrimary},
		{ID: 3, Op: OpSubscribe, OK: true, Result: Result{SID: 41, Covered: true, CoveredBy: 17}},
		{ID: 4, Op: OpInsert, OK: true, Result: Result{SID: 1 << 50}},
		{ID: 5, Op: OpSubscribeBatch, OK: true, Results: []Result{{SID: 1}, {Error: "payload too short (3 bytes)"}, {SID: 2, Covered: true, CoveredBy: 1}}},
		{ID: 6, Op: OpUnsubscribe, OK: true, Result: Result{SID: 6}},
		{ID: 7, Op: OpUnsubscribeBatch, OK: true, Results: []Result{{SID: 1}, {SID: 128, Error: "no subscription with id 128"}}},
		{ID: 8, Op: OpQuery, OK: true, Result: Result{Covered: true, CoveredBy: 300}},
		{ID: 8, Op: OpQuery, OK: true},
		{ID: 9, Op: OpQueryBatch, OK: true, Results: []Result{{}}},
		{ID: 10, Op: OpQueryBatch, OK: true},
		{ID: 12, Op: OpGet, OK: true, Result: Result{SID: 41, Payload: sub}},
		{ID: 13, Op: OpMatch, OK: true, Result: Result{Covered: true, CoveredBy: 41}},
		{ID: 14, Op: OpStats, OK: true, Body: []byte(`{"queries":3,"shardSizes":[1,2]}`)},
		{ID: 15, Op: OpMetrics, OK: true, Body: []byte("# HELP sfcd_primary\nsfcd_primary 1\n")},
		{ID: 17, Op: OpSnapshot, OK: true},
		{ID: 18, Op: OpUnlink, OK: true},
		{ID: 19, Op: OpTrace, OK: true, Result: Result{Covered: true, CoveredBy: 5}, Body: []byte(`{"op":"query"}`)},
		{ID: 20, Op: OpSlowlog, OK: true, Body: []byte("null")},
		{ID: 21, Op: OpReplicate, OK: true, Rep: RepFrame{Base: 4, Pos: 9, Recs: bytes.Repeat([]byte{0xab}, 300)}},
		{ID: 21, Op: OpReplicate, OK: true, Rep: RepFrame{Reset: true, More: true, Pos: 77, Recs: []byte{1}}},
		{ID: 21, Op: OpReplicate, OK: true, Rep: RepFrame{Reset: true, Pos: 0}},
		{ID: 22, Op: OpPromote, OK: true, Role: RolePrimary},
		// Refusals share one layout whatever the op — including none, and
		// one the decoder has never heard of.
		{ID: 23, Op: OpQuery, Code: CodeBadRequest, Error: "payload too short (0 bytes)"},
		{ID: 24, Op: numOps + 9, Code: CodeUnknownOp, Error: "unknown opcode 30"},
		{ID: 0, Op: OpNone, Code: CodeConnLimit, Error: "connection limit 1 reached"},
		{ID: 25, Op: OpUnsubscribe, Code: CodeOpFailed, Error: "no subscription with id 999"},
		{ID: 26, Op: OpSnapshot, Code: CodeUnsupported},
		{ID: 27, Op: OpSubscribe, Code: CodeNotPrimary, Error: "daemon is a follower"},
	}
	return reqs, resps
}

// TestFrameRoundTrip sends the corpus through the whole codec — encode,
// frame, a reader that returns one byte at a time, decode — and expects
// every value back unchanged, with request buffers reused across frames.
func TestFrameRoundTrip(t *testing.T) {
	reqs, resps := frameCorpus()
	var wire []byte
	for i := range reqs {
		wire = appendFrame(wire, reqs[i].ID, appendRequest(nil, &reqs[i]))
	}
	br := bufio.NewReader(iotest.OneByteReader(bytes.NewReader(wire)))
	var frame []byte
	var got Request // one Request for all frames, as a server worker holds it
	for i, want := range reqs {
		var err error
		if frame, err = readFrame(br, frame); err != nil {
			t.Fatalf("request %d (%s): reading frame: %v", i, want.Op, err)
		}
		if err := decodeRequest(frame, &got); err != nil {
			t.Fatalf("request %d (%s): %v", i, want.Op, err)
		}
		if !requestsEqual(&got, &want) {
			t.Fatalf("request %d round trip:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if _, err := readFrame(br, frame); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}

	var out []byte
	for i := range resps {
		out = appendFrame(out, resps[i].ID, appendResponse(nil, &resps[i]))
	}
	br.Reset(iotest.OneByteReader(bytes.NewReader(out)))
	for i, want := range resps {
		var err error
		if frame, err = readFrame(br, frame); err != nil {
			t.Fatalf("response %d (%s): reading frame: %v", i, want.Op, err)
		}
		var got Response
		if err := decodeResponse(frame, &got); err != nil {
			t.Fatalf("response %d (%s): %v", i, want.Op, err)
		}
		// Nothing decoded may alias the frame buffer, which the next read
		// overwrites.
		for j := range frame {
			frame[j] = 0xee
		}
		if !reflect.DeepEqual(normalize(got), normalize(want)) {
			t.Fatalf("response %d round trip:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// TestReadFrameBounds pins the reader's framing rules: a frame cut short
// is an unexpected EOF, never a clean one; a large frame arrives whole
// through a small buffer; the largest legal frame is accepted and one
// byte more is not.
func TestReadFrameBounds(t *testing.T) {
	big := bytes.Repeat([]byte{7}, 300<<10)
	wire := appendFrame(nil, 1, big)
	got, err := readFrame(bufio.NewReaderSize(bytes.NewReader(wire), 16), nil)
	if err != nil || !bytes.Equal(got[1:], big) {
		t.Fatalf("300 KiB frame through a 16-byte buffer: %d bytes, %v", len(got), err)
	}
	for cut := 1; cut < 40; cut++ {
		_, err := readFrame(bufio.NewReader(bytes.NewReader(wire[:len(wire)-cut*1000])), nil)
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("frame cut %d KB short: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	if _, err := readFrame(bufio.NewReader(bytes.NewReader([]byte{0x80})), nil); err != io.ErrUnexpectedEOF {
		t.Fatalf("length prefix cut short: %v, want io.ErrUnexpectedEOF", err)
	}
	limit := append(binary.AppendUvarint(nil, MaxFrameBytes), make([]byte, MaxFrameBytes)...)
	if got, err := readFrame(bufio.NewReader(bytes.NewReader(limit)), nil); err != nil || len(got) != MaxFrameBytes {
		t.Fatalf("frame of exactly MaxFrameBytes: %d bytes, %v", len(got), err)
	}
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(binary.AppendUvarint(nil, MaxFrameBytes+1))), nil); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("frame of MaxFrameBytes+1: %v, want errFrameTooLarge", err)
	}
}

// requestsEqual compares decoded requests; a reused Request keeps empty
// non-nil slices where a fresh one has nil, which is not a difference.
func requestsEqual(a, b *Request) bool {
	if a.ID != b.ID || a.Op != b.Op || a.Link != b.Link || a.SID != b.SID || a.Pos != b.Pos ||
		!bytes.Equal(a.Payload, b.Payload) || len(a.Payloads) != len(b.Payloads) || len(a.SIDs) != len(b.SIDs) {
		return false
	}
	for i := range a.Payloads {
		if !bytes.Equal(a.Payloads[i], b.Payloads[i]) {
			return false
		}
	}
	for i := range a.SIDs {
		if a.SIDs[i] != b.SIDs[i] {
			return false
		}
	}
	return true
}

// normalize maps empty slices to nil so DeepEqual compares content.
func normalize(r Response) Response {
	if len(r.Attrs) == 0 {
		r.Attrs = nil
	}
	if len(r.Body) == 0 {
		r.Body = nil
	}
	if len(r.Rep.Recs) == 0 {
		r.Rep.Recs = nil
	}
	if len(r.Result.Payload) == 0 {
		r.Result.Payload = nil
	}
	if len(r.Results) == 0 {
		r.Results = nil
	}
	for i := range r.Results {
		if len(r.Results[i].Payload) == 0 {
			r.Results[i].Payload = nil
		}
	}
	return r
}

// FuzzFrameDecode hardens both frame decoders against arbitrary bytes: a
// body must never panic either decoder; whatever decodes must re-encode
// to bytes that decode to the same value; and decoding may not allocate
// out of proportion to the input — every count is checked against the
// bytes that follow it, so the worst case is one decoded element (a
// Result, the largest) per input byte.
func FuzzFrameDecode(f *testing.F) {
	reqs, resps := frameCorpus()
	for i := range reqs {
		f.Add(appendRequest(binary.AppendUvarint(nil, reqs[i].ID), &reqs[i]))
	}
	for i := range resps {
		f.Add(appendResponse(binary.AppendUvarint(nil, resps[i].ID), &resps[i]))
	}
	f.Add([]byte{})
	f.Add([]byte{7, byte(opRetiredRebalance), 0})    // a request on a retired number: unknown_op
	f.Add([]byte{7, byte(opRetiredRebalance), 0, 0}) // and an OK response to one
	f.Add([]byte{7, byte(opRetiredCovered), 0, 3, 1, 2, 3})
	f.Add([]byte{7, byte(opRetiredCovered), 0, 0})
	f.Add([]byte{7, byte(OpQueryBatch), 0, 0xff, 0xff, 0x03})
	f.Add([]byte{7, byte(OpQueryBatch), 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	const perByte = int(unsafe.Sizeof(Result{})) + 8
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > MaxFrameBytes {
			return
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		var req Request
		reqErr := decodeRequest(body, &req)
		var resp Response
		respErr := decodeResponse(body, &resp)
		runtime.ReadMemStats(&ms1)
		if grew, limit := ms1.TotalAlloc-ms0.TotalAlloc, uint64(2*perByte*len(body)+16<<10); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(body), grew, limit)
		}

		if reqErr == nil {
			var back Request
			if err := decodeRequest(appendRequest(binary.AppendUvarint(nil, req.ID), &req), &back); err != nil {
				t.Fatalf("re-encoded request does not decode: %v", err)
			}
			if !requestsEqual(&req, &back) {
				t.Fatalf("request round trip changed\n%+v into\n%+v", req, back)
			}
		}
		if respErr == nil {
			var back Response
			if err := decodeResponse(appendResponse(binary.AppendUvarint(nil, resp.ID), &resp), &back); err != nil {
				t.Fatalf("re-encoded response does not decode: %v", err)
			}
			if !reflect.DeepEqual(normalize(resp), normalize(back)) {
				t.Fatalf("response round trip changed\n%+v into\n%+v", resp, back)
			}
		}
	})
}

// TestFrameWriterInterruptCaughtNothing pins the precise half of the
// context-bounded write: a context that ends while a sender is armed but
// not blocked — the interrupt fires, the write had already gone through —
// leaves the connection usable. Only a write the interrupt actually caught
// may cost the connection.
func TestFrameWriterInterruptCaughtNothing(t *testing.T) {
	conn, peer := tcpPair(t)
	w := newFrameWriter(conn)
	ended, cancel := context.WithCancel(context.Background())
	cancel()
	w.lock(context.Background())
	w.disarm(w.arm(ended)) // fires at once; disarm waits it out and lifts its deadline
	w.unlock()

	tail := appendRequest(nil, &Request{Op: OpPing})
	if err := w.send(context.Background(), 7, tail); err != nil {
		t.Fatalf("send after a spent interrupt = %v, want the connection intact", err)
	}
	expectPings(t, peer, 7)
}

// TestFrameWriterCutBeforeFirstByte pins the other half: when the
// interrupt wins the race to the socket — the past deadline is set before
// the flush's write starts, so the write fails having sent nothing — the
// frame stays buffered, the sender reports no failure (its caller answers
// to its ended context), and the next sender's flush delivers both frames
// on a connection as healthy as before.
func TestFrameWriterCutBeforeFirstByte(t *testing.T) {
	conn, peer := tcpPair(t)
	w := newFrameWriter(&deadlineFirstConn{Conn: conn, set: make(chan struct{})})
	ended, cancel := context.WithCancel(context.Background())
	cancel()
	tail := appendRequest(nil, &Request{Op: OpPing})
	if err := w.send(ended, 7, tail); err != nil {
		t.Fatalf("send cut before its first byte = %v, want nil (nothing reached the wire)", err)
	}
	if err := w.send(context.Background(), 8, tail); err != nil {
		t.Fatalf("send after a cut that wrote nothing = %v, want the connection intact", err)
	}
	expectPings(t, peer, 7, 8)
}

// deadlineFirstConn makes a write deadline win the race against the first
// write: that write waits until a deadline has been set, so it starts with
// the deadline already in the past.
type deadlineFirstConn struct {
	net.Conn
	once sync.Once
	set  chan struct{}
}

func (c *deadlineFirstConn) SetWriteDeadline(t time.Time) error {
	err := c.Conn.SetWriteDeadline(t)
	if !t.IsZero() {
		c.once.Do(func() { close(c.set) })
	}
	return err
}

func (c *deadlineFirstConn) Write(p []byte) (int, error) {
	<-c.set
	return c.Conn.Write(p)
}

// tcpPair is a loopback TCP connection and its accepted peer, both closed
// with the test.
func tcpPair(t *testing.T) (conn, peer net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if peer, err = ln.Accept(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	return conn, peer
}

// expectPings reads one ping request frame per id from peer, in order.
func expectPings(t *testing.T, peer net.Conn, ids ...uint64) {
	t.Helper()
	peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(peer)
	for _, id := range ids {
		var req Request
		frame, err := readFrame(br, nil)
		if err != nil || decodeRequest(frame, &req) != nil || req.ID != id || req.Op != OpPing {
			t.Fatalf("peer read %+v, %v; want ping %d", req, err, id)
		}
	}
}
