package sfcd

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"runtime"
	"slices"
	"time"
)

// frame.go is the protocol's only codec: every frame the client, the
// server and the follower exchange is encoded and decoded here, by hand,
// into caller-owned memory. The layout table lives in the package comment
// (protocol.go); the tables below are its machine form.

// reqLayout is the shape of a request's per-op fields.
type reqLayout uint8

const (
	reqNone     reqLayout = iota // no fields
	reqPayload                   // bytes(payload)
	reqPayloads                  // uvarint(n) n*bytes(payload)
	reqSID                       // uvarint(sid)
	reqSIDs                      // uvarint(n) n*uvarint(sid)
	reqPos                       // uvarint(pos)
)

// respLayout is the shape of a successful response's per-op fields.
type respLayout uint8

const (
	respNone    respLayout = iota // no fields
	respHello                     // schema and engine facts
	respRole                      // str(role)
	respResult                    // result
	respResults                   // uvarint(n) n*result
	respBody                      // bytes(body)
	respTrace                     // result bytes(body)
	respRep                       // replication stream frame
)

var opLayouts = [numOps]struct {
	req  reqLayout
	resp respLayout
}{
	OpPing:             {reqNone, respNone},
	OpHello:            {reqNone, respHello},
	OpSubscribe:        {reqPayload, respResult},
	OpInsert:           {reqPayload, respResult},
	OpSubscribeBatch:   {reqPayloads, respResults},
	OpUnsubscribe:      {reqSID, respResult},
	OpUnsubscribeBatch: {reqSIDs, respResults},
	OpQuery:            {reqPayload, respResult},
	OpQueryBatch:       {reqPayloads, respResults},
	OpGet:              {reqSID, respResult},
	OpMatch:            {reqPayload, respResult},
	OpStats:            {reqNone, respBody},
	OpMetrics:          {reqNone, respBody},
	OpSnapshot:         {reqNone, respNone},
	OpUnlink:           {reqNone, respNone},
	OpTrace:            {reqPayload, respTrace},
	OpSlowlog:          {reqNone, respBody},
	OpReplicate:        {reqPos, respRep},
	OpPromote:          {reqNone, respRole},
}

// statusCodes maps the response status byte to the error code it stands
// for; status 0 is success.
var statusCodes = [...]string{
	"", CodeBadRequest, CodeUnknownOp, CodeConnLimit, CodeOpFailed, CodeUnsupported, CodeNotPrimary,
}

// statusOf is the status byte of a refusal code. An unlisted code cannot
// be produced by this package (sfclint's wireerrs pins refusals to the
// declared constants); op_failed is the honest reading of one anyway.
func statusOf(code string) byte {
	if i := slices.Index(statusCodes[1:], code); i >= 0 {
		return byte(i + 1)
	}
	return statusOf(CodeOpFailed)
}

// Result flag bits: which optional fields follow.
const (
	resCovered = 1 << iota
	resSID
	resCoveredBy
	resPayload
	resError
	resKnown = resCovered | resSID | resCoveredBy | resPayload | resError
)

// RepFrame flag bits.
const (
	repReset = 1 << iota
	repMore
	repKnown = repReset | repMore
)

// Decode failures. errUnknownOp is the one a server answers per request
// (the frame boundary is intact and the id was read); everything else is
// a frame the peer should never have produced.
var (
	errUnknownOp     = errors.New("unknown opcode")
	errFrameTooLarge = fmt.Errorf("frame exceeds the %d-byte cap", MaxFrameBytes)
	errEmptyFrame    = errors.New("zero-length frame")
	errTruncated     = errors.New("a field is invalid or runs past the end of the frame")
	errTrailing      = errors.New("trailing bytes after the last field")
	errReservedID    = errors.New("request id 0 is reserved for connection-level frames")
)

// readFrame reads the next frame's body into dst (reusing its capacity)
// and returns it. The declared length is vetted before a byte of the body
// is buffered, and a body larger than dst's capacity grows it only as
// fast as bytes actually arrive — a peer cannot make the reader allocate
// by declaring a length and going quiet. io.EOF means the peer closed
// between frames; a close inside one is io.ErrUnexpectedEOF.
func readFrame(br *bufio.Reader, dst []byte) ([]byte, error) {
	var n int
	for shift := 0; ; shift += 7 {
		b, err := br.ReadByte()
		if err != nil {
			if shift > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return dst[:0], err
		}
		n |= int(b&0x7f) << shift
		if b < 0x80 {
			break
		}
		if shift == 21 { // a fifth length byte: beyond 2^28 whatever follows
			return dst[:0], errFrameTooLarge
		}
	}
	if n == 0 {
		return dst[:0], errEmptyFrame
	}
	if n > MaxFrameBytes {
		return dst[:0], errFrameTooLarge
	}
	const chunk = 64 << 10
	dst = dst[:0]
	for len(dst) < n {
		m := n - len(dst)
		if len(dst)+m > cap(dst) {
			m = min(m, max(chunk, len(dst))) // at most double per round
		}
		dst = slices.Grow(dst, m)[:len(dst)+m]
		if _, err := io.ReadFull(br, dst[len(dst)-m:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return dst[:0], err
		}
	}
	return dst, nil
}

// uvarintLen is the encoded size of v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// appendFrameHeader appends what precedes a frame's tail: the length
// prefix and the id.
func appendFrameHeader(dst []byte, id uint64, tailLen int) []byte {
	dst = binary.AppendUvarint(dst, uint64(uvarintLen(id)+tailLen))
	return binary.AppendUvarint(dst, id)
}

// appendFrame appends one whole frame — header, then the tail an
// appendRequest/appendResponse call produced.
func appendFrame(dst []byte, id uint64, tail []byte) []byte {
	return append(appendFrameHeader(dst, id, len(tail)), tail...)
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendRequest appends everything of r's frame that follows the id:
// opcode, link and the op's fields. The id is added by appendFrame or
// writeFrame, because a pipelining client assigns it only under its
// connection lock, after the tail is already encoded.
//
//sfc:hotpath
func appendRequest(dst []byte, r *Request) []byte {
	dst = append(dst, byte(r.Op))
	dst = appendString(dst, r.Link)
	if r.Op >= numOps {
		return dst
	}
	switch opLayouts[r.Op].req {
	case reqPayload:
		dst = appendBytes(dst, r.Payload)
	case reqPayloads:
		dst = binary.AppendUvarint(dst, uint64(len(r.Payloads)))
		for _, p := range r.Payloads {
			dst = appendBytes(dst, p)
		}
	case reqSID:
		dst = binary.AppendUvarint(dst, r.SID)
	case reqSIDs:
		dst = binary.AppendUvarint(dst, uint64(len(r.SIDs)))
		for _, sid := range r.SIDs {
			dst = binary.AppendUvarint(dst, sid)
		}
	case reqPos:
		dst = binary.AppendUvarint(dst, r.Pos)
	}
	return dst
}

// appendResponse appends everything of r's frame that follows the id.
//
//sfc:hotpath
func appendResponse(dst []byte, r *Response) []byte {
	dst = append(dst, byte(r.Op))
	if !r.OK {
		dst = append(dst, statusOf(r.Code))
		return appendString(dst, r.Error)
	}
	dst = append(dst, 0)
	if r.Op >= numOps {
		return dst
	}
	switch opLayouts[r.Op].resp {
	case respHello:
		dst = binary.AppendUvarint(dst, uint64(r.Bits))
		dst = binary.AppendUvarint(dst, uint64(r.Shards))
		dst = appendString(dst, r.Partition)
		dst = appendString(dst, r.Mode)
		dst = appendString(dst, r.Role)
		dst = binary.AppendUvarint(dst, uint64(len(r.Attrs)))
		for _, a := range r.Attrs {
			dst = appendString(dst, a)
		}
	case respRole:
		dst = appendString(dst, r.Role)
	case respResult:
		dst = appendResult(dst, &r.Result)
	case respResults:
		dst = binary.AppendUvarint(dst, uint64(len(r.Results)))
		for i := range r.Results {
			dst = appendResult(dst, &r.Results[i])
		}
	case respBody:
		dst = appendBytes(dst, r.Body)
	case respTrace:
		dst = appendResult(dst, &r.Result)
		dst = appendBytes(dst, r.Body)
	case respRep:
		var flags byte
		if r.Rep.Reset {
			flags |= repReset
		}
		if r.Rep.More {
			flags |= repMore
		}
		dst = append(dst, flags)
		dst = binary.AppendUvarint(dst, r.Rep.Base)
		dst = binary.AppendUvarint(dst, r.Rep.Pos)
		dst = appendBytes(dst, r.Rep.Recs)
	}
	return dst
}

//sfc:hotpath
func appendResult(dst []byte, r *Result) []byte {
	var flags byte
	if r.Covered {
		flags |= resCovered
	}
	if r.SID != 0 {
		flags |= resSID
	}
	if r.CoveredBy != 0 {
		flags |= resCoveredBy
	}
	if len(r.Payload) != 0 {
		flags |= resPayload
	}
	if r.Error != "" {
		flags |= resError
	}
	dst = append(dst, flags)
	if flags&resSID != 0 {
		dst = binary.AppendUvarint(dst, r.SID)
	}
	if flags&resCoveredBy != 0 {
		dst = binary.AppendUvarint(dst, r.CoveredBy)
	}
	if flags&resPayload != 0 {
		dst = appendBytes(dst, r.Payload)
	}
	if flags&resError != 0 {
		dst = appendString(dst, r.Error)
	}
	return dst
}

// cursor walks a frame body. A read past the end latches bad and yields
// zero values, so decoders check once, after the last field.
type cursor struct {
	b   []byte
	bad bool
}

func (c *cursor) byte() byte {
	if len(c.b) == 0 {
		c.bad = true
		return 0
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v
}

func (c *cursor) uvarint() uint64 {
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.bad = true
		c.b = nil
		return 0
	}
	c.b = c.b[n:]
	return v
}

// bytes returns the next length-prefixed field, aliasing the frame.
func (c *cursor) bytes() []byte {
	n := c.uvarint()
	if n > uint64(len(c.b)) {
		c.bad = true
		c.b = nil
		return nil
	}
	v := c.b[:n:n]
	c.b = c.b[n:]
	return v
}

// count returns the next element count, refusing one larger than the
// bytes that follow (every element occupies at least one), so no count
// can drive an allocation its own frame does not pay for.
func (c *cursor) count() int {
	n := c.uvarint()
	if n > uint64(len(c.b)) {
		c.bad = true
		c.b = nil
		return 0
	}
	return int(n)
}

// int returns the next uvarint as an int, refusing values an int32
// cannot hold (schema widths and shard counts are small).
func (c *cursor) int() int {
	v := c.uvarint()
	if v > 1<<31-1 {
		c.bad = true
		return 0
	}
	return int(v)
}

func (c *cursor) finish() error {
	switch {
	case c.bad:
		return errTruncated
	case len(c.b) != 0:
		return errTrailing
	}
	return nil
}

// decodeRequest decodes one request frame body into r, reusing r's slice
// capacity (and its Link string, when unchanged) so a worker that keeps
// one Request decodes steady-state traffic without allocating. Payload
// fields alias body: they live exactly as long as the caller keeps the
// frame buffer untouched. On errUnknownOp r.ID and r.Op are set — the
// caller can still answer the request by id.
//
//sfc:hotpath
func decodeRequest(body []byte, r *Request) error {
	c := cursor{b: body}
	r.ID = c.uvarint()
	r.Op = Opcode(c.byte())
	r.Payload, r.Payloads, r.SID, r.SIDs, r.Pos = nil, r.Payloads[:0], 0, r.SIDs[:0], 0
	if c.bad {
		return errTruncated
	}
	if r.ID == 0 {
		return errReservedID
	}
	if r.Op == OpNone || r.Op >= numOps || r.Op.retired() {
		return errUnknownOp
	}
	if link := c.bytes(); string(link) != r.Link {
		r.Link = string(link)
	}
	switch opLayouts[r.Op].req {
	case reqPayload:
		r.Payload = c.bytes()
	case reqPayloads:
		n := c.count()
		r.Payloads = slices.Grow(r.Payloads, n)
		for i := 0; i < n && !c.bad; i++ {
			r.Payloads = append(r.Payloads, c.bytes())
		}
	case reqSID:
		r.SID = c.uvarint()
	case reqSIDs:
		n := c.count()
		r.SIDs = slices.Grow(r.SIDs, n)
		for i := 0; i < n && !c.bad; i++ {
			r.SIDs = append(r.SIDs, c.uvarint())
		}
	case reqPos:
		r.Pos = c.uvarint()
	}
	return c.finish()
}

// decodeResponse decodes one response frame body into r, overwriting it.
// Nothing in r aliases body afterwards: responses are handed to callers
// on other goroutines while the reader moves on to the next frame.
//
//sfc:hotpath
func decodeResponse(body []byte, r *Response) error {
	c := cursor{b: body}
	*r = Response{ID: c.uvarint(), Op: Opcode(c.byte())}
	status := c.byte()
	if c.bad {
		return errTruncated
	}
	if status != 0 {
		// A refusal's layout does not depend on the opcode, which may be
		// one this side has never heard of (that is what unknown_op echoes).
		if int(status) >= len(statusCodes) {
			return fmt.Errorf("unknown status %d", status)
		}
		r.Code = statusCodes[status]
		r.Error = string(c.bytes())
		return c.finish()
	}
	if r.Op >= numOps {
		return errUnknownOp
	}
	r.OK = true
	switch opLayouts[r.Op].resp {
	case respHello:
		r.Bits, r.Shards = c.int(), c.int()
		r.Partition, r.Mode, r.Role = string(c.bytes()), string(c.bytes()), string(c.bytes())
		if n := c.count(); n > 0 {
			r.Attrs = make([]string, 0, n)
			for i := 0; i < n && !c.bad; i++ {
				r.Attrs = append(r.Attrs, string(c.bytes()))
			}
		}
	case respRole:
		r.Role = string(c.bytes())
	case respResult:
		decodeResult(&c, &r.Result)
	case respResults:
		if n := c.count(); n > 0 {
			r.Results = make([]Result, n)
			for i := 0; i < n && !c.bad; i++ {
				decodeResult(&c, &r.Results[i])
			}
		}
	case respBody:
		r.Body = slices.Clone(c.bytes())
	case respTrace:
		decodeResult(&c, &r.Result)
		r.Body = slices.Clone(c.bytes())
	case respRep:
		flags := c.byte()
		if flags&^repKnown != 0 {
			return fmt.Errorf("unknown replication flags %#x", flags)
		}
		r.Rep = RepFrame{Reset: flags&repReset != 0, More: flags&repMore != 0}
		r.Rep.Base, r.Rep.Pos = c.uvarint(), c.uvarint()
		r.Rep.Recs = slices.Clone(c.bytes())
	}
	return c.finish()
}

//sfc:hotpath
func decodeResult(c *cursor, r *Result) {
	flags := c.byte()
	if flags&^resKnown != 0 {
		c.bad = true
		return
	}
	r.Covered = flags&resCovered != 0
	if flags&resSID != 0 {
		r.SID = c.uvarint()
	}
	if flags&resCoveredBy != 0 {
		r.CoveredBy = c.uvarint()
	}
	if flags&resPayload != 0 {
		r.Payload = slices.Clone(c.bytes())
	}
	if flags&resError != 0 {
		r.Error = string(c.bytes())
	}
}

// frameWriter is one connection's buffered writer, shared by every
// goroutine with a frame to send — finishing handlers on the server,
// calling goroutines on the client. There is no writer goroutine: a
// sender copies its frame into the buffer under the lock, lets go, and
// then flushes — after one scheduler yield. The yield is the whole
// coalescing mechanism: any other sender that is runnable right now gets
// to add its frame first, and whichever of them resumes first flushes for
// all (the rest find the buffer empty). Without it every frame pays its
// own write syscall, and syscalls are what a wire request costs; flushing
// when the last in-flight sender leaves instead, with no yield, was
// measured and lost on every row, the single-caller ones included
// (EXPERIMENTS.md "Wire codec and flush policy"). A frame waits for
// senders that are ready now, never for work that is still being served.
// A frame too large to share a flush (past flushBytes with what is
// buffered) is written at once, without the yield.
//
// The lock is a channel rather than a mutex so that a sender can stop
// waiting for it when its context ends, and a write that reaches the
// socket runs with the context armed to cut it short (see arm): a peer
// that stopped draining the connection holds up no caller past its
// deadline. Servers send under context.Background(), which arms nothing.
type frameWriter struct {
	sem  chan struct{} // capacity 1: holding the token is holding the lock
	conn net.Conn
	// buf holds whole frames not yet written; err is the write that left
	// part of one on the wire, after which nothing more may follow.
	buf []byte
	err error
	// disarmed hands the end of an armed write to its watcher (see arm);
	// cutShort is the watcher's word, read after that hand-over, that it
	// had set a write deadline in the past by then.
	disarmed chan struct{}
	cutShort bool
}

// flushBytes is the buffered size past which a sender writes at once
// instead of yielding for company: a frame that large amortizes its own
// syscall.
const flushBytes = 4 << 10

func newFrameWriter(conn net.Conn) *frameWriter {
	return &frameWriter{
		sem:      make(chan struct{}, 1),
		conn:     conn,
		disarmed: make(chan struct{}),
	}
}

// lock takes the write lock. It reports false, holding nothing, when ctx
// ended first.
func (w *frameWriter) lock(ctx context.Context) bool {
	select {
	case w.sem <- struct{}{}:
		return true
	default:
	}
	select {
	case w.sem <- struct{}{}:
		if ctx.Err() != nil { // both were ready; do not start a write only to cut it short
			w.unlock()
			return false
		}
		return true
	case <-ctx.Done():
		return false
	}
}

func (w *frameWriter) unlock() { <-w.sem }

// arm makes the end of ctx fail the socket write the lock holder is about
// to do, until disarm: a watcher goroutine waits for whichever comes first.
// A context that cannot end arms nothing.
func (w *frameWriter) arm(ctx context.Context) (armed bool) {
	if ctx.Done() == nil {
		return false
	}
	go w.watch(ctx)
	return true
}

func (w *frameWriter) watch(ctx context.Context) {
	select {
	case <-ctx.Done():
		w.conn.SetWriteDeadline(time.Unix(1, 0)) //nolint:errcheck // a closed connection fails its writes by itself
		w.cutShort = true
		<-w.disarmed
	case <-w.disarmed:
	}
}

// disarm ends what arm began, and if the watcher had fired lifts the
// deadline it set and reports that it did: a write it caught has failed,
// a write that had already completed leaves the connection as healthy as
// it was.
func (w *frameWriter) disarm(armed bool) (fired bool) {
	if !armed {
		return false
	}
	w.disarmed <- struct{}{} // unbuffered: the watcher is done with conn once this returns
	fired, w.cutShort = w.cutShort, false
	if fired {
		w.conn.SetWriteDeadline(time.Time{}) //nolint:errcheck // see watch
	}
	return fired
}

// send writes one frame and flushes it (and whatever joined it). An error
// is a failed socket write: the stream may hold part of a frame and the
// connection is finished. A nil return with ctx ended means the frame
// never reached the socket — send gave up waiting for the lock, or ctx
// cut its flush short before the first byte — and sits whole in the
// buffer for the next sender's flush (or was never added); the caller,
// who is watching ctx, abandons the request as it would while waiting for
// the response.
//
//sfc:hotpath
func (w *frameWriter) send(ctx context.Context, id uint64, tail []byte) error {
	if !w.lock(ctx) {
		return nil
	}
	w.buf = appendFrame(w.buf, id, tail)
	if len(w.buf) > flushBytes {
		err := w.flush(ctx)
		w.unlock()
		return err
	}
	w.unlock()
	runtime.Gosched()
	if !w.lock(ctx) {
		return nil
	}
	err := w.flush(ctx) // a no-op when another sender already flushed
	w.unlock()
	return err
}

// flush writes the buffered frames; the caller holds the lock. A write
// that ctx cut short before its first byte leaves the buffer whole for
// the next flusher and the connection as it was. Any other failed write
// may have left part of a frame on the wire: it is the writer's last.
//
//sfc:hotpath
func (w *frameWriter) flush(ctx context.Context) error {
	if w.err != nil || len(w.buf) == 0 {
		return w.err
	}
	armed := w.arm(ctx)
	n, err := w.conn.Write(w.buf)
	if w.disarm(armed) && n == 0 {
		return nil
	}
	if err != nil {
		w.err = err
		return err
	}
	if cap(w.buf) > scratchRetainBytes {
		w.buf = nil // one oversized frame does not pin its memory on the connection
	} else {
		w.buf = w.buf[:0]
	}
	return nil
}
