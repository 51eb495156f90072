package sfcd

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"time"

	"sfccover/internal/persist"
)

// Replication over the wire: a follower daemon dials its primary, sends
// the stream position its store has durably applied, and the primary's
// serveReplicate streams every WAL record from there on — out of the
// store's in-memory ring when the follower is close behind, as a
// full-state reset otherwise. A frame carries the primary's WAL record
// bytes as they are; the follower applies each frame before reading the
// next, logging its records verbatim, so its durable state is always a
// prefix of the primary's history and a re-streamed overlap (after a
// reconnect) deduplicates by position instead of diverging.

// maxRepFrameRecords and maxRepFrameBytes bound one stream frame, so a
// large catch-up batch or reset dump splits across frames instead of
// hitting MaxFrameBytes: every record repeats its link name, so a batch
// on a long-named link reaches the byte cap well before the record cap.
// A lone record past the byte cap goes in a frame of its own.
const (
	maxRepFrameRecords = 1024
	maxRepFrameBytes   = MaxFrameBytes / 2
)

// followDialTimeout bounds one connection attempt to the primary.
const followDialTimeout = 5 * time.Second

// serveReplicate is the primary half: it turns one replicate request
// into an open-ended sequence of response frames, all echoing the
// request id, ending with an error response when the stream dies
// (store closed, follower lagged past the ring, connection gone). It
// occupies one of the connection's worker slots for as long as the
// stream lives.
func (s *Server) serveReplicate(id, pos uint64, cs *connState) {
	send := func(resp Response) {
		resp.Op = OpReplicate
		cs.send(id, appendResponse(nil, &resp))
	}
	if s.store == nil {
		send(Response{OK: false, Code: CodeUnsupported, Error: "daemon runs without a data dir"})
		return
	}
	t, err := s.store.Tail(pos)
	if err != nil {
		send(errResponse(err))
		return
	}
	defer t.Close()
	// The connection now carries an open-ended stream: the follower
	// sends nothing after its replicate frame, which must not read as
	// idleness, so lift the read deadline for the connection's lifetime.
	cs.streaming.Store(true)
	cs.conn.SetReadDeadline(time.Time{})
	s.repFollowers.Add(1)
	defer s.repFollowers.Add(-1)
	for {
		b, err := t.Next(cs.readerGone)
		if err != nil {
			// Best effort: if the follower is still there, the error frame
			// tells it to re-request from its applied position.
			send(errResponse(err))
			return
		}
		frames, n := repFrames(b)
		for _, f := range frames {
			send(Response{OK: true, Rep: f})
		}
		s.repStreamed.Add(uint64(n))
	}
}

// repFrames cuts one tail batch's run of WAL records, at record
// boundaries, into wire frames of at most maxRepFrameRecords records and
// maxRepFrameBytes bytes each, and counts the records. The frames share
// the batch's bytes.
func repFrames(b persist.TailBatch) (frames []RepFrame, n int) {
	if len(b.Recs) == 0 {
		if b.Reset {
			// An empty store's dump still needs one frame: it carries the
			// position and tells the follower to clear its own state.
			return []RepFrame{{Reset: true, Pos: b.Pos}}, 0
		}
		return nil, 0
	}
	pos := b.Base
	for run := b.Recs; len(run) > 0; {
		end, count := 0, 0
		for end < len(run) && count < maxRepFrameRecords {
			k := persist.RecordLen(run[end:])
			if count > 0 && end+k > maxRepFrameBytes {
				break
			}
			end += k
			count++
		}
		f := RepFrame{Recs: run[:end]}
		run = run[end:]
		n += count
		if b.Reset {
			f.Reset, f.More, f.Pos = true, len(run) > 0, b.Pos
		} else {
			f.Base, f.Pos = pos, pos+uint64(count)
			pos = f.Pos
		}
		frames = append(frames, f)
	}
	return frames, n
}

// followLoop keeps the store tailing the primary until stopped,
// redialing with jittered exponential backoff so a dead — or not yet
// listening — primary is retried without hammering, and a fleet of
// followers does not reconnect in lockstep.
func (s *Server) followLoop() {
	defer close(s.followDone)
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	attempt := 0
	for {
		select {
		case <-s.followStop:
			return
		default:
		}
		s.repReconnects.Inc()
		start := time.Now()
		err := s.followOnce()
		if err == nil {
			return // stopped cleanly mid-stream
		}
		if time.Since(start) > time.Minute {
			attempt = 0 // the stream was healthy for a while; back off from scratch
		}
		attempt++
		select {
		case <-s.followStop:
			return
		case <-time.After(followBackoff(rng, attempt)):
		}
	}
}

// followBackoff is the delay before reconnect attempt (1-based): 50ms
// doubling to a 2s cap, uniformly jittered over [d/2, d].
func followBackoff(rng *rand.Rand, attempt int) time.Duration {
	d := 50 * time.Millisecond << uint(min(attempt-1, 5))
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// followOnce runs one stream session: dial, schema handshake, replicate
// from the store's position, apply frames until the connection dies or
// the loop is stopped. Returns nil only when stopped; any other exit is
// an error the loop retries.
func (s *Server) followOnce() error {
	conn, err := net.DialTimeout("tcp", s.followAddr, followDialTimeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	sessionDone := make(chan struct{})
	defer close(sessionDone)
	go func() {
		// The apply loop blocks in reads; closing the connection is the
		// only way a stop can interrupt it promptly.
		select {
		case <-s.followStop:
			conn.Close()
		case <-sessionDone:
		}
	}()
	stopped := func() bool {
		select {
		case <-s.followStop:
			return true
		default:
			return false
		}
	}
	send := func(req Request) error {
		_, err := conn.Write(appendFrame(nil, req.ID, appendRequest(nil, &req)))
		return err
	}
	// The session is synchronous — one frame is applied before the next
	// is read — so one buffer and one Response serve all of it.
	br := bufio.NewReaderSize(conn, 64<<10)
	var frame []byte
	var resp Response
	recv := func() error {
		var err error
		if frame, err = readFrame(br, frame); err != nil {
			return err
		}
		if err := decodeResponse(frame, &resp); err != nil {
			return fmt.Errorf("malformed stream frame: %w", err)
		}
		return nil
	}
	// Schema handshake before applying a single record: a primary serving
	// a different schema must be refused, not replicated.
	if err := send(Request{ID: 1, Op: OpHello}); err != nil {
		return err
	}
	if err := recv(); err != nil {
		if stopped() {
			return nil
		}
		return err
	}
	if !resp.OK {
		return fmt.Errorf("primary refused hello: %s", resp.Error)
	}
	if resp.Bits != s.schema.Bits() || !slices.Equal(resp.Attrs, s.schema.Attrs()) {
		return fmt.Errorf("primary serves a different schema (%d bits, attrs %v)", resp.Bits, resp.Attrs)
	}
	if err := send(Request{ID: 2, Op: OpReplicate, Pos: s.store.Pos()}); err != nil {
		return err
	}
	var reset []byte
	for {
		if err := recv(); err != nil {
			if stopped() {
				return nil
			}
			return err
		}
		if !resp.OK {
			return fmt.Errorf("stream ended: %s (%s)", resp.Error, resp.Code)
		}
		if resp.Op != OpReplicate {
			return fmt.Errorf("stream frame answers %s, not replicate (id %d)", resp.Op, resp.ID)
		}
		if err := s.applyFrame(&resp.Rep, &reset); err != nil {
			return err
		}
		if stopped() {
			return nil
		}
	}
}

// applyFrame lands one stream frame in the store. Reset frames
// accumulate in reset until the dump's final frame installs them
// atomically; plain frames apply in place, deduplicated by position.
func (s *Server) applyFrame(f *RepFrame, reset *[]byte) error {
	if f.Reset {
		*reset = append(*reset, f.Recs...)
		if f.More {
			return nil
		}
		if err := s.store.InstallState(*reset, f.Pos); err != nil {
			return err
		}
		*reset = nil
		s.repResets.Inc()
	} else if f.Pos < f.Base {
		return fmt.Errorf("stream frame ends at %d, before its base %d", f.Pos, f.Base)
	} else if err := s.store.ApplyReplicated(f.Base, f.Recs); err != nil {
		// A gap means this session missed frames (it cannot self-heal);
		// the reconnect re-requests from the store's applied position.
		return err
	} else {
		s.repApplied.Add(f.Pos - f.Base)
	}
	s.repPrimaryPos.Set(int64(f.Pos))
	return nil
}
