package sfcd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"sfccover/internal/core"
	"sfccover/internal/core/coretest"
	"sfccover/internal/engine"
	"sfccover/internal/subscription"
)

// startHardenedServer boots a daemon with the given hardening knobs.
func startHardenedServer(t *testing.T, schema *subscription.Schema, scfg ServerConfig) string {
	t.Helper()
	eng := engine.MustNew(engine.Config{
		Detector: core.Config{Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear},
		Shards:   2,
	})
	srv := NewServerWith(eng, scfg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	return addr.String()
}

// TestMaxConnsRefusesCleanly pins the connection limit: the over-limit
// dial is answered with one clean connection-level error frame (code
// conn_limit) instead of a silent drop, and the slot is reusable once a
// connection leaves.
func TestMaxConnsRefusesCleanly(t *testing.T) {
	schema := coretest.Schema()
	addr := startHardenedServer(t, schema, ServerConfig{MaxConns: 1})

	c1, err := Dial(addr, schema)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	_, err = Dial(addr, schema)
	if err == nil {
		t.Fatal("dial beyond MaxConns must fail")
	}
	var se *ServerError
	if !errors.As(err, &se) || se.Code != CodeConnLimit {
		t.Fatalf("refused dial error = %v, want a ServerError with code %q", err, CodeConnLimit)
	}

	// Releasing the held connection frees the slot (the server drops it
	// asynchronously, so poll briefly).
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c2, err := Dial(addr, schema)
		if err == nil {
			c2.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed after close: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReadTimeoutReapsIdleConn pins the per-request read timeout: a
// connection that goes quiet past the deadline is reaped — observable as
// EOF on the raw connection — while an active connection is unaffected
// because every served request re-arms the deadline.
func TestReadTimeoutReapsIdleConn(t *testing.T) {
	schema := coretest.Schema()
	addr := startHardenedServer(t, schema, ServerConfig{ReadTimeout: 150 * time.Millisecond})

	// An active client outlives many timeout windows.
	c, err := Dial(addr, schema)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		if err := c.Ping(bg); err != nil {
			t.Fatalf("active connection reaped at ping %d: %v", i, err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// A raw connection that stalls after one request is reaped: the next
	// read returns EOF well before the test deadline.
	conn := DialRaw(t, addr)
	if resp := conn.Do(Request{ID: 1, Op: OpPing}); !resp.OK {
		t.Fatalf("ping response = %+v", resp)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, io.EOF) == false && !isClosedNetErr(err) {
		t.Fatalf("stalled connection read = %v, want EOF (reaped)", err)
	}

	// The idle client from above has also been reaped by now.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := c.Ping(bg); err != nil {
			if !errors.Is(err, ErrConnectionLost) {
				t.Fatalf("reaped client error = %v, want ErrConnectionLost", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle pipelined client never reaped")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// isClosedNetErr reports a connection-reset style error, which some
// platforms yield instead of EOF when the server closes mid-read.
func isClosedNetErr(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) {
		return !ne.Timeout()
	}
	return errors.Is(err, net.ErrClosed)
}

// TestDialTimeoutAgainstMuteEndpoint pins that a daemon that accepts but
// never answers cannot hang Dial: the configured timeout fires.
func TestDialTimeoutAgainstMuteEndpoint(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold it open, answer nothing
		}
	}()
	start := time.Now()
	_, err = DialContext(context.Background(), DialConfig{
		Addr:        ln.Addr().String(),
		Schema:      coretest.Schema(),
		DialTimeout: 200 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("dial against a mute endpoint must fail")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mute dial error = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dial took %v, timeout did not bound it", elapsed)
	}
}

// TestClientDoubleClose pins the specified double-Close outcome: the
// first Close returns nil, every later one is rejected with the typed
// ErrClientClosed — recovery code that tears a client down twice gets a
// diagnosis, not unspecified behavior.
func TestClientDoubleClose(t *testing.T) {
	schema := subscription.MustSchema(8, "x", "y")
	addr := startHardenedServer(t, schema, ServerConfig{})
	c, err := Dial(addr, schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("first Close = %v, want nil", err)
	}
	if err := c.Close(); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("second Close = %v, want ErrClientClosed", err)
	}
	if err := c.Ping(context.Background()); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Ping after Close = %v, want ErrClientClosed", err)
	}
}

// TestRefuseSlowLorisDoesNotStallAccept pins that over-limit refusals
// run off the accept loop: a herd of mute over-limit dialers — each
// entitled to the refusal path's bounded first-line wait — must not
// serialize behind one another, stall the served connection, or delay a
// well-behaved dialer's conn_limit answer. Before refusals became
// asynchronous, each mute connection held the accept loop for its full
// wait, so the herd added tens of seconds of accept latency.
func TestRefuseSlowLorisDoesNotStallAccept(t *testing.T) {
	schema := coretest.Schema()
	addr := startHardenedServer(t, schema, ServerConfig{MaxConns: 1})

	c1, err := Dial(addr, schema)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	// 25 over-limit connections that never write a byte. Serialized
	// 1s-per-connection refusals would take 25s; the test allows 5.
	const herd = 25
	mutes := make([]net.Conn, 0, herd)
	defer func() {
		for _, m := range mutes {
			m.Close()
		}
	}()
	for i := 0; i < herd; i++ {
		m, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		mutes = append(mutes, m)
	}

	// The served connection keeps answering while the herd pends.
	if err := c1.Ping(bg); err != nil {
		t.Fatalf("served connection stalled by refusal herd: %v", err)
	}

	// A well-behaved over-limit dialer gets its typed refusal promptly:
	// Dial sends hello immediately, so the refusal path answers without
	// waiting out its first-line deadline — unless it is stuck in line
	// behind the mutes.
	start := time.Now()
	_, err = Dial(addr, schema)
	var se *ServerError
	if !errors.As(err, &se) || se.Code != CodeConnLimit {
		t.Fatalf("over-limit dial error = %v, want ServerError code %q", err, CodeConnLimit)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("refusal took %v, herd serialized the refusal path", elapsed)
	}

	if err := c1.Ping(bg); err != nil {
		t.Fatalf("served connection unhealthy after refusal storm: %v", err)
	}

	// A mute dialer is still told why, once the wait for its hello runs out.
	var resp Response
	mutes[0].SetReadDeadline(time.Now().Add(5 * time.Second))
	frame, err := readFrame(bufio.NewReader(mutes[0]), nil)
	if err != nil || decodeResponse(frame, &resp) != nil || resp.ID != 0 || resp.Code != CodeConnLimit {
		t.Fatalf("mute over-limit dialer read %+v, %v; want a connection-level %s frame", resp, err, CodeConnLimit)
	}
}

// TestHostileFramesRefused drives every way a peer can lie in a frame
// through a live connection: each is refused with a typed code — on a
// connection-level frame and a close where the frame cannot be trusted, on
// the request's own id where only the opcode is foreign — and never with
// a hang or a crash.
func TestHostileFramesRefused(t *testing.T) {
	schema := coretest.Schema()
	addr := startHardenedServer(t, schema, ServerConfig{})
	body := func(b ...byte) []byte { return append([]byte{byte(len(b))}, b...) }
	cases := []struct {
		name  string
		wire  []byte
		code  string
		fatal bool // answered on id 0, connection closed after
	}{
		{"length above MaxFrameBytes", binary.AppendUvarint(nil, MaxFrameBytes+1), CodeBadRequest, true},
		{"length past 2^28", []byte{0xff, 0xff, 0xff, 0xff, 0x7f}, CodeBadRequest, true},
		{"zero-length frame", []byte{0}, CodeBadRequest, true},
		{"batch count larger than the frame", body(7, byte(OpQueryBatch), 0, 0xff, 0xff, 0x03), CodeBadRequest, true},
		{"sid count larger than the frame", body(7, byte(OpUnsubscribeBatch), 0, 200, 1, 2), CodeBadRequest, true},
		{"truncated payload", body(7, byte(OpQuery), 0, 40, 0x51, 2), CodeBadRequest, true},
		{"truncated link", body(7, byte(OpPing), 9, 'x'), CodeBadRequest, true},
		{"header only", body(7), CodeBadRequest, true},
		{"trailing bytes", body(7, byte(OpPing), 0, 0), CodeBadRequest, true},
		{"request id 0", body(0, byte(OpPing), 0), CodeBadRequest, true},
		{"unknown opcode", body(7, 0xee, 0, 1, 2, 3), CodeUnknownOp, false},
		{"opcode 0", body(7, byte(OpNone), 0), CodeUnknownOp, false},
		{"retired opcode (covered)", body(7, byte(opRetiredCovered), 0, 3, 1, 2, 3), CodeUnknownOp, false},
		{"retired opcode (rebalance)", body(7, byte(opRetiredRebalance), 0), CodeUnknownOp, false},
		{"old newline-JSON client", []byte(`{"id":1,"op":"hello"}` + "\n"), CodeBadRequest, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn := DialRaw(t, addr)
			conn.Send(tc.wire)
			resp, err := conn.Recv()
			if err != nil {
				t.Fatalf("no refusal frame: %v", err)
			}
			if resp.OK || resp.Code != tc.code {
				t.Fatalf("refusal = %+v, want code %q", resp, tc.code)
			}
			if tc.fatal {
				if resp.ID != 0 {
					t.Fatalf("refusal id = %d, want a connection-level frame", resp.ID)
				}
				if resp, err := conn.Recv(); err == nil {
					t.Fatalf("connection still serving after a connection-level refusal: %+v", resp)
				}
				return
			}
			if resp.ID != 7 {
				t.Fatalf("refusal id = %d, want the request's 7", resp.ID)
			}
			if resp := conn.Do(Request{ID: 8, Op: OpPing}); !resp.OK {
				t.Fatalf("connection unusable after a per-request refusal: %+v", resp)
			}
		})
	}
}

// TestHostileLengthsAllocateNothing pins the order of checks: a declared
// frame length or element count is compared against its bound before it
// sizes anything, so refusing one costs no allocation at all.
func TestHostileLengthsAllocateNothing(t *testing.T) {
	oversize := binary.AppendUvarint(nil, MaxFrameBytes+1)
	src := bytes.NewReader(oversize)
	br := bufio.NewReader(src)
	if allocs := testing.AllocsPerRun(100, func() {
		src.Reset(oversize)
		br.Reset(src)
		if _, err := readFrame(br, nil); !errors.Is(err, errFrameTooLarge) {
			t.Fatalf("readFrame = %v, want errFrameTooLarge", err)
		}
	}); allocs != 0 {
		t.Errorf("refusing an oversized frame allocates %.1f times", allocs)
	}

	// 2^21 payloads (or sids) declared, five bytes present.
	for _, op := range []Opcode{OpQueryBatch, OpUnsubscribeBatch} {
		frame := []byte{7, byte(op), 0, 0x80, 0x80, 0x80, 0x01, 1}
		var req Request
		if allocs := testing.AllocsPerRun(100, func() {
			if err := decodeRequest(frame, &req); err == nil {
				t.Fatal("decodeRequest accepted a count larger than its frame")
			}
		}); allocs != 0 {
			t.Errorf("refusing a hostile %s count allocates %.1f times", op, allocs)
		}
	}
}

// stalledPeer accepts one connection, answers its hello and then never
// reads again: everything the client writes afterwards piles up in the
// socket buffers until its writes block.
func stalledPeer(t *testing.T, schema *subscription.Schema) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		t.Cleanup(func() { conn.Close() })
		var req Request
		frame, err := readFrame(bufio.NewReader(conn), nil)
		if err != nil || decodeRequest(frame, &req) != nil {
			return
		}
		hello := Response{Op: OpHello, OK: true, Bits: schema.Bits(), Attrs: schema.Attrs(), Shards: 1, Role: RolePrimary}
		conn.Write(appendFrame(nil, req.ID, appendResponse(nil, &hello))) //nolint:errcheck // the client's dial fails the test if this did
	}()
	return ln.Addr().String()
}

// TestStalledPeerCannotOutlastContext pins that a caller's context bounds
// the whole op, the frame write included: against a peer that stopped
// draining the connection, callers whose multi-megabyte frames fill the
// socket buffers and block mid-write still return when their deadline
// passes or their context is cancelled — typed, and every one of them, the
// ones queued behind the blocked writer too.
func TestStalledPeerCannotOutlastContext(t *testing.T) {
	schema := coretest.Schema()
	sub := subscription.New(schema)
	batch := make([]*subscription.Subscription, 400_000) // ~5 MB a frame
	for i := range batch {
		batch[i] = sub
	}
	cases := []struct {
		name    string
		timeout time.Duration // DialConfig.RequestTimeout
		cancel  bool          // cancel the callers' context after 200ms
		want    error
	}{
		{"request timeout", 300 * time.Millisecond, false, context.DeadlineExceeded},
		{"cancellation", 0, true, context.Canceled},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := DialContext(bg, DialConfig{Addr: stalledPeer(t, schema), Schema: schema, RequestTimeout: tc.timeout})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			ctx, cancel := context.WithCancel(bg)
			defer cancel()
			if tc.cancel {
				time.AfterFunc(200*time.Millisecond, cancel)
			}
			const callers = 8 // 40 MB between them: past any loopback buffer
			errs := make(chan error, callers)
			for i := 0; i < callers; i++ {
				go func() {
					_, err := c.QueryBatch(ctx, batch)
					errs <- err
				}()
			}
			sawWant := false
			for i := 0; i < callers; i++ {
				select {
				case err := <-errs:
					if !errors.Is(err, tc.want) && !errors.Is(err, ErrConnectionLost) {
						t.Fatalf("op against a stalled peer = %v, want %v or ErrConnectionLost", err, tc.want)
					}
					sawWant = sawWant || errors.Is(err, tc.want)
				case <-time.After(10 * time.Second):
					t.Fatalf("%d of %d ops still blocked 10s after their context ended", callers-i, callers)
				}
			}
			if !sawWant {
				t.Fatalf("no op reported %v", tc.want)
			}
		})
	}
}
