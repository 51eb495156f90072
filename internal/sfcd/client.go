package sfcd

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sfccover/internal/obs"
	"sfccover/internal/subscription"
)

// Sentinel errors of the client surface. Operation failures wrap one of
// these (or a *ServerError), so callers branch with errors.Is/errors.As
// instead of string matching.
var (
	// ErrSchemaMismatch is returned by Dial when the server's negotiated
	// schema (bit width, attribute names) differs from the client's.
	ErrSchemaMismatch = errors.New("sfcd: server schema differs from client schema")
	// ErrClientClosed is returned by operations issued after Close.
	ErrClientClosed = errors.New("sfcd: client is closed")
	// ErrConnectionLost is returned by operations that were in flight when
	// their connection failed (server restart, network drop). An op that
	// may have reached the server is never silently retried — the caller
	// decides whether its op is safe to reissue. What happens next depends
	// on the dial config: with a single Addr the failure is terminal and
	// callers dial a fresh client; with a replica list (DialConfig.Addrs)
	// the client reconnects in the background, ops whose request frame
	// provably never reached the socket are reissued transparently on the
	// replacement connection, and ops issued after the failure wait —
	// bounded by their context — for the next connection.
	ErrConnectionLost = errors.New("sfcd: connection lost")
	// ErrNotPrimary is returned when a failover client's dial finds the
	// daemon answering the hello as a follower: the failover path treats
	// it as a failed attempt and keeps cycling the replica list until one
	// of them is promoted. A plain (single-address) client accepts the
	// connection — pinging, scraping metrics and promoting all work on a
	// follower — and sees the not_primary refusal per state op instead.
	ErrNotPrimary = errors.New("sfcd: daemon is a follower, not a primary")
)

// errUnsent marks a connection failure observed before the request was
// registered on the connection — and therefore before the first byte of
// its frame was written: the server cannot have seen the request, so
// reissuing it on the next connection is exactly-once safe. do wraps the
// terminal error with it and, in failover mode, retries instead of
// surfacing it. A registered request is never marked — its frame may have
// partially reached the server, and one that made it out whole may have
// been applied with its response lost, so those fail typed with
// ErrConnectionLost.
var errUnsent = errors.New("request was never written")

// ServerError is an error frame the server answered a request with.
type ServerError struct {
	// Code classifies the failure (CodeBadRequest, CodeOpFailed, ...).
	Code string
	// Msg is the human-readable explanation.
	Msg string
}

// Error implements error.
func (e *ServerError) Error() string {
	if e.Code == "" {
		return "sfcd: server: " + e.Msg
	}
	return "sfcd: server [" + e.Code + "]: " + e.Msg
}

// DefaultDialTimeout bounds connection establishment plus the hello
// exchange when DialConfig leaves DialTimeout zero.
const DefaultDialTimeout = 10 * time.Second

// DialConfig parameterizes DialContext.
type DialConfig struct {
	// Addr is the server's TCP address. Required unless Addrs is set, in
	// which case it is simply tried first.
	Addr string
	// Addrs lists the replica set's addresses and switches the client
	// into failover mode: a lost connection is redialed in the background
	// with jittered exponential backoff, cycling the whole list (Addr
	// first if set) until a primary answers. Ops in flight at the failure
	// still fail with ErrConnectionLost — an op that may have reached the
	// server is never silently reissued — but ops issued afterwards wait,
	// bounded by their context or RequestTimeout, for the next
	// connection. Leave empty for the classic fail-fast single-connection
	// client.
	Addrs []string
	// Schema is the client's attribute schema (required); Dial verifies it
	// against the server's.
	Schema *subscription.Schema
	// DialTimeout bounds connection establishment and the hello exchange
	// (0 = DefaultDialTimeout). In failover mode it also bounds each
	// background reconnect attempt.
	DialTimeout time.Duration
	// RequestTimeout is the per-operation deadline applied to every
	// request whose context carries no deadline of its own (0 = none).
	// Failover-mode callers want one: it bounds how long an op waits for
	// a reconnection that may never come, and — like any context deadline
	// — for a peer that stopped reading to take the request's frame.
	RequestTimeout time.Duration
}

// clientConn owns one TCP connection's lifetime: the shared frame writer
// callers send through, the reader goroutine, the pending-request demux
// map and the terminal error. The Client swaps these wholesale on
// failover; every request runs against exactly one clientConn from
// registration to response, so a reconnection can never cross-deliver
// another connection's frames.
type clientConn struct {
	conn net.Conn
	addr string

	w    *frameWriter
	done chan struct{} // closed on terminal failure
	wg   sync.WaitGroup

	mu      sync.Mutex
	pending map[uint64]*call
	nextID  uint64
	err     error // terminal error, set once
}

// call is one request's state from encode to answer, pooled: the encoded
// frame tail, the Response the reader decodes into, and the channel that
// wakes the caller. A call sits in its connection's pending map from the
// moment its id is assigned — under cc.mu, before the first byte of its
// frame is written — until the reader claims it for delivery or the
// caller abandons it. Presence in the map is therefore the "may have
// reached the server" mark: a request that failed to register provably
// never left and is safe to reissue; one that registered never is.
type call struct {
	ch   chan struct{}
	tail []byte
	resp Response
	err  error // the response frame did not decode
}

// callPool recycles calls. One is returned to the pool only once its
// delivery question is settled — the response was consumed, or abandon
// proved the reader can never touch it again.
var callPool = sync.Pool{New: func() any { return &call{ch: make(chan struct{}, 1)} }}

// release recycles the call once the caller has copied what it needs out
// of the response.
func (cl *call) release() {
	cl.resp, cl.err = Response{}, nil
	if cap(cl.tail) > scratchRetainBytes {
		cl.tail = nil
	}
	callPool.Put(cl)
}

// Client is a pipelined sfcd protocol client. Any number of goroutines
// may issue operations concurrently on one Client over one TCP
// connection: requests carry ids, each caller encodes and writes its own
// frame (callers that are ready together share one flush),
// and a reader goroutine demultiplexes responses back to their callers —
// no caller ever waits behind another caller's round trip. Every
// operation takes a context.Context; cancellation abandons the call (the
// response, if it ever arrives, is discarded) without disturbing the
// connection — unless it catches the call's own frame half-written into
// a socket the peer stopped draining, which no connection survives.
//
// With DialConfig.Addrs set the client adds a failover layer: a lost
// connection is replaced in the background (jittered backoff, cycling
// the replica list, accepting only daemons that answer the hello as
// primary) and subsequent ops ride the new connection.
type Client struct {
	cfg      DialConfig
	schema   *subscription.Schema
	addrs    []string // rotation order; addrs[0] is the preferred address
	failover bool     // Addrs was set: reconnect instead of staying down

	closed     atomic.Bool // flipped by the first Close call
	lifeCtx    context.Context
	lifeCancel context.CancelFunc
	reconnWG   sync.WaitGroup

	connMu sync.Mutex
	cc     *clientConn   // nil while a failover client is between connections
	ready  chan struct{} // closed when cc becomes usable; replaced on disconnect

	// lat records per-op round-trip latencies (send to demultiplexed
	// response), client-side: queueing, the wire and the server's service
	// time all included — the number a router actually waits.
	lat *obs.Registry
	// opLat holds the pre-resolved per-op histograms do records into.
	opLat *opHists

	// Failover lifecycle counters (see FailoverStats).
	connLost   obs.Counter
	reconnects obs.Counter
	failovers  obs.Counter

	// Hello-negotiated server facts (connMu: refreshed on reconnect).
	shards    int
	partition string
	mode      string
}

// Dial connects to an sfcd server with default configuration and verifies
// with a hello exchange that the server's schema matches the client's
// (attribute names and bit width both participate in the binary wire
// format's header check, so a mismatch here fails fast — with
// ErrSchemaMismatch — instead of per request).
func Dial(addr string, schema *subscription.Schema) (*Client, error) {
	return DialContext(context.Background(), DialConfig{Addr: addr, Schema: schema})
}

// DialContext connects per cfg. The context bounds connection
// establishment and the hello exchange; the returned client is not tied
// to it. With cfg.Addrs set, the addresses are tried in order (Addr
// first) and the first daemon that answers the hello as a primary wins.
func DialContext(ctx context.Context, cfg DialConfig) (*Client, error) {
	if cfg.Schema == nil {
		return nil, errors.New("sfcd: dial config needs a schema")
	}
	addrs := make([]string, 0, len(cfg.Addrs)+1)
	if cfg.Addr != "" {
		addrs = append(addrs, cfg.Addr)
	}
	for _, a := range cfg.Addrs {
		if a != "" && !slices.Contains(addrs, a) {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return nil, errors.New("sfcd: dial config needs an address")
	}
	c := &Client{
		cfg:      cfg,
		schema:   cfg.Schema,
		addrs:    addrs,
		failover: len(cfg.Addrs) > 0,
		ready:    make(chan struct{}),
		lat:      obs.NewRegistry(obs.DefaultMaxOps),
	}
	c.lifeCtx, c.lifeCancel = context.WithCancel(context.Background())
	c.opLat = newOpHists(c.lat.Hist)
	var errs []error
	for _, addr := range addrs {
		cc, err := c.dialOne(ctx, addr)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", addr, err))
			continue
		}
		c.install(cc)
		return c, nil
	}
	c.lifeCancel()
	if len(errs) == 1 {
		return nil, errs[0]
	}
	return nil, fmt.Errorf("sfcd: no dialable primary: %w", errors.Join(errs...))
}

// dialOne establishes and vets one connection: dial, hello, schema
// check, and — so a failover client never settles on a read-only
// replica — the role check. On success the connection's read loop is
// already running.
func (c *Client) dialOne(ctx context.Context, addr string) (*clientConn, error) {
	dialTimeout := c.cfg.DialTimeout
	if dialTimeout == 0 {
		dialTimeout = DefaultDialTimeout
	}
	// One deadline covers connecting AND the hello exchange, as
	// documented — a server that accepts late and then stalls must not
	// get a second full timeout.
	deadline := time.Now().Add(dialTimeout)
	d := net.Dialer{Deadline: deadline}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("sfcd: %w", err)
	}
	cc := &clientConn{
		conn:    conn,
		addr:    addr,
		w:       newFrameWriter(conn),
		done:    make(chan struct{}),
		pending: make(map[uint64]*call),
	}
	cc.wg.Add(1)
	go cc.readLoop()

	hctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	hello, err := c.doConn(hctx, cc, &Request{Op: OpHello})
	if err != nil {
		cc.shutdown(ErrClientClosed)
		return nil, err
	}
	defer hello.release()
	resp := &hello.resp
	if err := checkSchema(c.schema, resp); err != nil {
		cc.shutdown(ErrClientClosed)
		return nil, err
	}
	// Only a failover client rejects followers at dial time: it is
	// looking for the writable member. A plain client may want a
	// follower on purpose — to ping it, scrape metrics, or promote it —
	// and every state op fails there with a typed not_primary error
	// anyway.
	if c.failover && resp.Role == RoleFollower {
		cc.shutdown(ErrClientClosed)
		return nil, ErrNotPrimary
	}
	c.connMu.Lock()
	c.shards, c.partition, c.mode = resp.Shards, resp.Partition, resp.Mode
	c.connMu.Unlock()
	return cc, nil
}

// install publishes cc as the client's live connection, wakes every op
// waiting for one, and (in failover mode) arms the supervisor that will
// replace it when it dies. A connection racing a concurrent Close is
// torn down instead of published.
func (c *Client) install(cc *clientConn) {
	c.connMu.Lock()
	if c.closed.Load() {
		c.connMu.Unlock()
		cc.shutdown(ErrClientClosed)
		return
	}
	c.cc = cc
	ready := c.ready
	c.connMu.Unlock()
	close(ready)
	if c.failover {
		c.reconnWG.Add(1)
		go c.supervise(cc)
	}
}

// supervise watches one installed connection and, once it fails for any
// reason other than Close, retires it and runs the redial loop.
func (c *Client) supervise(cc *clientConn) {
	defer c.reconnWG.Done()
	<-cc.done
	cc.wg.Wait()
	if c.closed.Load() {
		return
	}
	c.connLost.Inc()
	c.connMu.Lock()
	if c.cc == cc {
		c.cc = nil
		c.ready = make(chan struct{})
	}
	c.connMu.Unlock()
	c.redial(cc.addr)
}

// redial cycles the replica list with jittered exponential backoff until
// a primary answers or the client is closed. The rotation starts at the
// address that just failed: a bounced primary that comes right back is
// preferred over a follower that would refuse anyway.
func (c *Client) redial(lastAddr string) {
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	start := max(slices.Index(c.addrs, lastAddr), 0)
	for attempt := 1; ; attempt++ {
		for i := range c.addrs {
			if c.closed.Load() {
				return
			}
			addr := c.addrs[(start+i)%len(c.addrs)]
			cc, err := c.dialOne(c.lifeCtx, addr)
			if err != nil {
				continue
			}
			c.reconnects.Inc()
			if addr != lastAddr {
				c.failovers.Inc()
			}
			c.install(cc)
			return
		}
		select {
		case <-c.lifeCtx.Done():
			return
		case <-time.After(followBackoff(rng, attempt)):
		}
	}
}

// checkSchema verifies the hello response against the client schema.
func checkSchema(schema *subscription.Schema, resp *Response) error {
	if resp.Bits != schema.Bits() || len(resp.Attrs) != schema.NumAttrs() {
		return fmt.Errorf("%w: server has %d bits and %d attrs, client has %d bits and %d attrs",
			ErrSchemaMismatch, resp.Bits, len(resp.Attrs), schema.Bits(), schema.NumAttrs())
	}
	for i, attr := range schema.Attrs() {
		if resp.Attrs[i] != attr {
			return fmt.Errorf("%w: server attribute %d is %q, client expects %q",
				ErrSchemaMismatch, i, resp.Attrs[i], attr)
		}
	}
	return nil
}

// Close shuts the client down. In-flight operations fail with
// ErrClientClosed, and a failover client stops reconnecting. The first
// call returns nil (even on a client whose connection already failed);
// every later call is rejected with ErrClientClosed — a specified, typed
// outcome instead of silently re-tearing-down, so recovery code that
// double-closes by accident gets a diagnosis rather than unspecified
// behavior.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return ErrClientClosed
	}
	c.lifeCancel()
	c.connMu.Lock()
	cc := c.cc
	c.connMu.Unlock()
	if cc != nil {
		cc.fail(ErrClientClosed)
		cc.wg.Wait()
	}
	c.reconnWG.Wait()
	return nil
}

// Schema returns the client's attribute schema.
func (c *Client) Schema() *subscription.Schema { return c.schema }

// Shards reports the server's shard count (from the latest hello
// exchange).
func (c *Client) Shards() int {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	return c.shards
}

// Partition reports the server's partition strategy.
func (c *Client) Partition() string {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	return c.partition
}

// Mode reports the server's detection mode.
func (c *Client) Mode() string {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	return c.mode
}

// Addr reports the address of the connection currently carrying
// requests, or "" while a failover client is between connections.
func (c *Client) Addr() string {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if c.cc == nil {
		return ""
	}
	return c.cc.addr
}

// FailoverStats is a point-in-time snapshot of a client's
// connection-lifecycle counters. All zeros on a single-address client
// that never lost its connection.
type FailoverStats struct {
	// ConnLost counts connections that failed under the client.
	ConnLost uint64
	// Reconnects counts replacement connections successfully installed.
	Reconnects uint64
	// Failovers counts the subset of reconnects that landed on a
	// different address than the one that failed.
	Failovers uint64
}

// FailoverStats reports the client's connection-lifecycle counters.
func (c *Client) FailoverStats() FailoverStats {
	return FailoverStats{
		ConnLost:   c.connLost.Value(),
		Reconnects: c.reconnects.Value(),
		Failovers:  c.failovers.Value(),
	}
}

// acquireConn returns the connection to issue a request on. A fail-fast
// client always returns its one connection (dead or alive — the
// registration step surfaces the terminal error); a failover client
// blocks, bounded by ctx, while the redial loop hunts for a primary. A
// failover client that finds the installed connection already failed
// retires it on the spot rather than handing it out: the supervisor will
// replace it, but waiting here instead of bouncing requests off the
// corpse is what lets the unsent-retry path block until the replacement
// arrives.
func (c *Client) acquireConn(ctx context.Context) (*clientConn, error) {
	for {
		if c.closed.Load() {
			return nil, ErrClientClosed
		}
		c.connMu.Lock()
		cc, ready := c.cc, c.ready
		if cc != nil && c.failover {
			select {
			case <-cc.done:
				// Idempotent with the supervisor's own retirement: whichever
				// runs second sees c.cc no longer pointing at the corpse.
				c.cc = nil
				c.ready = make(chan struct{})
				cc, ready = nil, c.ready
			default:
			}
		}
		c.connMu.Unlock()
		if cc != nil {
			return cc, nil
		}
		select {
		case <-ready:
		case <-ctx.Done():
			return nil, fmt.Errorf("sfcd: waiting for reconnect: %w", ctx.Err())
		case <-c.lifeCtx.Done():
			return nil, ErrClientClosed
		}
	}
}

// fail records the terminal error (first one wins) and tears the
// connection down; every waiter and later caller observes it.
func (cc *clientConn) fail(err error) {
	cc.mu.Lock()
	if cc.err == nil {
		cc.err = err
		close(cc.done)
	}
	cc.mu.Unlock()
	cc.conn.Close()
}

// shutdown fails the connection and waits for its loops to exit.
func (cc *clientConn) shutdown(err error) {
	cc.fail(err)
	cc.wg.Wait()
}

// terminalErr returns the recorded terminal error.
func (cc *clientConn) terminalErr() error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.err
}

// send registers cl under a fresh request id and writes its frame, all
// from the calling goroutine. Registration against an already-failed
// connection returns the terminal error wrapped in errUnsent: nothing was
// written, so do may reissue the request. Past registration the request
// counts as possibly sent whatever happens — a failed write fails the
// connection, and the caller learns of it through cc.done like every
// other in-flight request. ctx bounds the write as it bounds the wait for
// the response: when it ends, send stops waiting for its turn at the
// socket, and a write blocked in a socket the peer stopped draining is cut
// short — which, mid-frame, is a failed write.
//
//sfc:hotpath
func (cc *clientConn) send(ctx context.Context, cl *call) (uint64, error) {
	cc.mu.Lock()
	if cc.err != nil {
		err := cc.err
		cc.mu.Unlock()
		return 0, fmt.Errorf("%w: %w", errUnsent, err)
	}
	cc.nextID++
	id := cc.nextID
	cc.pending[id] = cl
	cc.mu.Unlock()
	if err := cc.w.send(ctx, id, cl.tail); err != nil {
		cc.fail(fmt.Errorf("%w: %v", ErrConnectionLost, err))
	}
	return id, nil
}

// abandon gives up on a registered call (cancellation, connection
// failure) and settles who owns it. The reader claims a call by removing
// its pending entry under cc.mu and only then decodes into it, so exactly
// one of two states holds once the lock is taken: the entry is still
// present — the reader never saw the response and, with the entry
// removed here, never will touch the call — or the entry is gone, meaning
// the reader holds the call and its wake-up is on the way (it already has
// the whole frame, so the wait is a decode long). abandon reports the
// second case as delivered. Either way the call is safe to recycle
// afterwards; no third interleaving exists.
func (cc *clientConn) abandon(id uint64, cl *call) (delivered bool) {
	cc.mu.Lock()
	_, mine := cc.pending[id]
	if mine {
		delete(cc.pending, id)
	}
	cc.mu.Unlock()
	if !mine {
		<-cl.ch
	}
	return !mine
}

// readLoop demultiplexes response frames to their waiting callers by
// request id. Responses for abandoned requests are dropped undecoded; an
// id-0 frame is a connection-level server error and terminates the
// client.
func (cc *clientConn) readLoop() {
	defer cc.wg.Done()
	br := bufio.NewReaderSize(cc.conn, 64<<10)
	var frame []byte
	for {
		var err error
		if frame, err = readFrame(br, frame); err != nil {
			switch {
			case err == io.EOF:
				cc.fail(fmt.Errorf("%w: connection closed by server", ErrConnectionLost))
			case errors.Is(err, errFrameTooLarge) || errors.Is(err, errEmptyFrame):
				cc.fail(fmt.Errorf("sfcd: malformed response: %w", err))
			default:
				cc.fail(fmt.Errorf("%w: %v", ErrConnectionLost, err))
			}
			return
		}
		id, n := binary.Uvarint(frame)
		if n <= 0 {
			cc.fail(fmt.Errorf("sfcd: malformed response: %w", errTruncated))
			return
		}
		if id == 0 {
			var resp Response
			if err := decodeResponse(frame, &resp); err != nil {
				cc.fail(fmt.Errorf("sfcd: malformed response: %w", err))
			} else {
				cc.fail(&ServerError{Code: resp.Code, Msg: resp.Error})
			}
			return
		}
		cc.mu.Lock()
		cl := cc.pending[id]
		delete(cc.pending, id)
		cc.mu.Unlock()
		if cl == nil {
			continue
		}
		// The call is ours alone now (see abandon); the send below never
		// blocks (the channel is buffered and receives exactly one wake-up)
		// and hands it back, so err is read before it.
		err = decodeResponse(frame, &cl.resp)
		cl.err = err
		cl.ch <- struct{}{}
		if err != nil {
			cc.fail(fmt.Errorf("sfcd: malformed response: %w", err))
			return
		}
	}
}

// do issues one request and waits for its response. It applies the
// configured RequestTimeout when ctx carries no deadline, acquires the
// current connection (waiting for one, in failover mode), and runs the
// request against it; the caller's wait is independent of every other
// in-flight request. The returned call holds the (successful) response;
// the caller releases it once it has copied out what it needs.
//
//sfc:hotpath
func (c *Client) do(ctx context.Context, req *Request) (*call, error) {
	if c.cfg.RequestTimeout > 0 {
		if _, hasDeadline := ctx.Deadline(); !hasDeadline {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, c.cfg.RequestTimeout)
			defer cancel()
		}
	}
	for {
		cc, err := c.acquireConn(ctx)
		if err != nil {
			return nil, err
		}
		cl, err := c.doConn(ctx, cc, req)
		if err != nil && c.failover && errors.Is(err, errUnsent) {
			// The frame provably never reached the socket: reissuing on the
			// next connection is exactly-once safe. acquireConn blocks —
			// bounded by ctx — until the redial loop installs one, so this
			// loop never spins against the same dead connection.
			continue
		}
		return cl, err
	}
}

// doConn issues one request on one specific connection: the caller
// encodes the frame, registers the request id for demultiplexing and
// writes the frame itself — no goroutine sits between it and the socket.
// The request's whole lifetime is pinned to cc — if cc dies the op fails
// typed, never silently migrating to a replacement connection.
//
//sfc:hotpath
func (c *Client) doConn(ctx context.Context, cc *clientConn, req *Request) (*call, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sfcd: %s: %w", req.Op, err)
	}
	cl := callPool.Get().(*call)
	cl.tail = appendRequest(cl.tail[:0], req)
	// The server drops the connection on frames beyond MaxFrameBytes; fail
	// the request with an actionable error instead (split the batch).
	if len(cl.tail)+binary.MaxVarintLen64 > MaxFrameBytes {
		n := len(cl.tail)
		cl.release()
		return nil, fmt.Errorf("sfcd: request frame is %d bytes, server cap is %d: split the batch", n, MaxFrameBytes)
	}
	//sfc:allowclock one clock pair per request is the round-trip histogram's contract: it times every client op exactly
	t0 := time.Now()
	id, err := cc.send(ctx, cl)
	if err != nil {
		cl.release()
		return nil, err
	}
	select {
	case <-cl.ch:
	case <-ctx.Done():
		// The response may have raced the cancellation; prefer it.
		if !cc.abandon(id, cl) {
			cl.release()
			return nil, fmt.Errorf("sfcd: %s: %w", req.Op, ctx.Err())
		}
	case <-cc.done:
		// The response may have been delivered just before the failure —
		// prefer it. Failing that the request was registered, so it may
		// have reached the server: it fails typed, never reissued. When ctx
		// has ended too — it may be this op's own write, cut short, that
		// failed the connection — the op answers to ctx as it would have a
		// moment earlier.
		if !cc.abandon(id, cl) {
			cl.release()
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("sfcd: %s: %w", req.Op, err)
			}
			return nil, cc.terminalErr()
		}
	}
	//sfc:allowclock pairs with the t0 read above; the histogram itself is pre-resolved, not fetched
	c.opLat.observe(req.Op, time.Since(t0))
	if err := cl.err; err != nil {
		cl.release()
		return nil, fmt.Errorf("sfcd: malformed response: %w", err)
	}
	if !cl.resp.OK {
		err := &ServerError{Code: cl.resp.Code, Msg: cl.resp.Error}
		cl.release()
		return nil, err
	}
	return cl, nil
}

// result issues a single-outcome request and returns its Result.
func (c *Client) result(ctx context.Context, req *Request) (Result, error) {
	cl, err := c.do(ctx, req)
	if err != nil {
		return Result{}, err
	}
	defer cl.release()
	return cl.resp.Result, nil
}

// subOp issues one single-subscription op against a link namespace. The
// payload is encoded into a stack buffer and copied once, into the frame.
func (c *Client) subOp(ctx context.Context, op Opcode, link string, s *subscription.Subscription) (Result, error) {
	var buf [subscription.MaxWireLen]byte
	payload, err := s.AppendBinary(buf[:0])
	if err != nil {
		return Result{}, fmt.Errorf("sfcd: %w", err)
	}
	return c.result(ctx, &Request{Op: op, Link: link, Payload: payload})
}

// batchOp issues one subscription-batch op against a link namespace and
// returns the per-item results, aligned with subs. A nil entry (the
// caller already failed that item) travels as an empty payload so the
// slots stay aligned.
func (c *Client) batchOp(ctx context.Context, op Opcode, link string, subs []*subscription.Subscription) ([]Result, error) {
	payloads, err := subscription.MarshalBatch(subs)
	if err != nil {
		return nil, fmt.Errorf("sfcd: %w", err)
	}
	return c.results(ctx, &Request{Op: op, Link: link, Payloads: payloads}, len(subs))
}

// results issues a batch request and checks the response carries one
// result per item.
func (c *Client) results(ctx context.Context, req *Request, want int) ([]Result, error) {
	cl, err := c.do(ctx, req)
	if err != nil {
		return nil, err
	}
	defer cl.release()
	if len(cl.resp.Results) != want {
		return nil, fmt.Errorf("sfcd: %d results for %d %s items", len(cl.resp.Results), want, req.Op)
	}
	return cl.resp.Results, nil
}

// bodyOp issues an introspection op against a link namespace and decodes
// its JSON body into v.
func (c *Client) bodyOp(ctx context.Context, op Opcode, link string, v any) error {
	cl, err := c.do(ctx, &Request{Op: op, Link: link})
	if err != nil {
		return err
	}
	defer cl.release()
	return decodeBody(&cl.resp, v)
}

// simpleOp issues a field-less op whose response carries nothing but
// success.
func (c *Client) simpleOp(ctx context.Context, op Opcode, link string) error {
	cl, err := c.do(ctx, &Request{Op: op, Link: link})
	if err != nil {
		return err
	}
	cl.release()
	return nil
}

// subscription resolves a stored id of a link namespace back to its
// subscription.
func (c *Client) subscription(ctx context.Context, link string, sid uint64) (*subscription.Subscription, error) {
	res, err := c.result(ctx, &Request{Op: OpGet, Link: link, SID: sid})
	if err != nil {
		return nil, err
	}
	sub, err := subscription.UnmarshalSubscription(c.schema, res.Payload)
	if err != nil {
		return nil, fmt.Errorf("sfcd: %w", err)
	}
	return sub, nil
}

// Ping checks liveness.
func (c *Client) Ping(ctx context.Context) error { return c.simpleOp(ctx, OpPing, "") }

// Subscribe stores s on the server, returning its id and the outcome of
// the pre-insert covering query.
func (c *Client) Subscribe(ctx context.Context, s *subscription.Subscription) (sid uint64, covered bool, coveredBy uint64, err error) {
	res, err := c.subOp(ctx, OpSubscribe, "", s)
	return res.SID, res.Covered, res.CoveredBy, err
}

// SubscribeBatch stores a batch in one round trip. The results align with
// subs; per-item failures are reported in Result.Error.
func (c *Client) SubscribeBatch(ctx context.Context, subs []*subscription.Subscription) ([]Result, error) {
	return c.batchOp(ctx, OpSubscribeBatch, "", subs)
}

// Insert stores s without the pre-insert covering query — the
// Provider.Insert path — and returns its id.
func (c *Client) Insert(ctx context.Context, s *subscription.Subscription) (uint64, error) {
	res, err := c.subOp(ctx, OpInsert, "", s)
	return res.SID, err
}

// Unsubscribe removes the subscription with the given id.
func (c *Client) Unsubscribe(ctx context.Context, sid uint64) error {
	_, err := c.result(ctx, &Request{Op: OpUnsubscribe, SID: sid})
	return err
}

// UnsubscribeBatch removes a batch of ids in one round trip.
func (c *Client) UnsubscribeBatch(ctx context.Context, sids []uint64) ([]Result, error) {
	return c.results(ctx, &Request{Op: OpUnsubscribeBatch, SIDs: sids}, len(sids))
}

// Query asks whether any stored subscription covers s, without storing
// anything.
func (c *Client) Query(ctx context.Context, s *subscription.Subscription) (covered bool, coveredBy uint64, err error) {
	res, err := c.subOp(ctx, OpQuery, "", s)
	return res.Covered, res.CoveredBy, err
}

// QueryBatch runs a batch of covering queries in one round trip.
func (c *Client) QueryBatch(ctx context.Context, subs []*subscription.Subscription) ([]Result, error) {
	return c.batchOp(ctx, OpQueryBatch, "", subs)
}

// Subscription resolves a stored id back to its subscription.
func (c *Client) Subscription(ctx context.Context, sid uint64) (*subscription.Subscription, error) {
	return c.subscription(ctx, "", sid)
}

// Metrics fetches the server counters rendered in the Prometheus text
// exposition format.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	cl, err := c.do(ctx, &Request{Op: OpMetrics})
	if err != nil {
		return "", err
	}
	defer cl.release()
	if len(cl.resp.Body) == 0 {
		return "", errors.New("sfcd: response carries no metrics")
	}
	return string(cl.resp.Body), nil
}

// Promote asks the daemon to flip from follower to primary (a no-op on
// a daemon already serving as primary): it stops the follower's stream,
// hydrates the engine from the durable store and starts serving writes.
func (c *Client) Promote(ctx context.Context) error { return c.simpleOp(ctx, OpPromote, "") }

// Match asks whether any stored subscription matches the event — covering
// applied to the event's degenerate point-subscription, with the usual
// guarantee (a reported match is genuine; approximate mode may miss).
func (c *Client) Match(ctx context.Context, e subscription.Event) (matched bool, matchedBy uint64, err error) {
	var buf [subscription.MaxWireLen]byte
	payload, err := e.AppendBinary(buf[:0], c.schema)
	if err != nil {
		return false, 0, fmt.Errorf("sfcd: %w", err)
	}
	res, err := c.result(ctx, &Request{Op: OpMatch, Payload: payload})
	return res.Covered, res.CoveredBy, err
}

// Snapshot forces a point-in-time snapshot of the daemon's durable
// subscription state (every link namespace — the write-ahead log is
// shared) and compacts the log behind it. Daemons running without a data
// dir answer with a *ServerError carrying CodeUnsupported.
func (c *Client) Snapshot(ctx context.Context) error { return c.simpleOp(ctx, OpSnapshot, "") }

// Latency returns a snapshot of the client's round-trip latency
// histograms, keyed by op ("query", "subscribe_batch", "remove", ...).
// The measurement spans the frame write to the demultiplexed response,
// so it folds in the wire and the server's service time. Use
// obs.Snapshot.Quantile for percentiles and obs.Snapshot.Sub for
// interval deltas.
func (c *Client) Latency() map[string]obs.Snapshot {
	return c.lat.Snapshot()
}

// TraceQuery runs one covering query with server-side tracing forced on
// and returns the outcome alongside the full trace record: per-stage
// timings (decomposition, probe loop, shard fan-out), per-slice probe
// counts and the query's cost stats.
func (c *Client) TraceQuery(ctx context.Context, s *subscription.Subscription) (covered bool, coveredBy uint64, trace *Trace, err error) {
	payload, err := s.MarshalBinary()
	if err != nil {
		return false, 0, nil, fmt.Errorf("sfcd: %w", err)
	}
	cl, err := c.do(ctx, &Request{Op: OpTrace, Payload: payload})
	if err != nil {
		return false, 0, nil, err
	}
	defer cl.release()
	trace = new(Trace)
	if err := decodeBody(&cl.resp, trace); err != nil {
		return false, 0, nil, err
	}
	return cl.resp.Result.Covered, cl.resp.Result.CoveredBy, trace, nil
}

// SlowLog fetches the daemon's ring of recent slow-query traces, newest
// first. A daemon running with telemetry off returns an empty batch.
func (c *Client) SlowLog(ctx context.Context) ([]Trace, error) {
	var traces []Trace
	err := c.bodyOp(ctx, OpSlowlog, "", &traces)
	return traces, err
}

// Stats fetches the server's counter snapshot.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var st Stats
	err := c.bodyOp(ctx, OpStats, "", &st)
	return st, err
}
