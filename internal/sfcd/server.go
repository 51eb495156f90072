package sfcd

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sfccover/internal/core"
	"sfccover/internal/engine"
	"sfccover/internal/obs"
	"sfccover/internal/persist"
	"sfccover/internal/subscription"
)

// ServerConfig parameterizes the daemon's hardening knobs; the zero value
// is fully permissive (no connection limit, no read timeout).
type ServerConfig struct {
	// MaxConns caps concurrently open client connections (0 = unlimited).
	// A connection beyond the cap receives one connection-level error
	// frame (code "conn_limit") and is closed.
	MaxConns int
	// ReadTimeout bounds the wait for the next request frame on a
	// connection (0 = none). A connection that stays idle — or stalls
	// mid-frame — past the timeout is reaped, freeing its MaxConns slot.
	ReadTimeout time.Duration
}

// connInflight bounds how many of one connection's pipelined requests are
// served concurrently; further frames queue in the read loop.
const connInflight = 32

// scratchRetainBytes and scratchRetainItems cap what a pooled reqScratch
// keeps between requests (frame and response buffers; batch slices), so
// one 8 MiB batch does not pin its memory on every worker.
const (
	scratchRetainBytes = 64 << 10
	scratchRetainItems = 1024
)

// Server serves the sfcd protocol on top of one Engine. Connections are
// handled concurrently, and so are the pipelined requests within one
// connection: a request frame goes to a handler worker (bounded by
// connInflight) unless nothing is queued behind it and it is a cheap read
// (ping, query, match, get on an existing namespace), which the
// connection's read loop answers itself. Responses are written as they
// complete — out of request order when a slow covering query overlaps a
// fast ping. Clients match responses to requests by id.
//
// Besides the engine — the shared namespace — the server lazily maintains
// one isolated provider per named link (see the package comment on link
// namespaces), built from the engine's detector template.
type Server struct {
	eng    *engine.Engine
	schema *subscription.Schema
	scfg   ServerConfig
	// shared answers the empty-link namespace: the engine itself, or its
	// durable wrapper when the server runs with a store.
	shared core.Provider
	store  *persist.Store

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	linkMu sync.Mutex
	links  map[string]core.Provider

	// boundedSearch is whether a covering search on this server's
	// namespaces (all built from the engine's detector template) stops
	// within the walk budget: not in exact mode, whose walk has none, nor
	// with the budget lifted. Only then may the read loop serve query and
	// match itself.
	boundedSearch bool

	// obs is adopted from the engine (nil when the engine runs with
	// TelemetryOff): wire-op dispatch latencies are recorded into it, so
	// the daemon's op histograms and the engine's internal stage
	// histograms share one registry and one exposition.
	obs *obs.Observer
	// opLat holds the pre-resolved per-op histograms the request path
	// records into (nil when obs is nil).
	opLat *opHists
	// scratch pools the per-request decode/encode state (*reqScratch). It
	// is per server, not per package: the scratch subscriptions are bound
	// to this server's schema.
	scratch sync.Pool

	// primary is false while the server is a read-only follower draining
	// a primary's replication stream; Promote flips it (exactly once) to
	// true. The atomic store publishes the hydrated shared provider and
	// links: serve() loads it before touching either, so an op observing
	// true also observes the completed hydration.
	primary atomic.Bool
	// promoteMu serializes Promote against itself and Close.
	promoteMu sync.Mutex
	// followAddr/followStop/followDone bracket the follower tail loop;
	// nil on servers born primary.
	followAddr     string
	followStop     chan struct{}
	followDone     chan struct{}
	stopFollowOnce sync.Once

	// Replication telemetry, rendered by MetricsText. The counters split
	// by side: streamed/followers count the primary serving tails,
	// applied/resets/reconnects count the follower consuming one.
	repStreamed   obs.Counter // records streamed out to followers
	repApplied    obs.Counter // records applied from the primary's stream
	repResets     obs.Counter // full-state resets installed
	repReconnects obs.Counter // stream (re)connect attempts
	repFollowers  obs.Gauge   // live follower streams being served
	repPrimaryPos obs.Gauge   // primary's stream position, as last seen
}

// NewServer wraps an engine in a protocol server with permissive
// hardening defaults. The server does not own the engine: Close stops
// serving but leaves the engine usable.
func NewServer(eng *engine.Engine) *Server {
	return NewServerWith(eng, ServerConfig{})
}

// NewServerWith wraps an engine in a protocol server with the given
// hardening configuration.
func NewServerWith(eng *engine.Engine, cfg ServerConfig) *Server {
	det := eng.Config().Detector
	s := &Server{
		eng:    eng,
		schema: eng.Schema(),
		scfg:   cfg,
		shared: eng,
		conns:  make(map[net.Conn]struct{}),
		links:  make(map[string]core.Provider),
		obs:    eng.Observer(),

		boundedSearch: det.Mode != core.ModeExact && det.MaxCubes != core.UnlimitedCubes,
	}
	if s.obs != nil {
		s.opLat = newOpHists(s.obs.Hist)
	}
	s.scratch.New = func() any { return &reqScratch{sub: subscription.New(s.schema)} }
	s.primary.Store(true)
	return s
}

// NewPersistentServer wraps an engine in a protocol server whose
// subscription state is durable under the store: the shared engine is
// recovered from (and logs to) the store's empty link, every named link
// namespace recorded in the store is rebuilt eagerly at boot — so a
// restarted daemon serves its full pre-crash state before the first
// request — and links created later log from their first subscription.
// The engine must be freshly built (recovery bulk-loads into it); the
// store must be freshly opened and outlive the server. The caller still
// owns both: Close stops serving without closing engine or store, but it
// does close the recovered link namespaces.
func NewPersistentServer(eng *engine.Engine, store *persist.Store, cfg ServerConfig) (*Server, error) {
	if store.Schema() != eng.Schema() {
		return nil, fmt.Errorf("sfcd: store schema differs from engine schema")
	}
	s := NewServerWith(eng, cfg)
	s.store = store
	if err := s.hydrate(); err != nil {
		return nil, err
	}
	return s, nil
}

// hydrate wraps the engine in the store's shared link and eagerly
// rebuilds every named link namespace the store records — the boot path
// of a persistent primary, and the promotion path of a follower whose
// store just finished draining the stream. On failure everything built
// so far is unwound: the store links are released (a retry over the same
// open store would otherwise hit "already wrapped") and the orphaned
// detectors closed.
func (s *Server) hydrate() error {
	shared, err := s.store.Durable("", s.eng)
	if err != nil {
		return fmt.Errorf("sfcd: recovering shared engine: %w", err)
	}
	s.shared = shared
	for _, link := range s.store.Links() {
		if link == "" {
			continue
		}
		p, err := s.buildLink(link)
		if err != nil {
			s.linkMu.Lock()
			links := s.links
			s.links = make(map[string]core.Provider)
			s.linkMu.Unlock()
			for _, built := range links {
				built.Close()
			}
			shared.Release()
			s.shared = s.eng
			return fmt.Errorf("sfcd: recovering link %q: %w", link, err)
		}
		s.linkMu.Lock()
		s.links[link] = p
		s.linkMu.Unlock()
	}
	return nil
}

// NewFollowerServer wraps an engine in a read-only follower: its store
// tails the primary at primaryAddr (reconnecting with jittered backoff
// across primary deaths) and the engine stays cold until Promote, which
// stops the stream and hydrates the engine from the drained store.
// Until then every state-touching op answers with code "not_primary";
// ping, hello, promote, replicate (chained followers) and the shared
// metrics page are served. The engine must be freshly built and the
// store freshly opened with no providers wrapped; the caller owns both,
// as with NewPersistentServer.
func NewFollowerServer(eng *engine.Engine, store *persist.Store, cfg ServerConfig, primaryAddr string) (*Server, error) {
	if store.Schema() != eng.Schema() {
		return nil, fmt.Errorf("sfcd: store schema differs from engine schema")
	}
	s := NewServerWith(eng, cfg)
	s.store = store
	s.primary.Store(false)
	s.followAddr = primaryAddr
	s.followStop = make(chan struct{})
	s.followDone = make(chan struct{})
	go s.followLoop()
	return s, nil
}

// Promote flips a follower to primary: the tail loop is stopped (the
// frame being applied completes first, so the stream is drained of
// everything received), the engine is hydrated from the store, and the
// full op surface opens. Idempotent on a primary. On hydration failure
// the server stays a follower with its stream stopped; Promote can be
// retried.
func (s *Server) Promote() error {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	if s.primary.Load() {
		return nil
	}
	s.stopFollow()
	if err := s.hydrate(); err != nil {
		return err
	}
	s.primary.Store(true)
	return nil
}

// Role reports RolePrimary or RoleFollower.
func (s *Server) Role() string {
	if s.primary.Load() {
		return RolePrimary
	}
	return RoleFollower
}

// stopFollow ends the tail loop and waits for it. Safe to call multiple
// times and on servers born primary (no-op).
func (s *Server) stopFollow() {
	if s.followStop == nil {
		return
	}
	s.stopFollowOnce.Do(func() { close(s.followStop) })
	<-s.followDone
}

// Listen binds addr (e.g. "127.0.0.1:7421", ":0" for an ephemeral port)
// and starts accepting connections in the background. It returns the bound
// address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("sfcd: %w", err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil, errors.New("sfcd: server is closed")
	}
	s.ln = ln
	s.wg.Add(1) // under s.mu: see the comment in acceptLoop
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		s.acceptLoop(ln)
	}()
	return ln.Addr(), nil
}

// Serve accepts connections on ln until the listener fails or the server
// is closed. It is the blocking alternative to Listen for callers that
// manage their own listener.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("sfcd: server is closed")
	}
	s.ln = ln
	s.mu.Unlock()
	return s.acceptLoop(ln)
}

func (s *Server) acceptLoop(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("sfcd: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		if s.scfg.MaxConns > 0 && len(s.conns) >= s.scfg.MaxConns {
			// wg.Add must happen while s.mu still proves !s.closed: Close
			// sets closed under the same lock before wg.Wait, so Adding
			// here can never race a Wait that already observed zero.
			s.wg.Add(1)
			s.mu.Unlock()
			// Off the accept loop: the refusal waits (bounded) for the client's
			// hello, and a dialer that sends nothing must not stall accepts.
			go func() {
				defer s.wg.Done()
				refuseOverLimit(conn, s.scfg.MaxConns)
			}()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

// refuseOverLimit answers an over-limit connection with one clean
// connection-level conn_limit frame and closes it, so clients fail with a
// diagnosis instead of a dropped connection. It consumes the client's
// first frame (the hello) first, for at most a second: closing with unread
// data in the receive buffer provokes a TCP reset that can discard the
// error frame before the client reads it.
func refuseOverLimit(conn net.Conn, limit int) {
	conn.SetReadDeadline(time.Now().Add(time.Second))
	readFrame(bufio.NewReaderSize(conn, 4<<10), nil) //nolint:errcheck // drain the hello, best effort
	conn.SetWriteDeadline(time.Now().Add(time.Second))
	newFrameWriter(conn).refuse(CodeConnLimit, fmt.Sprintf("connection limit %d reached", limit))
}

// Close stops the listener, drops every open connection, waits for the
// handlers to drain and releases the link-namespace providers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.stopFollow()
	s.wg.Wait()
	s.linkMu.Lock()
	links := s.links
	s.links = make(map[string]core.Provider)
	s.linkMu.Unlock()
	for _, p := range links {
		p.Close()
	}
	if d, ok := s.shared.(*persist.DurableProvider); ok {
		// The engine is not ours to close, but the store link must be
		// released so a successor server can re-wrap it.
		d.Release()
	}
	return nil
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

// connState is the per-connection context handlers work against: the
// shared frame writer, plus what the one streaming op (replicate) needs —
// a signal that the read loop exited (the stream's cancellation) and a
// flag exempting the connection from idle reaping while it streams (a
// follower sends nothing after its replicate frame, which is not idleness).
type connState struct {
	conn       net.Conn
	w          *frameWriter
	readerGone chan struct{}
	streaming  atomic.Bool
}

// send writes one response frame — id, then the tail appendResponse
// produced — from the calling handler's own goroutine. A failed write
// closes the connection, which is what stops the read loop.
//
//sfc:hotpath
func (cs *connState) send(id uint64, tail []byte) {
	if err := cs.w.send(context.Background(), id, tail); err != nil {
		cs.conn.Close()
	}
}

// refuse sends a connection-level (id 0) error frame and closes the
// connection under the writer's lock, so the frame is the last thing the
// peer reads, as the protocol promises.
func (w *frameWriter) refuse(code, msg string) {
	tail := appendResponse(nil, &Response{OK: false, Code: code, Error: msg})
	w.lock(context.Background())
	w.buf = appendFrame(w.buf, 0, tail)
	w.flush(context.Background()) //nolint:errcheck // the connection dies either way
	w.conn.Close()
	w.unlock()
}

// reqScratch is everything one request needs between its frame leaving
// the socket and its response entering it, pooled per server so
// steady-state traffic allocates nothing: the frame body, the Request
// decoded from it (whose payload fields alias the body), the Response
// and its encoding, and decode targets for the subscriptions of ops that
// do not retain them (queries — an inserted subscription is stored by the
// provider and must be a fresh allocation).
type reqScratch struct {
	frame   []byte
	req     Request
	decErr  error // decodeRequest's verdict on frame, read by handleFrame
	resp    Response
	out     []byte
	payload []byte // get's encoded subscription
	sub     *subscription.Subscription
	subs    []*subscription.Subscription
}

// release returns sc to the pool — unless one oversized request grew it
// past the retention caps, in which case its buffers die with it rather
// than staying pinned on every worker.
func (s *Server) release(sc *reqScratch) {
	if max(cap(sc.frame), cap(sc.out)) > scratchRetainBytes ||
		max(cap(sc.req.Payloads), cap(sc.req.SIDs), cap(sc.resp.Results), cap(sc.subs)) > scratchRetainItems {
		return
	}
	s.scratch.Put(sc)
}

// handleConn pumps one connection: the read loop copies each request
// frame into a pooled scratch and decodes it. A frame with nothing
// buffered behind it whose op the read loop may serve itself (see inline)
// is served right there; every other frame goes to a pool of handler
// workers (grown on demand up to connInflight — persistent workers keep
// warmed-up stacks across requests, while an idle connection holds only
// what its pipelining depth ever needed). Either way one handleFrame
// serves, encodes and writes the response through the connection's
// frameWriter; nothing sits between a finished handler and the socket.
// An inline op saves the hand-off to a worker, and a frame that arrives
// behind it waits in the socket for at most that op's walk budget.
func (s *Server) handleConn(conn net.Conn) {
	defer s.dropConn(conn)
	cs := &connState{conn: conn, w: newFrameWriter(conn), readerGone: make(chan struct{})}
	br := bufio.NewReaderSize(conn, 64<<10)

	frames := make(chan *reqScratch) // unbuffered: a send means a worker has it
	var handlers sync.WaitGroup
	workers := 0
	for first := true; ; first = false {
		if s.scfg.ReadTimeout > 0 && !cs.streaming.Load() {
			conn.SetReadDeadline(time.Now().Add(s.scfg.ReadTimeout))
		}
		if first {
			// A peer that opens with '{' speaks the newline-JSON framing this
			// protocol replaced; read as a length it would leave the daemon
			// waiting for 123 bytes. Tell it what happened instead.
			if b, err := br.Peek(1); err == nil && b[0] == '{' {
				cs.w.refuse(CodeBadRequest, "this daemon speaks length-prefixed binary frames, not newline-delimited JSON")
				break
			}
		}
		sc := s.scratch.Get().(*reqScratch)
		var err error
		if sc.frame, err = readFrame(br, sc.frame); err != nil {
			s.release(sc)
			if errors.Is(err, errFrameTooLarge) || errors.Is(err, errEmptyFrame) {
				cs.w.refuse(CodeBadRequest, "malformed frame: "+err.Error())
			}
			break
		}
		sc.decErr = decodeRequest(sc.frame, &sc.req)
		if br.Buffered() == 0 && s.inline(sc) {
			s.handleFrame(sc, cs)
			s.release(sc)
			continue
		}
		select {
		case frames <- sc: // an idle worker took it
		default:
			if workers < connInflight {
				workers++
				handlers.Add(1)
				go func() {
					defer handlers.Done()
					for sc := range frames {
						s.handleFrame(sc, cs)
						s.release(sc)
					}
				}()
			}
			frames <- sc
		}
	}
	close(cs.readerGone) // cancels any replicate stream on this connection
	close(frames)
	handlers.Wait()
}

// inline reports whether the read loop may serve a decoded request
// itself: a read-only single-item op whose cost the walk budget bounds —
// ping, query, match, get — addressed to a namespace that already exists.
// Everything else can take longer than a frame queued behind it should
// wait: a write may wait on a WAL write or fsync, a batch op runs many
// items, building a link reads the store, and a search is unbounded
// on an exact-mode engine or with the budget lifted.
func (s *Server) inline(sc *reqScratch) bool {
	if sc.decErr != nil {
		return false
	}
	switch sc.req.Op {
	case OpPing:
		return true
	case OpQuery, OpMatch:
		if !s.boundedSearch {
			return false
		}
	case OpGet:
	default:
		return false
	}
	if sc.req.Link == "" {
		return true
	}
	s.linkMu.Lock()
	_, ok := s.links[sc.req.Link]
	s.linkMu.Unlock()
	return ok
}

// handleFrame serves one decoded request frame and writes the response
// (or, for the streaming replicate op, every frame of the stream). Frames
// the server cannot parse — and requests carrying the
// reserved id 0 — get a connection-level error frame: the response cannot
// be attributed to a request id, and a pipelining client must treat an
// id-0 frame as fatal (a stray one would otherwise poison response
// demultiplexing), so the connection is closed after it. An unknown
// opcode is different: the frame boundary held and the id was read, so
// the request is answered and the connection lives.
//
//sfc:hotpath
func (s *Server) handleFrame(sc *reqScratch, cs *connState) {
	req, resp := &sc.req, &sc.resp
	switch err := sc.decErr; {
	case err == errUnknownOp:
		*resp = unknownOp(req.Op)
	case err != nil:
		cs.w.refuse(CodeBadRequest, "malformed request: "+err.Error())
		return
	case req.Op == OpReplicate:
		// The one streaming op: many response frames per request, open
		// until the stream ends. It occupies this worker slot for the
		// connection's lifetime and is not per-op latency metered (a
		// stream's duration is not a latency).
		s.serveReplicate(req.ID, req.Pos, cs)
		return
	default:
		var t0 time.Time
		if s.obs != nil {
			//sfc:allowclock one clock pair per request is the op histogram's contract: it times every daemon op exactly
			t0 = time.Now()
		}
		*resp = s.serve(sc)
		if s.obs != nil {
			//sfc:allowclock pairs with the t0 read above; the histogram itself is pre-resolved, not fetched
			s.opLat.observe(req.Op, time.Since(t0))
		}
	}
	resp.Op = req.Op
	sc.out = appendResponse(sc.out[:0], resp)
	if len(sc.out) >= MaxFrameBytes {
		*resp = Response{Op: req.Op, OK: false, Code: CodeOpFailed, Error: fmt.Sprintf("response is %d bytes, frame cap is %d: split the batch", len(sc.out), MaxFrameBytes)}
		sc.out = appendResponse(sc.out[:0], resp)
	}
	cs.send(req.ID, sc.out)
}

// buildLink constructs one named link namespace from the engine's
// detector template, durably wrapped when the server runs with a store.
func (s *Server) buildLink(link string) (core.Provider, error) {
	p, err := core.New(s.eng.Config().Detector)
	if err != nil {
		return nil, err
	}
	if s.store == nil {
		return p, nil
	}
	d, err := s.store.Durable(link, p)
	if err != nil {
		p.Close()
		return nil, err
	}
	return d, nil
}

// provider resolves the namespace a request addresses: the shared engine
// for the empty link, a lazily created detector — cloned from the
// engine's template configuration — for any other.
func (s *Server) provider(link string) (core.Provider, error) {
	if link == "" {
		return s.shared, nil
	}
	s.linkMu.Lock()
	defer s.linkMu.Unlock()
	if p, ok := s.links[link]; ok {
		return p, nil
	}
	p, err := s.buildLink(link)
	if err != nil {
		return nil, fmt.Errorf("building link %q: %w", link, err)
	}
	s.links[link] = p
	return p, nil
}

// unlink tears a link namespace down; unknown links succeed (idempotent).
// On a persistent server unlink releases only the in-memory index: the
// namespace's durable state survives and the link rematerializes from it
// — subscriptions included — on its next use, which is what lets clients
// release runtime resources without forfeiting durability.
func (s *Server) unlink(link string) Response {
	if link == "" {
		return Response{OK: false, Code: CodeBadRequest, Error: "cannot unlink the shared engine"}
	}
	s.linkMu.Lock()
	p, ok := s.links[link]
	delete(s.links, link)
	s.linkMu.Unlock()
	if ok {
		p.Close()
	}
	return Response{OK: true}
}

// serve dispatches the request decoded in sc and returns the answer (the
// caller stamps the opcode and sends it under the request's id; sc.resp
// still holds the previous response, whose Results capacity the batch ops
// reuse). The ops a router issues per
// subscription — subscribe, insert, unsubscribe, query, match, get and
// their batch forms — run against sc's pooled buffers; the
// introspection ops allocate freely.
//
//sfc:hotpath
func (s *Server) serve(sc *reqScratch) Response {
	req := &sc.req
	if !s.primary.Load() {
		// A follower's engine is cold: its state lives only in the store
		// mirror until promotion hydrates it. Refuse everything that
		// would touch (or lazily build) a provider; what remains is
		// liveness (ping, hello), the promotion trigger, the shared
		// metrics page and — for chained followers — the stream itself,
		// which reads the store, not the engine.
		switch req.Op {
		case OpPing, OpHello, OpPromote:
		case OpMetrics:
			if req.Link != "" {
				return Response{OK: false, Code: CodeNotPrimary, Error: "daemon is a follower; link metrics are served by the primary"}
			}
			return Response{OK: true, Body: []byte(s.MetricsText())}
		default:
			return Response{OK: false, Code: CodeNotPrimary, Error: "daemon is a follower; promote it or address the primary"}
		}
	}
	switch req.Op {
	case OpPing:
		return Response{OK: true}
	case OpHello:
		return Response{
			OK:        true,
			Bits:      s.schema.Bits(),
			Attrs:     s.schema.Attrs(),
			Shards:    s.eng.NumShards(),
			Partition: string(s.eng.PartitionStrategy()),
			Mode:      s.eng.Mode().String(),
			Role:      s.Role(),
		}
	case OpPromote:
		if s.store == nil {
			return Response{OK: false, Code: CodeUnsupported, Error: "daemon runs without a data dir"}
		}
		if err := s.Promote(); err != nil {
			return errResponse(err)
		}
		return Response{OK: true, Role: s.Role()}
	case OpUnlink:
		return s.unlink(req.Link)
	case OpTrace:
		return s.trace(sc)
	case OpSlowlog:
		return s.slowlog(req.Link)
	}
	prov, err := s.provider(req.Link)
	if err != nil {
		return errResponse(err)
	}
	switch req.Op {
	case OpSubscribe, OpInsert:
		// The provider keeps the subscription: it cannot be the scratch one.
		sub, err := subscription.UnmarshalSubscription(s.schema, req.Payload)
		if err != nil {
			return badRequest(err)
		}
		var res Result
		if req.Op == OpSubscribe {
			res.SID, res.Covered, res.CoveredBy, err = prov.Add(sub)
		} else {
			res.SID, err = prov.Insert(sub)
		}
		if err != nil {
			return errResponse(err)
		}
		return Response{OK: true, Result: res}
	case OpSubscribeBatch:
		results := sc.resp.Results[:0]
		subs, errs := s.decodeSubs(req.Payloads, nil)
		return Response{OK: true, Results: fillResults(results, errs, prov.AddBatch(subs),
			func(r core.AddResult) (Result, error) {
				return Result{SID: r.ID, Covered: r.Covered, CoveredBy: r.CoveredBy}, r.Err
			})}
	case OpUnsubscribe:
		if err := prov.Remove(req.SID); err != nil {
			return errResponse(err)
		}
		return Response{OK: true, Result: Result{SID: req.SID}}
	case OpUnsubscribeBatch:
		results := sc.resp.Results[:0]
		for i, err := range prov.RemoveBatch(req.SIDs) {
			results = append(results, Result{SID: req.SIDs[i]})
			if err != nil {
				results[i].Error = err.Error()
			}
		}
		return Response{OK: true, Results: results}
	case OpQuery, OpMatch:
		// Searches do not retain the subscription: decode into the scratch.
		if req.Op == OpMatch {
			err = subscription.UnmarshalPointInto(sc.sub, req.Payload)
		} else {
			err = subscription.UnmarshalSubscriptionInto(sc.sub, req.Payload)
		}
		if err != nil {
			return badRequest(err)
		}
		var res Result
		res.CoveredBy, res.Covered, _, err = prov.FindCover(sc.sub)
		if err != nil {
			return errResponse(err)
		}
		return Response{OK: true, Result: res}
	case OpQueryBatch:
		results := sc.resp.Results[:0]
		subs, errs := s.decodeSubs(req.Payloads, &sc.subs)
		return Response{OK: true, Results: fillResults(results, errs, prov.CoverQueryBatch(subs),
			func(r core.QueryResult) (Result, error) {
				return Result{Covered: r.Covered, CoveredBy: r.CoveredBy}, r.Err
			})}
	case OpGet:
		sub, ok := prov.Subscription(req.SID)
		if !ok {
			return Response{OK: false, Code: CodeOpFailed, Error: fmt.Sprintf("no subscription with id %d", req.SID)}
		}
		if sc.payload, err = sub.AppendBinary(sc.payload[:0]); err != nil {
			return errResponse(err)
		}
		return Response{OK: true, Result: Result{SID: req.SID, Payload: sc.payload}}
	case OpStats:
		ps := prov.Stats()
		return bodyResponse(Stats{
			Queries:         ps.Queries,
			Hits:            ps.Hits,
			RunsProbed:      ps.RunsProbed,
			CubesGenerated:  ps.CubesGenerated,
			PathQueries:     ps.PathQueries,
			ShardSearches:   ps.ShardSearches,
			Subscriptions:   ps.Subscriptions,
			ShardSizes:      ps.ShardSizes,
			MaxShardSize:    ps.MaxShardSize,
			MinShardSize:    ps.MinShardSize,
			SkewRatio:       ps.SkewRatio,
			Rebalances:      ps.Rebalances,
			BoundaryMoves:   ps.BoundaryMoves,
			MigratedEntries: ps.MigratedEntries,
			Snapshots:       ps.Snapshots,
			WALRecords:      ps.WALRecords,
			WALBytes:        ps.WALBytes,
			SnapshotHoldNs:  ps.SnapshotHold.Nanoseconds(),
			SnapshotNs:      ps.SnapshotTime.Nanoseconds(),
		})
	case OpSnapshot:
		if err := prov.Snapshot(); err != nil {
			return errResponse(err)
		}
		return Response{OK: true}
	case OpMetrics:
		if req.Link == "" {
			// The shared namespace gets the full daemon page: scalar
			// counters plus latency histograms and per-link gauges.
			return Response{OK: true, Body: []byte(s.MetricsText())}
		}
		return Response{OK: true, Body: []byte(RenderPrometheus(prov.Stats()))}
	}
	return unknownOp(req.Op) // unreachable: decodeRequest vets the opcode
}

// fillResults lays a batch's outcomes into results, aligned with the
// request payloads: a decode failure occupies its own slot, everything
// else takes the next provider outcome (the provider saw the batch dense).
func fillResults[T any](results []Result, errs []error, outcomes []T, conv func(T) (Result, error)) []Result {
	j := 0
	for _, derr := range errs {
		if derr != nil {
			results = append(results, Result{Error: derr.Error()})
			continue
		}
		res, err := conv(outcomes[j])
		j++
		if err != nil {
			res = Result{Error: err.Error()}
		}
		results = append(results, res)
	}
	return results
}

func unknownOp(op Opcode) Response {
	return Response{OK: false, Code: CodeUnknownOp, Error: fmt.Sprintf("unknown opcode %d", op)}
}

// errResponse refuses with op_failed, or with unsupported when the
// provider said it cannot serve the op at all (snapshot without a data
// dir).
func errResponse(err error) Response {
	code := CodeOpFailed
	if errors.Is(err, core.ErrUnsupported) {
		code = CodeUnsupported
	}
	return Response{OK: false, Code: code, Error: err.Error()}
}

func badRequest(err error) Response {
	return Response{OK: false, Code: CodeBadRequest, Error: err.Error()}
}

// decodeSubs decodes a batch against the server schema. subs holds the
// successfully decoded subscriptions, dense, in request order; errs aligns
// with payloads and marks the failures. With a nil pool every
// subscription is freshly allocated (the provider will keep them);
// otherwise the pool's subscriptions are the decode targets, grown to the
// batch size and kept for the next request — the non-retaining query path.
func (s *Server) decodeSubs(payloads [][]byte, pool *[]*subscription.Subscription) (subs []*subscription.Subscription, errs []error) {
	subs = make([]*subscription.Subscription, 0, len(payloads))
	errs = make([]error, len(payloads))
	for i, p := range payloads {
		var sub *subscription.Subscription
		if pool == nil {
			sub, errs[i] = subscription.UnmarshalSubscription(s.schema, p)
		} else {
			if i == len(*pool) {
				*pool = append(*pool, subscription.New(s.schema))
			}
			sub = (*pool)[i]
			errs[i] = subscription.UnmarshalSubscriptionInto(sub, p)
		}
		if errs[i] == nil {
			subs = append(subs, sub)
		}
	}
	return subs, errs
}
