// Package sfcd turns the sharded detection engine into a network service:
// a length-prefixed binary frame protocol over TCP, carrying subscriptions
// and events as raw bytes of their binary wire format, plus a pipelined
// client and a core.Provider implementation over it. One daemon serves
// many routers; batch operations map directly onto the engine's
// AddBatch/RemoveBatch/CoverQueryBatch so a single request frame can
// amortize the round trip over hundreds of covering queries, and the
// pipelined client overlaps independent requests on one connection so
// that N concurrent callers never serialize on the wire.
//
// Protocol: each request is one frame carrying a client-chosen id; the
// server answers each request with one response frame echoing that id
// (and the request's opcode, which selects the response layout).
// Responses may arrive OUT OF ORDER — the server hands a connection's
// requests to concurrent handlers, and answers a cheap read that has
// nothing queued behind it on the connection's read loop — so clients
// demultiplex by id. A response with
// id 0 that no request asked for is a connection-level error frame (the
// connection limit was hit, a frame could not be parsed); the connection
// is closed after it. frame.go is the one codec: every byte on the wire
// is written and read there, by hand — no reflection on any path.
//
// Frame layout (uvarint = encoding/binary unsigned varint; bytes and
// str = uvarint length, then that many raw bytes):
//
//	frame    := uvarint(len(body)) body          1 <= len <= MaxFrameBytes
//	request  := uvarint(id) opcode str(link) fields
//	response := uvarint(id) opcode status [str(error) | fields]
//
//	opcode                        request fields         response fields (status 0)
//	ping, unlink, snapshot        -                      -
//	hello                         -                      uvarint(bits) uvarint(shards) str(partition)
//	                                                     str(mode) str(role) uvarint(n) n*str(attr)
//	promote                       -                      str(role)
//	subscribe, insert, query,     bytes(payload)         result
//	  match
//	unsubscribe, get              uvarint(sid)           result
//	subscribe_batch, query_batch  uvarint(n) n*bytes     uvarint(n) n*result
//	unsubscribe_batch             uvarint(n) n*uvarint   uvarint(n) n*result
//	stats, slowlog                -                      bytes(JSON body)
//	metrics                       -                      bytes(Prometheus text)
//	trace                         bytes(payload)         result bytes(JSON body)
//	replicate                     uvarint(pos)           flags uvarint(base) uvarint(pos) bytes(recs)
//
//	result := flags [uvarint(sid)] [uvarint(coveredBy)] [bytes(payload)] [str(error)]
//	          flags: 1 covered, 2 sid, 4 coveredBy, 8 payload, 16 error
//	status := 0 ok | 1 bad_request | 2 unknown_op | 3 conn_limit
//	          | 4 op_failed | 5 unsupported | 6 not_primary
//	replicate flags: 1 reset, 2 more
//
// A covering query for a two-attribute subscription is ~17 request bytes
// and ~6 response bytes. The cold introspection bodies (Stats, Trace)
// stay JSON inside one opaque bytes field: they are operator-facing,
// change shape often, and sit on no request path that matters.
//
// Hostile input is refused before it can drive an allocation: a declared
// frame length of 0 or above MaxFrameBytes, an id of 0, a field running
// past the frame, a batch count larger than the bytes that follow and
// trailing bytes all earn one connection-level bad_request frame and a
// close; an opcode the server does not know — opcodes 10 and 15 among
// them, once "covered" and "rebalance", retired and never reassigned —
// earns a per-request unknown_op (the frame boundary is intact, so the
// connection lives). A connection whose very first byte is '{' is a
// newline-JSON client from before this framing: it gets the same
// bad_request frame instead of a daemon waiting for 123 bytes that never
// come — which is why a connection's first frame (the client sends hello,
// 3 bytes) must not be exactly 123 bytes long.
//
// "replicate" opens the replication stream: the caller (a follower
// daemon) sends its applied stream position and the server answers with
// an unbounded sequence of response frames — each carrying one RepFrame —
// until the stream ends with an error response. It is the one streaming
// op in an otherwise request/response protocol; see RepFrame for the
// catch-up/reset semantics. "promote" flips a read-only follower to
// primary once it has drained its stream (idempotent on a primary).
// Daemons running without a data dir answer both with code
// "unsupported"; a follower answers every state-touching op with code
// "not_primary" until promoted.
//
// "trace" runs one covering query with tracing forced on and returns the
// full trace record: per-stage timings (decomposition, probe loop, shard
// fan-out), per-slice probe counts and the query's cost stats. "slowlog"
// returns the daemon's ring of recent slow-query traces. Both address
// the shared engine only; link namespaces answer with code
// "unsupported".
//
// "snapshot" forces a point-in-time snapshot of the daemon's durable
// subscription state (all link namespaces — the write-ahead log is
// shared) and compacts the log behind it. Daemons running without a data
// dir answer with code "unsupported".
//
// "insert" stores a subscription without the pre-insert covering query
// (the Provider.Insert path); "get" resolves a sid back to its stored
// subscription payload. "metrics" renders the stats counters in the
// Prometheus text exposition format.
//
// "match" answers event delivery: an event e is a degenerate subscription
// constraining every attribute to exactly its value, so "does any stored
// subscription match e" is precisely "is that point-subscription covered",
// and the engine's covering machinery answers it with the usual guarantee
// (a reported match is genuine; approximate mode may miss).
//
// Link namespaces: every operation may carry a "link" field naming an
// isolated subscription namespace on the daemon. The empty link is the
// shared engine; any other link lazily materializes its own index built
// from the engine's detector template, and "unlink" tears it down. This
// is what lets one shared daemon back every broker link of an overlay:
// each link's forwarded set stays independent while all of them share one
// process, one connection and one schema.
package sfcd

import "sfccover/internal/dominance"

// Opcode selects a wire operation; it is the one byte after the id in
// every request and response frame.
type Opcode uint8

// The protocol's operations. OpNone appears only in connection-level
// (id 0) response frames, which answer no request.
const (
	OpNone Opcode = iota
	OpPing
	OpHello
	OpSubscribe
	OpInsert
	OpSubscribeBatch
	OpUnsubscribe
	OpUnsubscribeBatch
	OpQuery
	OpQueryBatch
	// opRetiredCovered was "covered", the reverse covering query, until
	// no caller asked it.
	opRetiredCovered
	OpGet
	OpMatch
	OpStats
	OpMetrics
	// opRetiredRebalance was "rebalance" until the engine took to
	// rebalancing itself.
	opRetiredRebalance
	OpSnapshot
	OpUnlink
	OpTrace
	OpSlowlog
	OpReplicate
	OpPromote
	numOps
)

var opNames = [numOps]string{
	OpNone: "none", OpPing: "ping", OpHello: "hello",
	OpSubscribe: "subscribe", OpInsert: "insert", OpSubscribeBatch: "subscribe_batch",
	OpUnsubscribe: "unsubscribe", OpUnsubscribeBatch: "unsubscribe_batch",
	OpQuery: "query", OpQueryBatch: "query_batch",
	OpGet: "get", OpMatch: "match", OpStats: "stats", OpMetrics: "metrics",
	OpSnapshot: "snapshot", OpUnlink: "unlink",
	OpTrace: "trace", OpSlowlog: "slowlog", OpReplicate: "replicate", OpPromote: "promote",
}

// String returns the operation's protocol name.
func (op Opcode) String() string {
	if op < numOps {
		return opNames[op]
	}
	return "unknown"
}

// retired reports whether op is a number the protocol no longer assigns —
// one with no name. A retired number stays unassigned: a request on it is
// refused as unknown_op and no op histogram is registered for it, so a
// peer built before the retirement cannot have its request read as some
// other op.
func (op Opcode) retired() bool { return op < numOps && opNames[op] == "" }

// Request is one decoded request frame.
type Request struct {
	// ID is echoed in the response; clients pipeline many requests and
	// demultiplex responses by it. IDs must be unique among a connection's
	// in-flight requests and must be non-zero (0 is reserved for
	// connection-level error frames).
	ID uint64
	// Op selects the operation.
	Op Opcode
	// Link selects the subscription namespace; empty is the shared engine.
	Link string
	// Payload carries one binary subscription (subscribe, insert, query,
	// trace) or event (match).
	Payload []byte
	// Payloads carries a batch of binary subscriptions.
	Payloads [][]byte
	// SID identifies a subscription to unsubscribe or get.
	SID uint64
	// SIDs identifies a batch of subscriptions to unsubscribe.
	SIDs []uint64
	// Pos is the replicate op's resume point: the follower's applied
	// stream position (0 = from the beginning).
	Pos uint64
}

// Result is one per-item outcome: the whole answer of a single-item op,
// one slot of a batch response.
type Result struct {
	// SID is the id assigned by subscribe/insert operations (echoed by
	// unsubscribe and get).
	SID uint64
	// Covered reports whether a cover (or match) was found; CoveredBy is
	// the id of the covering subscription.
	Covered   bool
	CoveredBy uint64
	// Payload is the binary subscription returned by get.
	Payload []byte
	// Error is the per-item failure, empty on success.
	Error string
}

// Stats is the counter snapshot returned by the stats operation: the
// provider's logical totals plus occupancy, per link namespace.
type Stats struct {
	Queries        int `json:"queries"`
	Hits           int `json:"hits"`
	RunsProbed     int `json:"runsProbed"`
	CubesGenerated int `json:"cubesGenerated"`
	ShardSearches  int `json:"shardSearches"`
	// PathQueries counts the queries by the cut that ended the search,
	// indexed by dominance.Path: none, walk, cubes.
	PathQueries [dominance.NumPaths]int `json:"pathQueries"`
	// Subscriptions is the number of currently held subscriptions.
	Subscriptions int `json:"subscriptions"`
	// ShardSizes is the per-shard subscription count.
	ShardSizes []int `json:"shardSizes"`
	// MaxShardSize/MinShardSize/SkewRatio summarize slice-occupancy
	// balance; SkewRatio is max/min with the denominator clamped to 1.
	MaxShardSize int     `json:"maxShardSize"`
	MinShardSize int     `json:"minShardSize"`
	SkewRatio    float64 `json:"skewRatio"`
	// Rebalances/BoundaryMoves/MigratedEntries count what the engine's
	// rebalancer has done so far (always zero on providers with no slices
	// to move).
	Rebalances      int `json:"rebalances,omitempty"`
	BoundaryMoves   int `json:"boundaryMoves,omitempty"`
	MigratedEntries int `json:"migratedEntries,omitempty"`
	// Snapshots/WALRecords/WALBytes describe the durability layer: store-
	// wide snapshot count and lifetime log appends (always zero on daemons
	// running without a data dir).
	Snapshots  int   `json:"snapshots,omitempty"`
	WALRecords int   `json:"walRecords,omitempty"`
	WALBytes   int64 `json:"walBytes,omitempty"`
	// SnapshotHoldNs and SnapshotNs are the last snapshot's cut hold and
	// whole length, in nanoseconds.
	SnapshotHoldNs int64 `json:"snapshotHoldNs,omitempty"`
	SnapshotNs     int64 `json:"snapshotNs,omitempty"`
}

// Error codes carried by error frames (Response.Code). The code
// classifies the failure mechanically so clients can react without
// parsing the human-readable Error text.
const (
	// CodeBadRequest marks a request the server could not parse or decode.
	// A frame that cannot be parsed at all arrives connection-level (id 0);
	// a well-framed request with an undecodable payload keeps its id.
	CodeBadRequest = "bad_request"
	// CodeUnknownOp marks an unrecognized operation.
	CodeUnknownOp = "unknown_op"
	// CodeConnLimit marks a connection refused by the -max-conns limit;
	// it arrives in a connection-level frame (id 0) and the connection is
	// closed after it.
	CodeConnLimit = "conn_limit"
	// CodeOpFailed marks an operation the provider rejected (unknown sid,
	// schema trouble, mode restrictions).
	CodeOpFailed = "op_failed"
	// CodeUnsupported marks an operation the addressed provider refuses
	// with core.ErrUnsupported (snapshot without a data dir).
	CodeUnsupported = "unsupported"
	// CodeNotPrimary marks an operation refused because the daemon is a
	// read-only follower still draining a primary's replication stream;
	// clients should fail over to the (possibly newly promoted) primary.
	CodeNotPrimary = "not_primary"
)

// Role values carried in hello/promote responses (Response.Role).
const (
	RolePrimary  = "primary"
	RoleFollower = "follower"
)

// Response is one decoded response frame.
type Response struct {
	// ID echoes the request id; 0 marks a connection-level error frame.
	ID uint64
	// Op echoes the request's opcode (OpNone on connection-level frames);
	// it says which of the fields below a successful response carries.
	Op Opcode
	// OK reports whether the request succeeded; on failure Error explains
	// and Code classifies.
	OK    bool
	Error string
	Code  string

	// hello fields.
	Bits      int
	Attrs     []string
	Shards    int
	Partition string
	Mode      string
	// Role reports "primary" or "follower" in hello and promote responses.
	Role string

	// Result is the single-operation outcome (subscribe, insert, query,
	// get, match, unsubscribe, trace).
	Result Result
	// Results are the batch outcomes, aligned with the request's
	// payloads/sids.
	Results []Result
	// Body is the opaque payload of the introspection ops: the JSON of a
	// Stats (stats), Trace (trace) or []Trace (slowlog), or the Prometheus text exposition (metrics).
	Body []byte
	// Rep is one replication stream frame (replicate op only). The op is
	// the protocol's single streaming exception: one request produces
	// many response frames, all echoing the request id, until an error
	// response ends the stream.
	Rep RepFrame
}

// RepFrame is one hop of a replication stream.
//
// When Reset is false, Recs carries WAL records in the segment wire
// encoding (self-delimiting, CRC-protected), raw: a run of the primary's
// log bytes, cut at record boundaries, at stream positions Base+1..Pos,
// which the follower checks and appends to its own log as they are
// (idempotent; an overlap with already-applied history deduplicates by
// position). When Reset is true, Recs is a byte chunk of the primary's
// snapshot image at position Pos — the follower was too far behind the
// primary's in-memory ring (or ahead of it entirely, after a divergent
// history) — More set on all but the last chunk; the follower
// accumulates the chunks and installs the image as its snapshot once
// More is clear.
type RepFrame struct {
	Reset bool
	More  bool
	Base  uint64
	Pos   uint64
	Recs  []byte
}

// TraceStage is one timed step of a traced query.
type TraceStage struct {
	// Name identifies the step ("walk", and on a budget overrun
	// "truncate" and "enumerate_probes").
	Name string `json:"name"`
	// DurNS is the stage's wall time in nanoseconds.
	DurNS int64 `json:"durNs"`
	// Count is the stage's unit count where one exists (cubes generated,
	// probes issued, shards searched).
	Count int `json:"count,omitempty"`
}

// TraceCost is the wire mirror of the query's cost stats (the engine's
// QueryStats): which cut ended the search ("walk" or "cubes"),
// the ordered-structure descents it took and the paper's cost model for
// the cube search.
type TraceCost struct {
	Path           string  `json:"path"`
	M              int     `json:"m,omitempty"`
	CubesGenerated int     `json:"cubesGenerated"`
	RunsProbed     int     `json:"runsProbed"`
	WalkSteps      int     `json:"walkSteps,omitempty"`
	VolumeFraction float64 `json:"volumeFraction"`
	AspectRatio    int     `json:"aspectRatio"`
	Found          bool    `json:"found"`
}

// Trace is one query's full trace record, returned by the trace op and
// (in batches) by slowlog.
type Trace struct {
	// Op is the logical operation traced ("query").
	Op string `json:"op"`
	// StartUnixNS is when the engine began the query (Unix nanoseconds).
	StartUnixNS int64 `json:"startUnixNs"`
	// TotalNS is the end-to-end engine latency in nanoseconds.
	TotalNS int64 `json:"totalNs"`
	// Stages are the timed steps in execution order.
	Stages []TraceStage `json:"stages,omitempty"`
	// Slices counts run probes per key slice (index = slice number).
	Slices []int `json:"slices,omitempty"`
	// Cost is the query's cost-stats snapshot.
	Cost TraceCost `json:"cost"`
}

// MaxFrameBytes bounds one frame body (a batch of several hundred
// thousand subscriptions); a longer declared length terminates the
// connection before a byte of it is buffered.
const MaxFrameBytes = 8 << 20
