// Package sfccover is a Go implementation of approximate covering detection
// among content-based subscriptions using space filling curves, after
// Shen & Tirthapura (ICDCS 2007 / JPDC 2012).
//
// In a content-based publish/subscribe system, a subscription s1 covers s2
// when every event matching s2 also matches s1; routers that detect covers
// can suppress the propagation of covered subscriptions and shrink their
// routing tables. Exact covering detection is a high-dimensional point
// dominance problem with no worst-case-efficient solution, so this library
// implements the paper's ε-approximate detection: a space-filling-curve
// index searches at least a (1−ε) fraction of the covering region's volume
// at a cost that is independent of the region's size (Theorem 3.1) instead
// of growing with its (d−1)-th power (Theorem 4.1). Missed covers cost a
// little redundant traffic; claimed covers are always genuine, so routing
// stays correct.
//
// The entry points:
//
//   - Provider: the covering-detection interface implemented by Detector
//     and Engine alike — one protocol, many backing indexes.
//   - Detector: covering detection over a dynamic subscription set
//     (off / exact / ε-approximate; SFC or linear-scan backends).
//   - Engine: a sharded, concurrent detection engine that partitions the
//     space-filling curve's key space into N slices — one decomposition
//     per query, each cube probing only the slices it intersects — and
//     fans batched operations out in parallel.
//   - DaemonServer / DaemonClient / DaemonProvider: the sfcd network
//     protocol (length-prefixed binary frames over TCP, wire payloads)
//     that turns an Engine into a standalone service. The client is
//     pipelined and context-aware — concurrent callers share one
//     connection, and none waits for another's round trip — and DaemonProvider
//     serves the whole Provider interface over it, with isolated link
//     namespaces so one daemon can back many routers.
//   - Network: a deterministic simulation of a broker overlay that uses
//     covering detection during subscription propagation — per-link
//     providers selected by NetworkConfig.Backend (in-process detectors
//     and engines, or namespaces on a shared daemon), with the paper's
//     covered-set resubscription protocol at unsubscription time.
//   - Schema / Subscription / Event: the multi-attribute data model, with
//     a constraint parser and a float quantizer.
//   - PersistStore / DurableProvider: durable subscription state — a
//     write-ahead log riding the binary wire encoding plus point-in-time
//     snapshots with compaction. Any Provider becomes durable by
//     wrapping; the daemon recovers engine and link namespaces at boot
//     (cmd/sfcd -data-dir), and broker overlays persist their link state
//     through NetworkConfig.DataDir.
//   - Observer / QueryTrace / LatencySnapshot: the observability layer —
//     lock-free latency histograms at every tier (engine operations,
//     shard searches, daemon ops, client round-trips, broker delivery),
//     per-query traces with stage timings feeding a slow-query log, and
//     Prometheus text exposition from the daemon's -metrics-addr.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduction of the paper's analytical results.
package sfccover

import (
	"context"

	"sfccover/internal/broker"
	"sfccover/internal/core"
	"sfccover/internal/dominance"
	"sfccover/internal/engine"
	"sfccover/internal/obs"
	"sfccover/internal/persist"
	"sfccover/internal/sfcd"
	"sfccover/internal/subscription"
)

// Schema declares the numeric attributes of a pub/sub domain; every
// attribute shares a k-bit discrete value domain.
type Schema = subscription.Schema

// Subscription is a conjunction of per-attribute range constraints.
type Subscription = subscription.Subscription

// Event is a message: one value per schema attribute.
type Event = subscription.Event

// Range is an inclusive interval of attribute values.
type Range = subscription.Range

// Quantizer maps a continuous attribute domain onto the discrete grid.
type Quantizer = subscription.Quantizer

// Provider is the covering-detection abstraction implemented by
// Detector, Engine, DurableProvider and DaemonProvider: Add/Insert/Remove
// and their batch forms, the covering query (FindCover), Snapshot,
// Enumerate, Restore and a uniform Stats snapshot. An implementation that
// cannot serve an operation refuses it with ErrUnsupported. Brokers and
// services program against it so the backing index is a configuration
// knob.
type Provider = core.Provider

// ProviderStats is the uniform counter-and-occupancy snapshot every
// Provider serves, including the max/min shard-occupancy skew ratio.
type ProviderStats = core.ProviderStats

// Detector detects covering relationships among subscriptions.
type Detector = core.Detector

// DetectorConfig parameterizes a Detector.
type DetectorConfig = core.Config

// Mode selects the covering-detection mode.
type Mode = core.Mode

// Detection modes.
const (
	// ModeOff disables detection (flooding baseline).
	ModeOff = core.ModeOff
	// ModeExact searches exhaustively.
	ModeExact = core.ModeExact
	// ModeApprox runs the paper's ε-approximate search.
	ModeApprox = core.ModeApprox
)

// Strategy selects the search backend.
type Strategy = core.Strategy

// Search strategies.
const (
	// StrategySFC is the paper's space-filling-curve index.
	StrategySFC = core.StrategySFC
	// StrategyLinear scans all subscriptions.
	StrategyLinear = core.StrategyLinear
)

// QueryStats describes the work one covering query performed, in the cost
// units of the paper's analysis (runs probed, cubes generated, volume
// fraction searched).
type QueryStats = dominance.Stats

// DetectorTotals aggregates query counters over a detector's lifetime.
type DetectorTotals = core.Totals

// Engine is a sharded, concurrent covering-detection engine: one SFC
// index split into N independently locked key slices, with a
// co-partitioned subscription store, behind batched Add/Remove/Query
// operations that fan out over goroutines each call starts. A reported
// cover is always genuine, exactly as for a single Detector.
type Engine = engine.Engine

// EngineConfig parameterizes an Engine: the detector template plus shard
// count.
type EngineConfig = engine.Config

// EnginePartition names how subscriptions are assigned to shards; there
// is one value.
type EnginePartition = engine.Partition

// PartitionPrefix splits the space-filling curve's key space into
// contiguous key ranges, keeping curve-adjacent subscriptions — the likely
// covers — in the same shard; the engine places the range boundaries from
// the keys it holds. It is the engine's only partitioning and what an
// empty EngineConfig.Partition means.
const PartitionPrefix = engine.PartitionPrefix

// EngineTotals aggregates engine-level counters (logical queries, hits,
// probe costs and per-shard searches).
type EngineTotals = engine.Totals

// EngineAddResult is one AddBatch outcome.
type EngineAddResult = engine.AddResult

// EngineQueryResult is one CoverQueryBatch outcome.
type EngineQueryResult = engine.QueryResult

// DaemonServer serves the sfcd protocol (length-prefixed binary frames over
// TCP, subscriptions and events in the binary wire format) on top of an
// Engine. Besides the shared engine it multiplexes isolated per-link
// subscription namespaces, so one daemon can back every link of a broker
// overlay.
type DaemonServer = sfcd.Server

// DaemonServerConfig carries the daemon's hardening knobs: a connection
// limit and a per-request read timeout.
type DaemonServerConfig = sfcd.ServerConfig

// DaemonClient is a pipelined sfcd protocol client: any number of
// goroutines share one TCP connection, every operation takes a
// context.Context, and responses are demultiplexed by request id.
type DaemonClient = sfcd.Client

// DaemonDialConfig parameterizes DialDaemonContext (address, schema,
// dial and per-request timeouts).
type DaemonDialConfig = sfcd.DialConfig

// DaemonProvider is a Provider over one link namespace of a dialed
// daemon — the full covering-detection interface served remotely, so
// anything that speaks Provider can run against a shared daemon.
type DaemonProvider = sfcd.RemoteProvider

// DaemonResult is one per-item outcome in a daemon batch response.
type DaemonResult = sfcd.Result

// DaemonStats is the counter snapshot served by the daemon's stats op.
type DaemonStats = sfcd.Stats

// DaemonServerError is an error frame a daemon answered a request with.
type DaemonServerError = sfcd.ServerError

// Typed errors of the daemon client surface, for errors.Is branching.
var (
	// ErrDaemonSchemaMismatch: the daemon's schema differs from the
	// client's (returned by DialDaemon).
	ErrDaemonSchemaMismatch = sfcd.ErrSchemaMismatch
	// ErrDaemonConnectionLost: the connection failed; dial a fresh client.
	ErrDaemonConnectionLost = sfcd.ErrConnectionLost
	// ErrDaemonClientClosed: the operation ran after Close.
	ErrDaemonClientClosed = sfcd.ErrClientClosed
	// ErrDaemonNotPrimary: a failover client's dial found a daemon still
	// serving as a read-only follower (state ops on a directly dialed
	// follower fail per op with a typed not_primary error frame instead).
	ErrDaemonNotPrimary = sfcd.ErrNotPrimary
)

// Observer is the telemetry hub an Engine records into: an op-latency
// histogram registry plus sampled per-query traces feeding a bounded
// slow-query log. Hand one to EngineConfig.Obs (the engine builds its own
// when the field is nil) and read it back with (*Engine).Observer.
// Every method is nil-safe, so telemetry-off paths cost one branch.
type Observer = obs.Observer

// ObserverConfig parameterizes an Observer: slow-query threshold, slow
// log capacity, trace sampling interval and histogram registry cap.
type ObserverConfig = obs.Config

// Observability defaults.
const (
	// DefaultSlowThreshold: queries slower than this enter the slow log.
	DefaultSlowThreshold = obs.DefaultSlowThreshold
	// DefaultTraceSample: one query in this many carries a trace. Like
	// any ObserverConfig.TraceSample it is a power of two; NewObserver
	// rounds other rates up to one (100 traces one query in 128).
	DefaultTraceSample = obs.DefaultTraceSample
	// DefaultSlowLogSize: slow-log ring capacity.
	DefaultSlowLogSize = obs.DefaultSlowLogSize
)

// NewObserver builds a telemetry hub; zero-valued config fields take the
// defaults above.
func NewObserver(cfg ObserverConfig) *Observer { return obs.New(cfg) }

// QueryTrace is one traced covering query: wall-clock stage timings
// through the cost pipeline, the shard slices searched, and the paper's
// cost counters for the winning probe.
type QueryTrace = obs.QueryTrace

// QueryTraceStage is one named, timed stage of a QueryTrace.
type QueryTraceStage = obs.Stage

// QueryTraceCost is the cost-model summary a QueryTrace carries.
type QueryTraceCost = obs.QueryCost

// LatencySnapshot is a point-in-time copy of one latency histogram:
// log₂-bucketed counts with Mean, Quantile and interval arithmetic (Sub).
type LatencySnapshot = obs.Snapshot

// DaemonTrace is the wire form of a QueryTrace, served by the daemon's
// trace and slowlog ops and by (*DaemonClient).TraceQuery / SlowLog.
type DaemonTrace = sfcd.Trace

// DaemonTraceStage is one named, timed stage of a DaemonTrace.
type DaemonTraceStage = sfcd.TraceStage

// DaemonTraceCost is the cost-model summary a DaemonTrace carries.
type DaemonTraceCost = sfcd.TraceCost

// PersistStore is the durable home of subscription state under one data
// dir: a write-ahead log of add/remove records (binary wire payloads,
// length-prefixed + CRC32, segment-rotated) plus point-in-time snapshots
// with log compaction. One store backs any number of link namespaces.
type PersistStore = persist.Store

// PersistOptions parameterizes a PersistStore (segment rotation size,
// per-append fsync).
type PersistOptions = persist.Options

// DurableProvider wraps any Provider with write-ahead logging and
// recovery for one link namespace of a PersistStore. It mints the ids,
// logs each write before the wrapped provider sees it, and the ids are
// durable: a recovered provider holds, and answers with, the ids the
// pre-crash one minted.
type DurableProvider = persist.DurableProvider

// Typed errors of the provider and persistence layers, for errors.Is
// branching.
var (
	// ErrPersistCorrupt: durable state damaged in a way a crash cannot
	// explain; recovery refuses to guess.
	ErrPersistCorrupt = persist.ErrCorrupt
	// ErrPersistSchemaMismatch: the data dir was written under a
	// different schema.
	ErrPersistSchemaMismatch = persist.ErrSchemaMismatch
	// ErrUnsupported: an operation this Provider cannot serve — Snapshot
	// with no durable store behind it, Enumerate, InsertBatch or Restore
	// on a DaemonProvider.
	ErrUnsupported = core.ErrUnsupported
	// ErrProviderClosed: a batch operation issued after Close.
	ErrProviderClosed = core.ErrProviderClosed
)

// OpenPersistStore recovers (or creates) the durable state under dir.
// Wrap providers with (*PersistStore).Durable to make them log to it.
func OpenPersistStore(dir string, schema *Schema, opts PersistOptions) (*PersistStore, error) {
	return persist.Open(dir, schema, opts)
}

// Network simulates a broker overlay with covering-based subscription
// propagation.
type Network = broker.Network

// NetworkConfig parameterizes a Network's brokers, including the per-link
// provider backend (NetworkBackend*) and its engine knobs.
type NetworkConfig = broker.Config

// NetworkBackend selects the per-link covering provider brokers run.
type NetworkBackend = broker.Backend

// Broker provider backends.
const (
	// NetworkBackendDetector backs each link with a single Detector.
	NetworkBackendDetector = broker.BackendDetector
	// NetworkBackendEnginePrefix backs each link with a sharded engine.
	NetworkBackendEnginePrefix = broker.BackendEnginePrefix
	// NetworkBackendRemote backs every link with an isolated namespace on
	// one shared sfcd daemon (NetworkConfig.DaemonAddr), multiplexed over
	// a single pipelined connection.
	NetworkBackendRemote = broker.BackendRemote
)

// NetworkMetrics aggregates network-wide counters.
type NetworkMetrics = broker.Metrics

// Topology describes the broker overlay tree.
type Topology = broker.Topology

// Client is an endpoint attached to one broker.
type Client = broker.Client

// NewSchema builds a schema with the given per-attribute resolution in
// bits and attribute names.
func NewSchema(bits int, attrs ...string) (*Schema, error) {
	return subscription.NewSchema(bits, attrs...)
}

// MustSchema is NewSchema for known-good literals.
func MustSchema(bits int, attrs ...string) *Schema {
	return subscription.MustSchema(bits, attrs...)
}

// NewSubscription returns a subscription with every attribute
// unconstrained; narrow it with SetRange/SetEq/SetMin/SetMax.
func NewSubscription(schema *Schema) *Subscription { return subscription.New(schema) }

// ParseSubscription builds a subscription from constraint syntax, e.g.
// "stock == 3 && volume > 500 && price in [10,95]".
func ParseSubscription(schema *Schema, expr string) (*Subscription, error) {
	return subscription.Parse(schema, expr)
}

// MustParseSubscription is ParseSubscription for known-good literals.
func MustParseSubscription(schema *Schema, expr string) *Subscription {
	return subscription.MustParse(schema, expr)
}

// NewEvent builds an event from attribute name/value pairs.
func NewEvent(schema *Schema, values map[string]uint32) (Event, error) {
	return subscription.NewEvent(schema, values)
}

// ParseEvent builds an event from "attr = value, attr = value" syntax.
func ParseEvent(schema *Schema, expr string) (Event, error) {
	return subscription.ParseEvent(schema, expr)
}

// NewQuantizer maps the continuous domain [min, max] onto a bits-wide grid.
func NewQuantizer(min, max float64, bits int) (*Quantizer, error) {
	return subscription.NewQuantizer(min, max, bits)
}

// UnmarshalSubscription decodes the wire format produced by
// (*Subscription).MarshalBinary, validating it against the schema.
func UnmarshalSubscription(schema *Schema, data []byte) (*Subscription, error) {
	return subscription.UnmarshalSubscription(schema, data)
}

// UnmarshalEvent decodes the wire format produced by Event.MarshalBinary,
// validating it against the schema.
func UnmarshalEvent(schema *Schema, data []byte) (Event, error) {
	return subscription.UnmarshalEvent(schema, data)
}

// NewDetector builds a covering detector.
func NewDetector(cfg DetectorConfig) (*Detector, error) { return core.New(cfg) }

// NewEngine builds a sharded concurrent detection engine. It holds no
// goroutine between calls; Close makes later batch operations fail.
func NewEngine(cfg EngineConfig) (*Engine, error) { return engine.New(cfg) }

// NewDaemonServer wraps an engine in an sfcd protocol server; start it
// with Listen (background) or Serve (blocking) and stop it with Close.
// The server does not own the engine.
func NewDaemonServer(e *Engine) *DaemonServer { return sfcd.NewServer(e) }

// NewDaemonServerWith is NewDaemonServer with hardening knobs (connection
// limit, per-request read timeout).
func NewDaemonServerWith(e *Engine, cfg DaemonServerConfig) *DaemonServer {
	return sfcd.NewServerWith(e, cfg)
}

// NewPersistentDaemonServer wraps an engine in a protocol server whose
// subscription state — the shared engine and every link namespace — is
// durable under the store: recovery runs at construction, adds and
// removes are write-ahead logged from then on. The engine must be
// freshly built and the store freshly opened; the caller closes both
// after the server.
func NewPersistentDaemonServer(e *Engine, store *PersistStore, cfg DaemonServerConfig) (*DaemonServer, error) {
	return sfcd.NewPersistentServer(e, store, cfg)
}

// NewFollowerDaemonServer boots a read-only replica: it tails the
// primary's WAL stream into its own store and serves only
// ping/hello/promote (plus daemon-level metrics) until promoted —
// (*DaemonServer).Promote in-process, the promote wire op, or SIGUSR1
// under cmd/sfcd — at which point it recovers the engine from the
// replicated store and serves writes. Pair it with a failover client
// (DaemonDialConfig.Addrs, or NetworkConfig.DaemonAddrs for a broker
// overlay) for a kill-the-primary story with zero lost subscriptions.
func NewFollowerDaemonServer(e *Engine, store *PersistStore, cfg DaemonServerConfig, primaryAddr string) (*DaemonServer, error) {
	return sfcd.NewFollowerServer(e, store, cfg, primaryAddr)
}

// DialDaemon connects to an sfcd server with default configuration,
// verifying that the server's schema matches the given one (mismatches
// fail with ErrDaemonSchemaMismatch).
func DialDaemon(addr string, schema *Schema) (*DaemonClient, error) {
	return sfcd.Dial(addr, schema)
}

// DialDaemonContext connects to an sfcd server per cfg; the context
// bounds dialing and the schema handshake.
func DialDaemonContext(ctx context.Context, cfg DaemonDialConfig) (*DaemonClient, error) {
	return sfcd.DialContext(ctx, cfg)
}

// NewNetwork builds a broker overlay simulation.
func NewNetwork(topo Topology, cfg NetworkConfig) (*Network, error) {
	return broker.NewNetwork(topo, cfg)
}

// LineTopology returns a path of n brokers.
func LineTopology(n int) Topology { return broker.Line(n) }

// StarTopology returns a hub-and-spoke overlay of n brokers.
func StarTopology(n int) Topology { return broker.Star(n) }

// BalancedTreeTopology returns a complete binary tree of n brokers.
func BalancedTreeTopology(n int) Topology { return broker.BalancedTree(n) }

// RandomTreeTopology returns a seeded uniformly random recursive tree.
func RandomTreeTopology(n int, seed int64) Topology { return broker.RandomTree(n, seed) }
