package sfcd

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"sfccover/internal/core"
	"sfccover/internal/dominance"
	"sfccover/internal/subscription"
)

// RemoteProvider adapts one link namespace of a dialed sfcd daemon to
// core.Provider: the full Add/Insert/Remove/FindCover/Stats surface
// travels over the client's pipelined connection, so brokers and
// routers can point any provider seam at a shared daemon exactly as they
// would at an in-process Detector or Engine. Any number of providers —
// one per broker link, say — share a single Client and therefore a
// single TCP connection; their requests interleave, and one waits behind
// another only while the daemon's read loop answers a cheap read it read
// first — for at most that read's walk budget.
//
// Divergences forced by the interface: the per-query dominance.Stats are
// server-side aggregates (visible through Stats), so FindCover returns
// zero-valued per-call stats; Len and Subscription have no error
// channel, so connection failures surface as 0 / not-found there and as
// real errors on the next erroring operation.
//
// Closing a RemoteProvider releases its link namespace on the daemon
// (best effort); it never closes the shared Client. Close the Client
// itself when all providers on it are done.
type RemoteProvider struct {
	c    *Client
	link string
	ctx  context.Context
}

var _ core.Provider = (*RemoteProvider)(nil)

// Provider returns a core.Provider over the given link namespace of the
// daemon. The empty link is the daemon's shared engine; any other link
// names an isolated subscription set, lazily materialized server-side
// from the engine's detector template (so its mode matches the daemon's).
func (c *Client) Provider(link string) (*RemoteProvider, error) {
	if _, err := core.ParseMode(c.mode); err != nil {
		return nil, fmt.Errorf("sfcd: hello negotiated %w", err)
	}
	return &RemoteProvider{c: c, link: link, ctx: context.Background()}, nil
}

// Link returns the provider's namespace on the daemon.
func (r *RemoteProvider) Link() string { return r.link }

// checkSchema mirrors the local providers' pointer check so misuse fails
// identically whether the index is local or remote.
func (r *RemoteProvider) checkSchema(s *subscription.Subscription) error {
	if s.Schema() != r.c.schema {
		return errors.New("sfcd: subscription schema differs from client schema")
	}
	return nil
}

// subOp issues one single-subscription op on the provider's namespace.
func (r *RemoteProvider) subOp(op Opcode, s *subscription.Subscription) (Result, error) {
	if err := r.checkSchema(s); err != nil {
		return Result{}, err
	}
	return r.c.subOp(r.ctx, op, r.link, s)
}

// Add runs the router arrival path on the daemon: covering query, then
// insert either way.
func (r *RemoteProvider) Add(s *subscription.Subscription) (id uint64, covered bool, coveredBy uint64, err error) {
	res, err := r.subOp(OpSubscribe, s)
	return res.SID, res.Covered, res.CoveredBy, err
}

// Insert stores s unconditionally and returns its id.
func (r *RemoteProvider) Insert(s *subscription.Subscription) (uint64, error) {
	res, err := r.subOp(OpInsert, s)
	return res.SID, err
}

// Remove deletes a previously inserted subscription by id.
func (r *RemoteProvider) Remove(id uint64) error {
	_, err := r.c.result(r.ctx, &Request{Op: OpUnsubscribe, Link: r.link, SID: id})
	return err
}

// FindCover searches the namespace for a subscription covering s. The
// per-call dominance stats are zero (they live server-side; see Stats).
func (r *RemoteProvider) FindCover(s *subscription.Subscription) (id uint64, found bool, stats dominance.Stats, err error) {
	res, err := r.subOp(OpQuery, s)
	return res.CoveredBy, res.Covered, stats, err
}

// batchOp runs one subscription-batch op on the provider's namespace and
// hands every item's outcome to set: the item's own validation failure
// (which poisons only its slot, as with the engine's batch path), the
// request's failure, the server's per-item error, or the result.
func (r *RemoteProvider) batchOp(op Opcode, subs []*subscription.Subscription, set func(i int, res Result, err error)) {
	valid := make([]*subscription.Subscription, len(subs))
	for i, s := range subs {
		if r.checkSchema(s) == nil {
			valid[i] = s
		}
	}
	results, err := r.c.batchOp(r.ctx, op, r.link, valid)
	for i, s := range subs {
		switch {
		case valid[i] == nil:
			set(i, Result{}, r.checkSchema(s))
		case err != nil:
			set(i, Result{}, err)
		case results[i].Error != "":
			set(i, Result{}, &ServerError{Code: CodeOpFailed, Msg: results[i].Error})
		default:
			set(i, results[i], nil)
		}
	}
}

// CoverQueryBatch rides one request frame and fans out on the daemon's
// engine batch path.
func (r *RemoteProvider) CoverQueryBatch(subs []*subscription.Subscription) []core.QueryResult {
	out := make([]core.QueryResult, len(subs))
	r.batchOp(OpQueryBatch, subs, func(i int, res Result, err error) {
		out[i] = core.QueryResult{Covered: res.Covered, CoveredBy: res.CoveredBy, Err: err}
	})
	return out
}

// AddBatch rides one subscribe_batch request frame (covering query +
// insert per item) instead of one round trip per subscription — the
// churn-path amortization the wire op existed for.
func (r *RemoteProvider) AddBatch(subs []*subscription.Subscription) []core.AddResult {
	out := make([]core.AddResult, len(subs))
	r.batchOp(OpSubscribeBatch, subs, func(i int, res Result, err error) {
		out[i] = core.AddResult{ID: res.SID, QueryResult: core.QueryResult{Covered: res.Covered, CoveredBy: res.CoveredBy, Err: err}}
	})
	return out
}

// RemoveBatch is one unsubscribe_batch round trip. The returned slice
// aligns with ids; entries are nil on success.
func (r *RemoteProvider) RemoveBatch(ids []uint64) []error {
	out := make([]error, len(ids))
	results, err := r.c.results(r.ctx, &Request{Op: OpUnsubscribeBatch, Link: r.link, SIDs: ids}, len(ids))
	for i := range out {
		if err != nil {
			out[i] = err
		} else if results[i].Error != "" {
			out[i] = &ServerError{Code: CodeOpFailed, Msg: results[i].Error}
		}
	}
	return out
}

// unsupported maps the daemon's CodeUnsupported refusal back to
// core.ErrUnsupported, so a remote namespace refuses exactly like a local
// provider would.
func unsupported(err error) error {
	var se *ServerError
	if errors.As(err, &se) && se.Code == CodeUnsupported {
		// The daemon's message is the provider's error, sentinel text first.
		return fmt.Errorf("%w: %s", core.ErrUnsupported, strings.TrimPrefix(se.Msg, core.ErrUnsupported.Error()+": "))
	}
	return err
}

// Snapshot forwards to the daemon: its whole durable store (all links —
// the log is shared) snapshots and compacts. A daemon running without a
// data dir refuses with core.ErrUnsupported.
func (r *RemoteProvider) Snapshot() error {
	return unsupported(r.c.simpleOp(r.ctx, OpSnapshot, r.link))
}

// Enumerate is unsupported: a full subscription dump has no wire op and
// would be an unbounded response frame; enumerate server-side.
func (r *RemoteProvider) Enumerate() (*core.Listing, error) {
	return nil, fmt.Errorf("%w: no wire op dumps a namespace", core.ErrUnsupported)
}

// InsertBatch is unsupported: the wire batch op is subscribe_batch
// (AddBatch), which covering daemons need; a log-free bulk insert op does
// not exist remotely.
func (r *RemoteProvider) InsertBatch([]*subscription.Subscription) ([]uint64, error) {
	return nil, fmt.Errorf("%w: no wire op bulk-inserts", core.ErrUnsupported)
}

// Restore is unsupported: ids are the daemon's to mint, and a daemon with
// a data dir restores itself from it at boot.
func (r *RemoteProvider) Restore([]core.Held) error {
	return fmt.Errorf("%w: no wire op loads a namespace under given ids", core.ErrUnsupported)
}

// Subscription resolves an id to its held subscription. The Provider
// signature has no error channel, so connection trouble reads as
// not-found here and errors on the next operation that can report it.
func (r *RemoteProvider) Subscription(id uint64) (*subscription.Subscription, bool) {
	sub, err := r.c.subscription(r.ctx, r.link, id)
	return sub, err == nil
}

// Holds reports whether the namespace holds id, through the get op; as
// with Subscription, connection trouble reads as not held.
func (r *RemoteProvider) Holds(id uint64) bool {
	_, err := r.c.result(r.ctx, &Request{Op: OpGet, Link: r.link, SID: id})
	return err == nil
}

// Len returns the number of held subscriptions in the namespace (0 when
// the daemon cannot be reached; see the type comment).
func (r *RemoteProvider) Len() int { return r.Stats().Subscriptions }

// Schema returns the client's attribute schema.
func (r *RemoteProvider) Schema() *subscription.Schema { return r.c.schema }

// Stats returns the namespace's uniform counter snapshot (zero-valued
// when the daemon cannot be reached).
func (r *RemoteProvider) Stats() core.ProviderStats {
	var ws Stats
	if err := r.c.bodyOp(r.ctx, OpStats, r.link, &ws); err != nil {
		return core.ProviderStats{}
	}
	ps := core.ProviderStats{
		Queries:         ws.Queries,
		Hits:            ws.Hits,
		RunsProbed:      ws.RunsProbed,
		CubesGenerated:  ws.CubesGenerated,
		PathQueries:     ws.PathQueries,
		ShardSearches:   ws.ShardSearches,
		Rebalances:      ws.Rebalances,
		BoundaryMoves:   ws.BoundaryMoves,
		MigratedEntries: ws.MigratedEntries,
		Snapshots:       ws.Snapshots,
		WALRecords:      ws.WALRecords,
		WALBytes:        ws.WALBytes,
		SnapshotHold:    time.Duration(ws.SnapshotHoldNs),
		SnapshotTime:    time.Duration(ws.SnapshotNs),
	}
	ps.SetShardSizes(ws.ShardSizes)
	return ps
}

// Close releases the link namespace on the daemon (best effort — a lost
// connection makes it a no-op; the daemon reaps namespaces with the
// process). The shared Client stays open. Close is idempotent: unlink of
// an unknown or already-released link succeeds server-side.
func (r *RemoteProvider) Close() {
	if r.link == "" {
		return // the shared engine is not ours to tear down
	}
	r.c.simpleOp(r.ctx, OpUnlink, r.link) //nolint:errcheck // best effort
}
