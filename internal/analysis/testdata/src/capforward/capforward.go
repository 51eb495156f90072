// Package capforwardfix seeds a provider wrapper that forwards nothing,
// one that forwards or annotates everything, and a provider-holding
// type that is not a wrapper at all.
package capforwardfix

import (
	"sfccover/internal/core"
	"sfccover/internal/dominance"
	"sfccover/internal/subscription"
)

// passthrough implements core.Provider around an inner one but forwards
// none of the optional capabilities: every wrapped engine behind it
// silently loses batching, rebalancing, durability and enumeration.
type passthrough struct { // want "BatchQuerier" "BatchWriter" "Rebalancer" "Persister" "Enumerator" "BulkInserter"
	inner core.Provider
}

func (p *passthrough) Add(s *subscription.Subscription) (uint64, bool, uint64, error) {
	return p.inner.Add(s)
}
func (p *passthrough) Insert(s *subscription.Subscription) (uint64, error) {
	return p.inner.Insert(s)
}
func (p *passthrough) Remove(id uint64) error { return p.inner.Remove(id) }
func (p *passthrough) FindCover(s *subscription.Subscription) (uint64, bool, dominance.Stats, error) {
	return p.inner.FindCover(s)
}
func (p *passthrough) FindCovered(s *subscription.Subscription) (uint64, bool, dominance.Stats, error) {
	return p.inner.FindCovered(s)
}
func (p *passthrough) Subscription(id uint64) (*subscription.Subscription, bool) {
	return p.inner.Subscription(id)
}
func (p *passthrough) Len() int                     { return p.inner.Len() }
func (p *passthrough) Mode() core.Mode              { return p.inner.Mode() }
func (p *passthrough) Schema() *subscription.Schema { return p.inner.Schema() }
func (p *passthrough) Stats() core.ProviderStats    { return p.inner.Stats() }
func (p *passthrough) Close()                       { p.inner.Close() }

// forwarding handles every capability: one genuine forward, the rest
// declared away with reasons.
//
//sfc:nocap BatchWriter fixture: the wrapped batch path is intentionally absent here
//sfc:nocap Rebalancer fixture: wrapping freezes the partition
//sfc:nocap Persister fixture: nothing durable behind this wrapper
//sfc:nocap Enumerator fixture: enumeration stays on the inner provider
//sfc:nocap BulkInserter fixture: bulk loads bypass this wrapper
type forwarding struct {
	passthrough
}

func (f *forwarding) CoverQueryBatch(subs []*subscription.Subscription) []core.QueryResult {
	return core.CoverQueries(f.inner, subs)
}

// holder holds providers without being one — a broker routing table,
// not a wrapper — so the rule does not apply.
type holder struct {
	fwd  core.Provider
	supp core.Provider
}

func (h *holder) Len() int { return h.fwd.Len() + h.supp.Len() }
