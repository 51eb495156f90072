// Package walorderfix seeds walorder violations and the legitimate
// shapes it must accept: log-then-apply, a claim through the store, and
// annotated replay.
package walorderfix

import (
	"sfccover/internal/core"
	"sfccover/internal/subscription"
)

// store declares WAL append primitives, putting this package under the
// claim→log→apply rule.
type store struct{}

func (s *store) appendAdd(sid uint64) error    { return nil }
func (s *store) appendRemove(sid uint64) error { return nil }

type durable struct {
	inner core.Provider
	st    *store
}

// badRemove applies the removal before logging it: a crash between the
// two loses the subscription from disk but not from the log.
func (d *durable) badRemove(sid uint64) error {
	if err := d.inner.Remove(sid); err != nil { // want `Remove precedes the first WAL append`
		return err
	}
	return d.st.appendRemove(sid)
}

// badUnlogged mutates without any WAL append in sight.
func (d *durable) badUnlogged(sid uint64) error {
	return d.inner.Remove(sid) // want `mutates provider state but badUnlogged never appends to the WAL`
}

// goodRemove logs first, applies second.
func (d *durable) goodRemove(sid uint64) error {
	if err := d.st.appendRemove(sid); err != nil {
		return err
	}
	return d.inner.Remove(sid)
}

// badRollback inserts, logs, and undoes the insert when the log refuses
// it: a reader between the insert and the undo saw a subscription the log
// never held.
func (d *durable) badRollback(sub *subscription.Subscription) error {
	id, err := d.inner.Insert(sub) // want `Insert precedes the first WAL append in badRollback`
	if err != nil {
		return err
	}
	if err := d.st.appendAdd(id); err != nil {
		d.inner.Remove(id)
		return err
	}
	return nil
}

// goodLoad logs an add under the id it mints, then loads it.
func (d *durable) goodLoad(held []core.Held) error {
	if err := d.st.appendAdd(held[0].ID); err != nil {
		return err
	}
	return d.inner.Restore(held)
}

// goodTransitive logs through a helper that reaches a primitive.
func (d *durable) goodTransitive(sid uint64) error {
	if err := d.logRemove(sid); err != nil {
		return err
	}
	return d.inner.Remove(sid)
}

func (d *durable) logRemove(sid uint64) error { return d.st.appendRemove(sid) }

// goodStoreClaimedRemove keeps no id map of its own: the store's append
// refuses the ids the durable set does not hold and logs the rest, then
// the provider drops what was logged.
func (d *durable) goodStoreClaimedRemove(sids []uint64) []error {
	out := make([]error, len(sids))
	var logged []uint64
	for i, sid := range sids {
		if out[i] = d.st.appendRemove(sid); out[i] == nil {
			logged = append(logged, sid)
		}
	}
	d.inner.RemoveBatch(logged)
	return out
}

// badRestore loads a provider under given ids with no log behind them.
func (d *durable) badRestore(held []core.Held) error {
	return d.inner.Restore(held) // want `mutates provider state but badRestore never appends to the WAL`
}

// replay restores a provider from records already on disk; the
// annotation waives the rule for the whole function.
//
//sfc:walok fixture: recovery restores from records already on disk
func (d *durable) replay(held []core.Held) error {
	return d.inner.Restore(held)
}

// lineSuppressed documents the call-level escape hatch.
func (d *durable) lineSuppressed(sid uint64) error {
	//sfc:walok fixture: this removal's record is already on disk
	if err := d.inner.Remove(sid); err != nil {
		return err
	}
	return d.st.appendRemove(sid)
}
