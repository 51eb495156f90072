package main

import (
	"sfccover/internal/subscription"
	gen "sfccover/internal/workload"
)

// Every input comes from the seed through internal/workload; the system
// under test only ever sees the generated subscriptions and events.

// planted is the base population and its cover structure: parents[i]
// covers children[i]. Parents are bulk-loaded; children are the hit-heavy
// query, subscribe and churn shapes.
type planted struct {
	parents, children []*subscription.Subscription
}

func plantedPairs(schema *subscription.Schema, seed int64, n int) (planted, error) {
	pairs, err := gen.Covers(gen.CoverSpec{Schema: schema, N: n, SlackFrac: coverSlack, Seed: seed})
	if err != nil {
		return planted{}, err
	}
	p := planted{
		parents:  make([]*subscription.Subscription, n),
		children: make([]*subscription.Subscription, n),
	}
	for i, pr := range pairs {
		p.parents[i], p.children[i] = pr.Parent, pr.Child
	}
	return p, nil
}

// missQueries are distinct uniform shapes: each is a first touch for the
// decomposition cache, and most have no cover, so the search runs to its
// budget.
func missQueries(schema *subscription.Schema, seed int64, n int) ([]*subscription.Subscription, error) {
	return gen.Subscriptions(gen.SubSpec{Schema: schema, N: n, WidthFrac: missWidth, Seed: seed + 1})
}

// overlayInputs are the overlay's subscription pool and event stream. The
// pool interleaves planted pairs — pool[2i] covers pool[2i+1] — so that
// every child meets a live cover on its way up the tree and every
// unsubscribed parent uncovers one: the broker's suppression and
// re-forwarding run on every cycle, which uniform subscriptions (that
// almost never cover each other) would leave idle.
func overlayInputs(schema *subscription.Schema, seed int64, nSubs, nEvents int) ([]*subscription.Subscription, []subscription.Event, error) {
	pairs, err := gen.Covers(gen.CoverSpec{Schema: schema, N: (nSubs + 1) / 2, SlackFrac: coverSlack, Seed: seed + 2})
	if err != nil {
		return nil, nil, err
	}
	subs := make([]*subscription.Subscription, 0, 2*len(pairs))
	for _, p := range pairs {
		subs = append(subs, p.Parent, p.Child)
	}
	events, err := gen.Events(gen.EventSpec{Schema: schema, N: nEvents, Seed: seed + 3})
	if err != nil {
		return nil, nil, err
	}
	return subs[:nSubs], events, nil
}
