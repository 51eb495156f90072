// Command pubsubsim runs the deterministic broker-network simulation with a
// synthetic workload and reports the routing metrics the paper's covering
// optimization targets: routing-table size, subscription messages
// propagated, suppression counts and event traffic.
//
// The -backend flag selects the per-link covering provider: a single
// detector, a sharded engine, or namespaces on a shared sfcd daemon — all
// running the identical routing protocol.
//
// Example:
//
//	pubsubsim -brokers 31 -topology tree -subs 300 -mode approx -eps 0.2 \
//	          -backend engine-prefix
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"sfccover/internal/broker"
	"sfccover/internal/core"
	"sfccover/internal/sfcd"
	"sfccover/internal/stats"
	"sfccover/internal/subscription"
	"sfccover/internal/workload"
)

// params collects the simulation knobs (the flag set, minus parsing).
type params struct {
	brokers  int
	topology string
	nSubs    int
	nClients int
	nEvents  int
	mode     string
	eps      float64
	maxCubes int
	width    float64
	dist     string
	seed     int64
	backend  string
	batch    int
	churn    float64
	rounds   int
	daemon   string
	failover int
	// out receives the report (nil = standard output).
	out io.Writer
}

func main() {
	var p params
	flag.IntVar(&p.brokers, "brokers", 31, "number of brokers")
	flag.StringVar(&p.topology, "topology", "tree", "overlay shape: line | star | tree | random")
	flag.IntVar(&p.nSubs, "subs", 300, "number of subscriptions")
	flag.IntVar(&p.nClients, "clients", 24, "number of clients")
	flag.IntVar(&p.nEvents, "events", 100, "number of published events")
	flag.StringVar(&p.mode, "mode", "approx", "covering mode: off | exact | approx")
	flag.Float64Var(&p.eps, "eps", 0.2, "approximation parameter for -mode approx")
	flag.IntVar(&p.maxCubes, "cap", 10000, "per-query probe budget (0 = library default, -1 = unlimited)")
	flag.Float64Var(&p.width, "width", 0.3, "mean subscription width as a fraction of the domain")
	flag.StringVar(&p.dist, "dist", "uniform", "value distribution: uniform | zipf | clustered | hotspot")
	flag.Int64Var(&p.seed, "seed", 1, "workload seed")
	flag.StringVar(&p.backend, "backend", "detector", "per-link provider: detector | engine-prefix | remote")
	flag.StringVar(&p.daemon, "daemon", "", "sfcd daemon address for -backend remote; \"local\" spins an in-process daemon so the whole overlay shares one index service; \"local-ha\" spins a replicated primary+follower pair with client-side failover")
	flag.IntVar(&p.failover, "failover-round", 0, "kill the primary daemon and promote the follower at the start of this churn round (needs -daemon local-ha; 0 = never)")
	flag.IntVar(&p.batch, "batch", 0, "covered-set re-forward probe batch size (0 = whole set)")
	flag.Float64Var(&p.churn, "churn", 0.25, "fraction of the remaining subscriptions withdrawn per churn round")
	flag.IntVar(&p.rounds, "churn-rounds", 1, "churn+publish rounds; each withdraws -churn of the remaining subscriptions, republishes the event batch and reports delivery-latency percentiles")
	flag.Parse()
	if _, err := run(p); err != nil {
		fmt.Fprintf(os.Stderr, "pubsubsim: %v\n", err)
		os.Exit(1)
	}
}

// simResult carries the final counters out of run so the failover smoke
// test can compare a kill-and-promote run against a never-killed one.
type simResult struct {
	Metrics           broker.Metrics
	TableRows         int
	ForwardedEntries  int
	SuppressedEntries int
}

func run(p params) (simResult, error) {
	var res simResult
	out := p.out
	if out == nil {
		out = os.Stdout
	}
	schema, err := subscription.NewSchema(10, "topic", "price")
	if err != nil {
		return res, err
	}
	var topo broker.Topology
	switch p.topology {
	case "line":
		topo = broker.Line(p.brokers)
	case "star":
		topo = broker.Star(p.brokers)
	case "tree":
		topo = broker.BalancedTree(p.brokers)
	case "random":
		topo = broker.RandomTree(p.brokers, p.seed)
	default:
		return res, fmt.Errorf("unknown topology %q", p.topology)
	}
	cfg := broker.Config{
		Schema:    schema,
		MaxCubes:  p.maxCubes,
		Seed:      p.seed,
		Backend:   broker.Backend(p.backend),
		BatchSize: p.batch,
	}
	switch p.mode {
	case "off":
		cfg.Mode = core.ModeOff
	case "exact":
		cfg.Mode = core.ModeExact
		cfg.Strategy = core.StrategyLinear
	case "approx":
		cfg.Mode = core.ModeApprox
		cfg.Epsilon = p.eps
	default:
		return res, fmt.Errorf("unknown mode %q", p.mode)
	}
	if p.churn < 0 || p.churn > 1 {
		return res, fmt.Errorf("churn fraction %v out of [0,1]", p.churn)
	}
	if p.rounds < 1 {
		return res, fmt.Errorf("churn rounds %d must be positive", p.rounds)
	}
	if p.failover != 0 && (p.failover < 1 || p.failover > p.rounds) {
		return res, fmt.Errorf("-failover-round %d out of the churn-round range [1,%d]", p.failover, p.rounds)
	}
	if p.failover != 0 && p.daemon != "local-ha" {
		return res, fmt.Errorf("-failover-round needs -daemon local-ha (there is no follower to promote)")
	}
	var cluster *haCluster
	if cfg.Backend == broker.BackendRemote {
		switch p.daemon {
		case "":
			return res, fmt.Errorf("-backend remote needs -daemon (an sfcd address, \"local\", or \"local-ha\")")
		case "local-ha":
			// A replicated in-process pair: the overlay's shared client
			// carries both addresses and -failover-round exercises the whole
			// kill → promote → reconnect path.
			dir, err := os.MkdirTemp("", "pubsubsim-ha-")
			if err != nil {
				return res, err
			}
			defer os.RemoveAll(dir)
			if cluster, err = startHACluster(schema, cfg, dir); err != nil {
				return res, err
			}
			defer cluster.Close()
			cfg.DaemonAddrs = cluster.addrs()
			cfg.DaemonTimeout = 30 * time.Second
		case "local":
			// One in-process daemon backing every broker link — the
			// shared-daemon deployment the remote backend exists for, in a
			// self-contained process.
			eng, err := newDaemonEngine(schema, cfg)
			if err != nil {
				return res, err
			}
			defer eng.Close()
			srv := sfcd.NewServer(eng)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				return res, err
			}
			defer srv.Close()
			cfg.DaemonAddr = addr.String()
		default:
			cfg.DaemonAddr = p.daemon
		}
	}

	subs, err := workload.Subscriptions(workload.SubSpec{
		Schema: schema, N: p.nSubs, Dist: workload.SubDist(p.dist),
		WidthFrac: p.width, Seed: p.seed,
	})
	if err != nil {
		return res, err
	}
	events, err := workload.Events(workload.EventSpec{Schema: schema, N: p.nEvents, Seed: p.seed + 1})
	if err != nil {
		return res, err
	}

	net, err := broker.NewNetwork(topo, cfg)
	if err != nil {
		return res, err
	}
	defer net.Close()
	clients := make([]*broker.Client, p.nClients)
	for i := range clients {
		c, err := net.AttachClient(i % net.NumBrokers())
		if err != nil {
			return res, err
		}
		clients[i] = c
	}
	for i, s := range subs {
		if err := net.Subscribe(clients[i%p.nClients].ID, s); err != nil {
			return res, err
		}
	}
	net.Drain()
	// Withdraw a slice of the population per round: unsubscription drives
	// the covered-set resubscription path, the part of the protocol the
	// covering optimization makes delicate. Each round publishes the full
	// event batch and reports its deliveries from the exact counter and
	// latency percentiles from the overlay's sampled histogram, both as
	// interval deltas so rounds don't blur.
	live := make([]int, len(subs))
	for i := range live {
		live[i] = i
	}
	nChurn := 0
	lt := stats.NewTable("round", "churned", "deliveries", "p50", "p95", "p99")
	prevLat, prevDelivered := net.DeliveryLatency(), net.Metrics().Deliveries
	for r := 1; r <= p.rounds; r++ {
		if cluster != nil && p.failover == r {
			// The overlay is drained, so nothing is in flight: the kill
			// exercises reconnection and promotion, not the (typed,
			// caller-decided) in-flight failure surface. Traffic resumes
			// once the overlay's client reports the replacement connection
			// installed (see awaitReconnect).
			fs, _ := net.DaemonFailoverStats()
			if err := cluster.failover(); err != nil {
				return res, fmt.Errorf("failover: %w", err)
			}
			if err := awaitReconnect(net, fs.Reconnects); err != nil {
				return res, fmt.Errorf("failover: %w", err)
			}
		}
		k := int(p.churn * float64(len(live)))
		for _, i := range live[:k] {
			if err := net.Unsubscribe(clients[i%p.nClients].ID, subs[i]); err != nil {
				return res, err
			}
		}
		live = live[k:]
		nChurn += k
		net.Drain()
		for i, ev := range events {
			if err := net.Publish(clients[i%p.nClients].ID, ev); err != nil {
				return res, err
			}
		}
		net.Drain()
		lat, delivered := net.DeliveryLatency(), net.Metrics().Deliveries
		d := lat.Sub(prevLat)
		lt.AddRow(r, k, delivered-prevDelivered, d.Quantile(0.50), d.Quantile(0.95), d.Quantile(0.99))
		prevLat, prevDelivered = lat, delivered
	}

	m := net.Metrics()
	tot := net.CoverTotals()
	res = simResult{
		Metrics:           m,
		TableRows:         net.TableRows(),
		ForwardedEntries:  net.ForwardedEntries(),
		SuppressedEntries: net.SuppressedEntries(),
	}
	fmt.Fprintf(out, "pubsubsim: %d brokers (%s), %d clients, %d subscriptions (%d churned), %d events, mode=%s backend=%s",
		topo.N, p.topology, p.nClients, p.nSubs, nChurn, p.nEvents, p.mode, cfg.Backend)
	if cfg.Mode == core.ModeApprox {
		fmt.Fprintf(out, " eps=%v cap=%d", p.eps, p.maxCubes)
	}
	fmt.Fprintln(out)
	tb := stats.NewTable("metric", "value")
	tb.AddRow("routing table rows", net.TableRows())
	tb.AddRow("forwarded-set entries", net.ForwardedEntries())
	tb.AddRow("suppressed-set entries", net.SuppressedEntries())
	tb.AddRow("subscribe msgs", m.SubscribeMsgs)
	tb.AddRow("unsubscribe msgs", m.UnsubscribeMsgs)
	tb.AddRow("suppressed forwards", m.SuppressedForwards)
	tb.AddRow("duplicate forwards", m.DuplicateForwards)
	tb.AddRow("event msgs", m.EventMsgs)
	tb.AddRow("deliveries", m.Deliveries)
	tb.AddRow("cover queries", tot.Queries)
	tb.AddRow("cover hits", tot.Hits)
	if tot.Queries > 0 {
		tb.AddRow("mean probes/query", float64(tot.RunsProbed)/float64(tot.Queries))
	}
	tb.AddRow("protocol errors", m.ProtocolErrors)
	fmt.Fprintln(out, tb)
	fmt.Fprintln(out, "deliveries per churn round, with publish-to-client latency over a 1-in-16 sample of publishes:")
	fmt.Fprintln(out, lt)
	if m.ProtocolErrors != 0 {
		return res, fmt.Errorf("simulation reported %d protocol errors", m.ProtocolErrors)
	}
	return res, nil
}
