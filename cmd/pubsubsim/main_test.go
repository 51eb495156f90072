package main

import (
	"bufio"
	"strconv"
	"strings"
	"testing"
)

// base returns a small, fast parameter set; tests mutate what they need.
func base() params {
	return params{
		brokers: 7, topology: "tree", nSubs: 40, nClients: 6, nEvents: 10,
		mode: "exact", width: 0.3, dist: "uniform", seed: 1, backend: "detector",
		churn: 0.25, rounds: 1,
	}
}

func TestRunAllModesAndTopologies(t *testing.T) {
	for _, topo := range []string{"line", "star", "tree", "random"} {
		p := base()
		p.topology = topo
		if _, err := run(p); err != nil {
			t.Errorf("topology %s: %v", topo, err)
		}
	}
	for _, mode := range []string{"off", "exact", "approx"} {
		p := base()
		p.brokers, p.nSubs, p.nClients = 5, 30, 4
		p.mode, p.eps, p.maxCubes, p.seed = mode, 0.3, 2000, 2
		if _, err := run(p); err != nil {
			t.Errorf("mode %s: %v", mode, err)
		}
	}
	for _, dist := range []string{"uniform", "zipf", "clustered"} {
		p := base()
		p.brokers, p.nSubs, p.nClients, p.nEvents = 3, 20, 3, 5
		p.topology, p.mode, p.width, p.dist, p.seed = "line", "off", 0.25, dist, 3
		if _, err := run(p); err != nil {
			t.Errorf("dist %s: %v", dist, err)
		}
	}
}

func TestRunEngineBackend(t *testing.T) {
	p := base()
	p.brokers, p.nSubs = 5, 30
	p.mode, p.eps, p.maxCubes = "approx", 0.3, 2000
	p.backend, p.batch = "engine-prefix", 8
	p.churn, p.rounds = 0.5, 3
	if _, err := run(p); err != nil {
		t.Errorf("backend engine-prefix: %v", err)
	}
}

func TestRunRemoteBackend(t *testing.T) {
	// "-backend remote -daemon local" spins an in-process daemon and
	// points every broker link at it over one pipelined connection.
	p := base()
	p.brokers, p.nSubs = 5, 30
	p.backend, p.daemon = "remote", "local"
	p.churn = 0.5
	if _, err := run(p); err != nil {
		t.Errorf("remote backend: %v", err)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	mutations := map[string]func(*params){
		"unknown topology":     func(p *params) { p.topology = "mesh" },
		"unknown mode":         func(p *params) { p.mode = "fuzzy" },
		"epsilon out of range": func(p *params) { p.mode = "approx"; p.eps = 7 },
		"unknown distribution": func(p *params) { p.dist = "bimodal" },
		"unknown backend":      func(p *params) { p.backend = "quantum" },
		"retired hash backend": func(p *params) { p.backend = "engine-hash" },
		"remote sans daemon":   func(p *params) { p.backend = "remote" },
		"churn out of range":   func(p *params) { p.churn = 1.5 },
		"zero churn rounds":    func(p *params) { p.rounds = 0 },
	}
	for name, mutate := range mutations {
		p := base()
		p.brokers, p.nSubs, p.nClients, p.nEvents = 5, 10, 2, 2
		mutate(&p)
		if _, err := run(p); err == nil {
			t.Errorf("%s must fail", name)
		}
	}
}

// TestFailoverMatchesCleanRun is the PR's acceptance gate in miniature:
// the same workload against the replicated daemon pair, once with the
// primary killed and the follower promoted mid-run and once untouched,
// must converge to identical routing state and delivery counters — zero
// lost subscriptions, zero protocol errors, bit-identical cover answers.
func TestFailoverMatchesCleanRun(t *testing.T) {
	ha := base()
	ha.brokers, ha.nSubs, ha.nClients = 5, 40, 4
	ha.backend, ha.daemon = "remote", "local-ha"
	ha.churn, ha.rounds = 0.3, 3

	clean, err := run(ha)
	if err != nil {
		t.Fatalf("clean HA run: %v", err)
	}
	ha.failover = 2
	killed, err := run(ha)
	if err != nil {
		t.Fatalf("failover run: %v", err)
	}
	if killed.Metrics.ProtocolErrors != 0 {
		t.Fatalf("failover run hit %d protocol errors", killed.Metrics.ProtocolErrors)
	}
	if killed != clean {
		t.Fatalf("failover run diverged from clean run\n got %+v\nwant %+v", killed, clean)
	}
}

// TestRoundDeliveriesColumnIsTheCounter checks the per-round "deliveries"
// column against the Deliveries counter: the simulation is deterministic,
// so an r-round run ends with the deliveries of the first r rounds of a
// longer one, and the 3-round report's column must read the differences.
// (The latency histogram it used to read is a 1-in-16 sample.)
func TestRoundDeliveriesColumnIsTheCounter(t *testing.T) {
	p := base()
	p.churn, p.rounds = 0.3, 3
	var report strings.Builder
	p.out = &report
	if _, err := run(p); err != nil {
		t.Fatal(err)
	}
	var column []int
	inTable := false
	sc := bufio.NewScanner(strings.NewReader(report.String()))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		switch {
		case len(f) > 2 && f[0] == "round" && f[2] == "deliveries":
			inTable = true
		case inTable && len(f) == 6:
			if v, err := strconv.Atoi(f[2]); err == nil {
				column = append(column, v)
			}
		}
	}
	if len(column) != p.rounds {
		t.Fatalf("report has %d round rows, want %d:\n%s", len(column), p.rounds, report.String())
	}
	prev := 0
	for r := 1; r <= p.rounds; r++ {
		q := p
		q.rounds, q.out = r, &strings.Builder{}
		res, err := run(q)
		if err != nil {
			t.Fatal(err)
		}
		if want := res.Metrics.Deliveries - prev; column[r-1] != want || want == 0 {
			t.Errorf("round %d: deliveries column reads %d, the counter moved by %d", r, column[r-1], want)
		}
		prev = res.Metrics.Deliveries
	}
}
