// Daemon: run the sfcd covering-detection service in-process and drive it
// over a real TCP connection — the same path `cmd/sfcd` serves to remote
// routers. Subscriptions travel in their binary wire format; batch
// operations amortize one round trip over the whole batch and fan out
// across the engine's shards on the server side.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"sfccover"
)

func main() {
	schema, err := sfccover.NewSchema(10, "volume", "price")
	if err != nil {
		log.Fatal(err)
	}

	// The default engine: key-range partitioned, so subscriptions that are
	// close on the space filling curve — the likely covers — share a shard,
	// with the shard boundaries placed by the engine from what it holds.
	eng, err := sfccover.NewEngine(sfccover.EngineConfig{
		Detector: sfccover.DetectorConfig{
			Schema:  schema,
			Mode:    sfccover.ModeApprox,
			Epsilon: 0.3,
		},
		Partition: sfccover.PartitionPrefix,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	srv := sfccover.NewDaemonServer(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("sfcd serving on %v\n", addr)

	// The client is pipelined: any number of goroutines can share it, and
	// every operation takes a context. A per-request timeout guards
	// against a stalled daemon.
	ctx := context.Background()
	client, err := sfccover.DialDaemonContext(ctx, sfccover.DaemonDialConfig{
		Addr:           addr.String(),
		Schema:         schema,
		RequestTimeout: 5 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	fmt.Printf("connected: %d shards, %s partition, %s mode\n",
		client.Shards(), client.Partition(), client.Mode())

	// One broad subscription, then a batch of narrower ones: the covering
	// query that runs inside every subscribe spots the redundancy.
	broad := sfccover.MustParseSubscription(schema, "volume in [100,900] && price in [10,400]")
	sid, _, _, err := client.Subscribe(ctx, broad)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("subscribed #%d: %v\n", sid, broad)

	narrow := []*sfccover.Subscription{
		sfccover.MustParseSubscription(schema, "volume in [200,300] && price in [50,60]"),
		sfccover.MustParseSubscription(schema, "volume in [400,500] && price in [100,200]"),
		sfccover.MustParseSubscription(schema, "volume in [0,50] && price in [900,1000]"),
	}
	results, err := client.SubscribeBatch(ctx, narrow)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range results {
		if r.Error != "" {
			log.Fatalf("subscribe %d: %s", i, r.Error)
		}
		if r.Covered {
			fmt.Printf("subscribed #%d: %v  — covered by #%d, a router would suppress it\n",
				r.SID, narrow[i], r.CoveredBy)
		} else {
			fmt.Printf("subscribed #%d: %v  — no cover, it propagates\n", r.SID, narrow[i])
		}
	}

	// Event delivery through the same machinery: an event is the degenerate
	// subscription pinning every attribute, and its covers are its matches.
	ev, err := sfccover.ParseEvent(schema, "volume = 250, price = 55")
	if err != nil {
		log.Fatal(err)
	}
	matched, by, err := client.Match(ctx, ev)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("event (volume=250, price=55): matched=%v by #%d\n", matched, by)

	stats, err := client.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("daemon stats: %d subscriptions, %d queries (%d hits), shard sizes %v\n",
		stats.Subscriptions, stats.Queries, stats.Hits, stats.ShardSizes)

	// The same daemon as a core.Provider: each named link is an isolated
	// subscription namespace — this is how a broker overlay points every
	// link at one shared daemon.
	linkA, err := client.Provider("router-1:link-a")
	if err != nil {
		log.Fatal(err)
	}
	defer linkA.Close()
	if _, err := linkA.Insert(broad); err != nil {
		log.Fatal(err)
	}
	_, foundA, _, err := linkA.FindCover(narrow[0])
	if err != nil {
		log.Fatal(err)
	}
	linkB, err := client.Provider("router-1:link-b")
	if err != nil {
		log.Fatal(err)
	}
	defer linkB.Close()
	_, foundB, _, err := linkB.FindCover(narrow[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("link namespaces: cover found on link-a=%v, on empty link-b=%v\n", foundA, foundB)
}
