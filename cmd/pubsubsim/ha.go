package main

import (
	"fmt"
	"path/filepath"
	"time"

	"sfccover/internal/broker"
	"sfccover/internal/core"
	"sfccover/internal/engine"
	"sfccover/internal/persist"
	"sfccover/internal/sfcd"
	"sfccover/internal/subscription"
)

// haCluster is the in-process replicated daemon pair behind
// -daemon local-ha: a persistent primary and a follower tailing its WAL
// stream, each with its own data dir, both listening on loopback. The
// overlay's shared client carries both addresses and fails over once
// the primary is killed and the follower promoted.
type haCluster struct {
	primaryEng    *engine.Engine
	followerEng   *engine.Engine
	primaryStore  *persist.Store
	followerStore *persist.Store
	primary       *sfcd.Server
	follower      *sfcd.Server
	primaryAddr   string
	followerAddr  string
	promoted      bool
}

// newDaemonEngine builds a daemon-side engine mirroring the overlay's
// covering configuration, for the "local" and "local-ha" daemon modes.
func newDaemonEngine(schema *subscription.Schema, cfg broker.Config) (*engine.Engine, error) {
	return engine.New(engine.Config{
		Detector: core.Config{
			Schema:   schema,
			Mode:     cfg.Mode,
			Epsilon:  cfg.Epsilon,
			Strategy: cfg.Strategy,
			MaxCubes: cfg.MaxCubes,
			Seed:     cfg.Seed,
		},
	})
}

// startHACluster boots the primary+follower pair under dir. On error
// everything already started is torn down.
func startHACluster(schema *subscription.Schema, cfg broker.Config, dir string) (*haCluster, error) {
	c := &haCluster{}
	ok := false
	defer func() {
		if !ok {
			c.Close()
		}
	}()

	var err error
	if c.primaryEng, err = newDaemonEngine(schema, cfg); err != nil {
		return nil, err
	}
	if c.primaryStore, err = persist.Open(filepath.Join(dir, "primary"), schema, persist.Options{}); err != nil {
		return nil, err
	}
	if c.primary, err = sfcd.NewPersistentServer(c.primaryEng, c.primaryStore, sfcd.ServerConfig{}); err != nil {
		return nil, err
	}
	addr, err := c.primary.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c.primaryAddr = addr.String()

	if c.followerEng, err = newDaemonEngine(schema, cfg); err != nil {
		return nil, err
	}
	if c.followerStore, err = persist.Open(filepath.Join(dir, "follower"), schema, persist.Options{}); err != nil {
		return nil, err
	}
	if c.follower, err = sfcd.NewFollowerServer(c.followerEng, c.followerStore, sfcd.ServerConfig{}, c.primaryAddr); err != nil {
		return nil, err
	}
	if addr, err = c.follower.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	c.followerAddr = addr.String()
	ok = true
	return c, nil
}

// addrs is the failover list for the overlay's shared client: primary
// first, follower second.
func (c *haCluster) addrs() []string { return []string{c.primaryAddr, c.followerAddr} }

// failover simulates the primary's death and the operator's response:
// wait for the follower to drain the replication stream, kill the
// primary, promote the follower. Draining first is what makes the run
// comparable to a never-killed one — the stream is asynchronous, so
// records the primary committed but never shipped would otherwise die
// with it; a real deployment gates promotion on the same condition
// (sfcd_replication_lag == 0) before declaring the old primary gone.
func (c *haCluster) failover() error {
	if c.promoted {
		return fmt.Errorf("failover already ran")
	}
	target := c.primaryStore.Pos()
	deadline := time.Now().Add(15 * time.Second)
	for c.followerStore.Pos() < target {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower stuck at stream position %d of %d", c.followerStore.Pos(), target)
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.primary.Close(); err != nil {
		return err
	}
	if err := c.primaryStore.Close(); err != nil {
		return err
	}
	if err := c.follower.Promote(); err != nil {
		return err
	}
	c.promoted = true
	return nil
}

// awaitReconnect waits until the overlay's shared daemon client has
// installed a replacement connection (its Reconnects counter passes
// prev). The kill is observable to the client only as a connection
// failure; an op issued before its reader processes the EOF rides the
// corpse and fails typed — by design, since a written frame cannot be
// proven unsent. The simulation's sequential rounds have no reason to
// provoke that surface: a real overlay resumes traffic once its client
// reports the connection re-established, which is exactly this wait.
func awaitReconnect(n *broker.Network, prev uint64) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		if fs, ok := n.DaemonFailoverStats(); ok && fs.Reconnects > prev {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("overlay client did not reconnect after failover")
		}
		time.Sleep(time.Millisecond)
	}
}

// Close tears down whatever is still running (both daemons, or just the
// follower after a failover killed the primary).
func (c *haCluster) Close() {
	if !c.promoted {
		if c.primary != nil {
			c.primary.Close() //nolint:errcheck // teardown
		}
		if c.primaryStore != nil {
			c.primaryStore.Close() //nolint:errcheck // teardown
		}
	}
	if c.follower != nil {
		c.follower.Close() //nolint:errcheck // teardown
	}
	if c.followerStore != nil {
		c.followerStore.Close() //nolint:errcheck // teardown
	}
	if c.primaryEng != nil {
		c.primaryEng.Close()
	}
	if c.followerEng != nil {
		c.followerEng.Close()
	}
}
