package broker

import (
	"context"
	"fmt"

	"sfccover/internal/core"
	"sfccover/internal/engine"
	"sfccover/internal/persist"
	"sfccover/internal/sfcd"
)

// Backend selects the covering-detection provider each broker link runs.
// Every backend drives the identical routing state machine through the
// core.Provider interface; the safety tests pin bit-identical event
// deliveries across all of them.
type Backend string

const (
	// BackendDetector (the default) backs each link with a single-lock
	// core.Detector.
	BackendDetector Backend = "detector"
	// BackendEnginePrefix backs each link with a sharded engine (key
	// slices of the curve, one shared decomposition per query).
	BackendEnginePrefix Backend = "engine-prefix"
	// BackendRemote backs every link with an isolated namespace on one
	// shared sfcd daemon (Config.DaemonAddr) or a replicated daemon
	// cluster (Config.DaemonAddrs, with client-side failover): the whole
	// overlay's forwarded sets live in a single remote process, reached
	// over one pipelined connection. Covering detection then runs in the
	// daemon's configured mode — the daemon is the authority, Config.Mode
	// is not consulted. Networks with this backend own the connection;
	// call Close when done.
	BackendRemote Backend = "remote"
)

// providerSource builds the per-link providers of one network. For the
// in-process backends it is stateless unless Config.DataDir makes the
// links durable, in which case it owns the persist.Store every link logs
// to; for BackendRemote it owns the single pipelined daemon connection
// that every link's provider multiplexes over.
type providerSource struct {
	cfg    Config
	client *sfcd.Client   // non-nil iff cfg.Backend == BackendRemote
	store  *persist.Store // non-nil iff cfg.DataDir is set
}

// newProviderSource validates the backend choice and, for BackendRemote,
// dials the shared daemon; Config.DataDir opens (and recovers) the
// durable store behind the in-process backends.
func newProviderSource(cfg Config) (*providerSource, error) {
	switch cfg.Backend {
	case "", BackendDetector, BackendEnginePrefix:
		ps := &providerSource{cfg: cfg}
		if cfg.DataDir != "" {
			store, err := persist.Open(cfg.DataDir, cfg.Schema, persist.Options{})
			if err != nil {
				return nil, fmt.Errorf("broker: opening data dir: %w", err)
			}
			ps.store = store
		}
		return ps, nil
	case BackendRemote:
		if cfg.DaemonAddr == "" && len(cfg.DaemonAddrs) == 0 {
			return nil, fmt.Errorf("broker: backend %q needs Config.DaemonAddr or Config.DaemonAddrs", cfg.Backend)
		}
		if cfg.DataDir != "" {
			return nil, fmt.Errorf("broker: backend %q persists on the daemon (-data-dir there), not through Config.DataDir", cfg.Backend)
		}
		client, err := sfcd.DialContext(context.Background(), sfcd.DialConfig{
			Addr:           cfg.DaemonAddr,
			Addrs:          cfg.DaemonAddrs,
			Schema:         cfg.Schema,
			RequestTimeout: cfg.DaemonTimeout,
		})
		if err != nil {
			return nil, fmt.Errorf("broker: dialing daemon: %w", err)
		}
		return &providerSource{cfg: cfg, client: client}, nil
	default:
		return nil, fmt.Errorf("broker: unknown backend %q", cfg.Backend)
	}
}

// Close releases the shared daemon connection and the durable store, if
// any. Per-link providers are closed by their owners first (remote ones
// unlink their namespaces over this connection; durable ones release
// their store links).
func (ps *providerSource) Close() {
	if ps.client != nil {
		ps.client.Close() //nolint:errcheck // single Close per source
	}
	if ps.store != nil {
		ps.store.Close() //nolint:errcheck // single Close per source
	}
}

// durable wraps a freshly built link provider with logging and recovery
// under the given store link name.
func (ps *providerSource) durable(link string, p core.Provider) (*persist.DurableProvider, error) {
	d, err := ps.store.Durable(link, p)
	if err != nil {
		p.Close()
		return nil, err
	}
	return d, nil
}

// forwarded builds the forwarded-set provider for the link broker->neighbor.
func (ps *providerSource) forwarded(brokerID, neighborID int) (core.Provider, error) {
	if ps.client != nil {
		// One namespace per directed link on the shared daemon; LinkPrefix
		// keeps networks sharing a daemon out of each other's namespaces.
		return ps.client.Provider(fmt.Sprintf("%sb%d-n%d", ps.cfg.LinkPrefix, brokerID, neighborID))
	}
	cfg := ps.cfg
	dc := core.Config{
		Schema:   cfg.Schema,
		Mode:     cfg.Mode,
		Epsilon:  cfg.Epsilon,
		Strategy: cfg.Strategy,
		MaxCubes: cfg.MaxCubes,
	}
	var p core.Provider
	var err error
	switch cfg.Backend {
	case "", BackendDetector:
		p, err = core.New(dc)
	default: // BackendEnginePrefix (validated in newProviderSource)
		p, err = engine.New(engine.Config{Detector: dc})
	}
	if err != nil || ps.store == nil {
		return p, err
	}
	return ps.durable(fmt.Sprintf("fwd-b%d-n%d", brokerID, neighborID), p)
}

// suppressed builds the durable log behind the suppressed set of the link
// broker->neighbor, or nil without Config.DataDir. The link only stores
// into the set (which forwarded subscription covers an entry is the link's
// own record), so the store's recovery target is the plainest provider
// there is: a local linear Detector, whatever Config.Backend says.
func (ps *providerSource) suppressed(brokerID, neighborID int) (suppressedSet, error) {
	if ps.store == nil {
		return nil, nil
	}
	p, err := core.New(core.Config{Schema: ps.cfg.Schema, Mode: core.ModeExact, Strategy: core.StrategyLinear})
	if err != nil {
		return nil, err
	}
	return ps.durable(fmt.Sprintf("supp-b%d-n%d", brokerID, neighborID), p)
}
