// Command sfcd serves covering detection over the network: a sharded,
// concurrent detection engine behind the sfcd protocol (length-prefixed
// binary frames over TCP, subscriptions and events in the binary wire
// format).
//
// Usage:
//
//	sfcd -addr :7421 -attrs volume,price -bits 10 \
//	     -mode approx -epsilon 0.3 \
//	     -data-dir /var/lib/sfcd -snapshot-interval 5m
//
// With -data-dir the daemon's subscription state (the shared engine and
// every link namespace) is durable: adds and removes ride a write-ahead
// log, -snapshot-interval compacts it periodically, and a restarted
// daemon recovers its full pre-crash state before accepting the first
// connection. -wal-sync fsyncs per append; -wal-sync-interval trades a
// bounded power-failure window for group-commit throughput.
//
// With -follow the daemon boots as a read-only follower replicating the
// named primary's WAL stream into its own data dir; SIGUSR1 (or the
// promote wire op) flips it to primary:
//
//	sfcd -addr :7422 -data-dir /var/lib/sfcd-b -follow primary:7421
//
// Frames are not meant to be typed by hand; drive the daemon through
// sfcd.Dial (examples/daemon is a complete session).
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sfccover/internal/core"
	"sfccover/internal/engine"
	"sfccover/internal/obs"
	"sfccover/internal/persist"
	"sfccover/internal/sfcd"
	"sfccover/internal/subscription"
)

// daemonMaxCubes is the default per-query probe budget. The library
// default (core.DefaultMaxCubes, ~1M probes) tolerates hundreds of
// milliseconds per worst-case miss; a network daemon serving many clients
// wants misses bounded much tighter. Operators can raise it with
// -maxcubes.
const daemonMaxCubes = 50000

// options mirrors the flag set; kept separate so tests can build engine
// configurations without touching the global flag state.
type options struct {
	attrs    string
	bits     int
	mode     string
	epsilon  float64
	strategy string
	maxCubes int
}

// buildConfig translates the flag values into an engine configuration.
func buildConfig(o options) (engine.Config, error) {
	var attrs []string
	for _, a := range strings.Split(o.attrs, ",") {
		if a = strings.TrimSpace(a); a != "" {
			attrs = append(attrs, a)
		}
	}
	schema, err := subscription.NewSchema(o.bits, attrs...)
	if err != nil {
		return engine.Config{}, err
	}
	mode, err := core.ParseMode(o.mode)
	if err != nil {
		return engine.Config{}, err
	}
	return engine.Config{
		Detector: core.Config{
			Schema:   schema,
			Mode:     mode,
			Epsilon:  o.epsilon,
			Strategy: core.Strategy(o.strategy),
			MaxCubes: o.maxCubes,
		},
	}, nil
}

// metricsHandler serves the daemon's full Prometheus page — scalar
// counters, op/stage latency histograms and per-link gauges, the same
// rendering as the protocol's "metrics" op — on a scrape-friendly HTTP
// endpoint.
func metricsHandler(srv *sfcd.Server) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		io.WriteString(w, srv.MetricsText()) //nolint:errcheck // best-effort scrape
	})
}

// registerPprof mounts the net/http/pprof handlers on the metrics mux —
// explicitly, instead of importing the package for its DefaultServeMux
// side effect, so the daemon's main listener never exposes profiling.
func registerPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// serveOptions carries the daemon-level (non-engine) flags.
type serveOptions struct {
	addr             string
	metricsAddr      string
	maxConns         int
	readTimeout      time.Duration
	dataDir          string
	snapshotInterval time.Duration
	walSync          bool
	walSyncInterval  time.Duration
	follow           string
	logLevel         string
	slowQuery        time.Duration
	slowLogSize      int
}

// validateServeOptions refuses nonsensical flag combinations with a
// usage error before any resource is touched.
func validateServeOptions(so serveOptions) error {
	if so.maxConns < 0 {
		return fmt.Errorf("-max-conns %d is negative (0 means unlimited)", so.maxConns)
	}
	if so.readTimeout < 0 {
		return fmt.Errorf("-read-timeout %v is negative (0 means none)", so.readTimeout)
	}
	if so.snapshotInterval < 0 {
		return fmt.Errorf("-snapshot-interval %v is negative (0 means no periodic snapshots)", so.snapshotInterval)
	}
	if so.walSyncInterval < 0 {
		return fmt.Errorf("-wal-sync-interval %v is negative (0 means no group commit)", so.walSyncInterval)
	}
	if so.walSync && so.walSyncInterval > 0 {
		return fmt.Errorf("-wal-sync and -wal-sync-interval are mutually exclusive (per-append fsync vs group commit)")
	}
	if so.dataDir == "" {
		if so.snapshotInterval > 0 {
			return fmt.Errorf("-snapshot-interval needs -data-dir (there is no durable state to snapshot)")
		}
		if so.walSync {
			return fmt.Errorf("-wal-sync needs -data-dir (there is no write-ahead log to sync)")
		}
		if so.walSyncInterval > 0 {
			return fmt.Errorf("-wal-sync-interval needs -data-dir (there is no write-ahead log to sync)")
		}
		if so.follow != "" {
			return fmt.Errorf("-follow needs -data-dir (a follower replicates into a durable store)")
		}
	}
	if _, err := obs.ParseLevel(so.logLevel); err != nil {
		return fmt.Errorf("-log-level: %w", err)
	}
	if so.slowLogSize < 0 {
		return fmt.Errorf("-slow-log-size %d is negative (0 means the default %d)", so.slowLogSize, obs.DefaultSlowLogSize)
	}
	return nil
}

// newFlagSet registers the daemon's whole flag surface, bound to so and o.
// TestFlagSurface pins the registered names, so a knob cannot arrive or
// leave without the diff saying so.
func newFlagSet(so *serveOptions, o *options, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("sfcd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&so.addr, "addr", ":7421", "TCP listen address")
	fs.StringVar(&so.metricsAddr, "metrics-addr", "", "HTTP listen address for Prometheus /metrics (empty = disabled)")
	fs.IntVar(&so.maxConns, "max-conns", 0, "max concurrently open client connections (0 = unlimited); excess dials get a clean conn_limit error frame")
	fs.DurationVar(&so.readTimeout, "read-timeout", 0, "per-request read timeout; idle/stalled connections past it are reaped (0 = none)")
	fs.StringVar(&so.dataDir, "data-dir", "", "directory for durable subscription state: WAL + snapshots; recovery runs at boot (empty = in-memory only)")
	fs.DurationVar(&so.snapshotInterval, "snapshot-interval", 0, "period between automatic snapshots compacting the WAL (0 = only on shutdown; needs -data-dir)")
	fs.BoolVar(&so.walSync, "wal-sync", false, "fsync the WAL after every append (bounds loss on power failure at a throughput cost; needs -data-dir)")
	fs.DurationVar(&so.walSyncInterval, "wal-sync-interval", 0, "group commit: fsync the WAL at this interval instead of per append, coalescing concurrent appends into one sync (needs -data-dir; exclusive with -wal-sync)")
	fs.StringVar(&so.follow, "follow", "", "primary daemon address to replicate from; the daemon boots as a read-only follower until promoted via SIGUSR1 or the promote op (needs -data-dir)")
	fs.StringVar(&so.logLevel, "log-level", "info", "daemon log threshold: debug, info, warn or error")
	fs.DurationVar(&so.slowQuery, "slow-query", 0, "queries at least this slow enter the slow-query log (0 = default 10ms, negative = log every traced query)")
	fs.IntVar(&so.slowLogSize, "slow-log-size", 0, "slow-query ring capacity (0 = default 128)")
	fs.StringVar(&o.attrs, "attrs", "volume,price", "comma-separated attribute names")
	fs.IntVar(&o.bits, "bits", 10, "per-attribute resolution in bits (1..16)")
	fs.StringVar(&o.mode, "mode", "approx", "detection mode: off, exact or approx")
	fs.Float64Var(&o.epsilon, "epsilon", 0.3, "approximation parameter (0 < eps < 1, approx mode)")
	fs.StringVar(&o.strategy, "strategy", "sfc", "search backend: sfc, or linear (exact-mode store scan)")
	fs.IntVar(&o.maxCubes, "maxcubes", daemonMaxCubes, "per-query budget: successor-walk steps, then cubes (-1 = unlimited)")
	return fs
}

// run is main minus the process: flags parse from args, diagnostics go to
// stderr, and the exit code is returned instead of os.Exit'd, so tests
// can drive every flag-validation path. Exit code 2 marks a usage error,
// 1 a runtime failure.
func run(args []string, stderr io.Writer) int {
	var so serveOptions
	var o options
	fs := newFlagSet(&so, &o, stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if err := validateServeOptions(so); err != nil {
		fmt.Fprintf(stderr, "sfcd: %v\n", err)
		return 2
	}
	level, _ := obs.ParseLevel(so.logLevel) // validated above
	lg := obs.NewLogger(stderr, level)
	cfg, err := buildConfig(o)
	if err != nil {
		fmt.Fprintf(stderr, "sfcd: %v\n", err)
		return 2
	}
	cfg.Obs = obs.New(obs.Config{
		SlowThreshold: so.slowQuery,
		SlowLogSize:   so.slowLogSize,
	})
	eng, err := engine.New(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "sfcd: %v\n", err)
		return 2
	}
	defer eng.Close()

	scfg := sfcd.ServerConfig{MaxConns: so.maxConns, ReadTimeout: so.readTimeout}
	var srv *sfcd.Server
	var store *persist.Store
	if so.dataDir != "" {
		store, err = persist.Open(so.dataDir, cfg.Detector.Schema, persist.Options{Sync: so.walSync, SyncEvery: so.walSyncInterval})
		if err != nil {
			fmt.Fprintf(stderr, "sfcd: %v\n", err)
			return 1
		}
		defer store.Close()
		if so.follow != "" {
			srv, err = sfcd.NewFollowerServer(eng, store, scfg, so.follow)
		} else {
			srv, err = sfcd.NewPersistentServer(eng, store, scfg)
		}
		if err != nil {
			fmt.Fprintf(stderr, "sfcd: %v\n", err)
			return 1
		}
		ss := store.Stats()
		lg.Info("recovered durable state", "entries", ss.Entries, "links", ss.Links, "dir", so.dataDir, "role", srv.Role())
	} else {
		srv = sfcd.NewServerWith(eng, scfg)
	}
	bound, err := srv.Listen(so.addr)
	if err != nil {
		// The server's errors already carry the "sfcd:" prefix.
		fmt.Fprintln(stderr, err)
		return 1
	}
	lg.Info("serving", "addr", bound.String(), "bits", o.bits, "attrs", o.attrs,
		"shards", eng.NumShards(), "partition", string(eng.PartitionStrategy()), "mode", eng.Mode().String(),
		"role", srv.Role())

	if so.metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", metricsHandler(srv))
		registerPprof(mux)
		go func() {
			lg.Info("metrics listener up", "metrics", "http://"+so.metricsAddr+"/metrics", "pprof", "http://"+so.metricsAddr+"/debug/pprof/")
			if err := http.ListenAndServe(so.metricsAddr, mux); err != nil {
				lg.Error("metrics server failed", "err", err)
			}
		}()
	}

	stopSnapshots := make(chan struct{})
	if store != nil && so.snapshotInterval > 0 {
		go func() {
			ticker := time.NewTicker(so.snapshotInterval)
			defer ticker.Stop()
			for {
				select {
				case <-stopSnapshots:
					return
				case <-ticker.C:
					if err := store.Snapshot(); err != nil {
						lg.Warn("periodic snapshot failed", "err", err)
					} else {
						lg.Debug("periodic snapshot taken")
					}
				}
			}
		}()
	}

	// SIGUSR1 promotes a follower to primary in place: the operator (or an
	// external failover manager) signals the daemon once the old primary is
	// confirmed dead. Idempotent — and harmless — on a primary.
	promote := make(chan os.Signal, 1)
	signal.Notify(promote, syscall.SIGUSR1)
	go func() {
		for range promote {
			if err := srv.Promote(); err != nil {
				lg.Error("promotion failed", "err", err)
				continue
			}
			lg.Info("serving as primary", "addr", bound.String())
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	lg.Info("shutting down")
	close(stopSnapshots)
	srv.Close()
	if store != nil {
		// A final snapshot makes the next boot a pure snapshot load
		// instead of a WAL replay.
		if err := store.Snapshot(); err != nil {
			lg.Error("shutdown snapshot failed", "err", err)
		}
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}
