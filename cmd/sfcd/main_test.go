package main

import (
	"context"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"sfccover/internal/core"
	"sfccover/internal/engine"
	"sfccover/internal/persist"
	"sfccover/internal/sfcd"
	"sfccover/internal/subscription"
)

func defaultOptions() options {
	return options{
		attrs: "volume,price", bits: 10, mode: "approx", epsilon: 0.3,
		strategy: "sfc",
	}
}

func TestBuildConfig(t *testing.T) {
	cfg, err := buildConfig(defaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Detector.Schema.NumAttrs() != 2 || cfg.Detector.Schema.Bits() != 10 {
		t.Errorf("schema = %d attrs, %d bits", cfg.Detector.Schema.NumAttrs(), cfg.Detector.Schema.Bits())
	}
	if cfg.Detector.Mode != core.ModeApprox {
		t.Errorf("mode = %v", cfg.Detector.Mode)
	}
	e, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
}

func TestBuildConfigSpacesAndModes(t *testing.T) {
	o := defaultOptions()
	o.attrs = " stock , volume ,price"
	o.mode = "exact"
	o.strategy = "linear"
	cfg, err := buildConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	attrs := cfg.Detector.Schema.Attrs()
	if len(attrs) != 3 || attrs[0] != "stock" || attrs[2] != "price" {
		t.Errorf("attrs = %v", attrs)
	}
	if cfg.Detector.Mode != core.ModeExact {
		t.Errorf("mode = %v", cfg.Detector.Mode)
	}
	o.mode = "off"
	if cfg, err = buildConfig(o); err != nil || cfg.Detector.Mode != core.ModeOff {
		t.Errorf("mode off: cfg=%v err=%v", cfg.Detector.Mode, err)
	}
}

func TestBuildConfigRejectsBadInput(t *testing.T) {
	cases := []func(*options){
		func(o *options) { o.attrs = "" },
		func(o *options) { o.bits = 99 },
		func(o *options) { o.mode = "psychic" },
	}
	for i, mutate := range cases {
		o := defaultOptions()
		mutate(&o)
		if _, err := buildConfig(o); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestMetricsHandler scrapes the HTTP endpoint the -metrics-addr flag
// mounts and checks the exposition content type and payload.
func TestMetricsHandler(t *testing.T) {
	cfg, err := buildConfig(defaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Insert(subscription.MustParse(cfg.Detector.Schema, "volume in [1,5]")); err != nil {
		t.Fatal(err)
	}
	srv := sfcd.NewServer(eng)

	ts := httptest.NewServer(metricsHandler(srv))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "sfcd_subscriptions 1\n") {
		t.Fatalf("exposition missing subscription gauge:\n%s", body)
	}
	// The same page carries the daemon's latency histograms: the insert
	// above went through the engine's instrumented single-op path.
	if !strings.Contains(string(body), `sfcd_op_latency_seconds_count{op="engine_insert"}`) {
		t.Fatalf("exposition missing op latency histograms:\n%s", body)
	}
}

// TestPprofEndpoint checks the profiling handlers mount on the metrics
// mux (and only there).
func TestPprofEndpoint(t *testing.T) {
	mux := http.NewServeMux()
	registerPprof(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/ = %d, want 200", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index lacks profile listing:\n%.400s", body)
	}
}

// TestValidateServeOptionsObservability covers the new telemetry flags.
func TestValidateServeOptionsObservability(t *testing.T) {
	base := serveOptions{logLevel: "info"}
	if err := validateServeOptions(base); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	bad := base
	bad.logLevel = "loud"
	if err := validateServeOptions(bad); err == nil {
		t.Fatal("bogus -log-level accepted")
	}
	bad = base
	bad.slowLogSize = -1
	if err := validateServeOptions(bad); err == nil {
		t.Fatal("negative -slow-log-size accepted")
	}
	neg := base
	neg.slowQuery = -1 // log every traced query: explicitly allowed
	if err := validateServeOptions(neg); err != nil {
		t.Fatalf("negative -slow-query rejected: %v", err)
	}
}

// TestDaemonRoundTrip builds the engine+server exactly as main does —
// hardening flags included — and drives it through the client.
func TestDaemonRoundTrip(t *testing.T) {
	cfg, err := buildConfig(defaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := sfcd.NewServerWith(eng, sfcd.ServerConfig{
		MaxConns:    16,
		ReadTimeout: time.Minute,
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx := context.Background()
	schema := subscription.MustSchema(10, "volume", "price")
	c, err := sfcd.Dial(addr.String(), schema)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sid, _, _, err := c.Subscribe(ctx, subscription.MustParse(schema, "volume in [0,1000] && price in [0,1000]"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Unsubscribe(ctx, sid); err != nil {
		t.Fatal(err)
	}
}

// TestRunRejectsBadFlagCombinations is the exit-code battery for flag
// validation: every nonsensical combination must exit 2 (usage error)
// with a diagnosis on stderr, before any socket or data dir is touched.
func TestRunRejectsBadFlagCombinations(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"snapshot-interval-without-data-dir", []string{"-snapshot-interval", "5m"}},
		{"wal-sync-without-data-dir", []string{"-wal-sync"}},
		{"negative-max-conns", []string{"-max-conns", "-1"}},
		{"negative-read-timeout", []string{"-read-timeout", "-2s"}},
		{"negative-snapshot-interval", []string{"-data-dir", t.TempDir(), "-snapshot-interval", "-1s"}},
		{"bad-bits", []string{"-bits", "99"}},
		{"bad-mode", []string{"-mode", "psychic"}},
		{"bad-epsilon", []string{"-epsilon", "1.5"}},
		{"unknown-flag", []string{"-no-such-flag"}},
		{"retired-partition-flag", []string{"-partition", "hash"}},
		{"kdtree-strategy", []string{"-mode", "exact", "-strategy", "kdtree"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stderr strings.Builder
			if code := run(tc.args, &stderr); code != 2 {
				t.Fatalf("run(%v) = exit %d, want 2; stderr:\n%s", tc.args, code, stderr.String())
			}
			if stderr.Len() == 0 {
				t.Fatal("usage error must explain itself on stderr")
			}
		})
	}
}

// TestFlagSurface pins the daemon's registered flag names against a golden
// list: a knob cannot be added or retired without editing this slice, so
// the option surface shows up in review as a diff of its own.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"addr", "attrs", "bits", "data-dir",
		"epsilon", "follow", "log-level", "max-conns",
		"maxcubes", "metrics-addr", "mode", "read-timeout",
		"slow-log-size", "slow-query", "snapshot-interval", "strategy",
		"wal-sync", "wal-sync-interval",
	}
	var got []string
	newFlagSet(new(serveOptions), new(options), io.Discard).VisitAll(func(f *flag.Flag) {
		got = append(got, f.Name) // VisitAll walks in lexical order
	})
	if !slices.Equal(got, want) {
		t.Fatalf("flag surface changed (%d flags, golden has %d):\n got %q\nwant %q", len(got), len(want), got, want)
	}
}

// TestRunListenFailureExitsOne pins the runtime-failure exit code: a
// valid configuration that cannot bind its address is 1, not 2.
func TestRunListenFailureExitsOne(t *testing.T) {
	var stderr strings.Builder
	if code := run([]string{"-addr", "256.256.256.256:1"}, &stderr); code != 1 {
		t.Fatalf("run with an unbindable address = exit %d, want 1; stderr:\n%s", code, stderr.String())
	}
}

// TestPersistentServerRoundTrip builds the persistent daemon exactly as
// run does — store, recovery, final-snapshot shutdown — and verifies a
// subscription survives a full stop/start cycle.
func TestPersistentServerRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	schema := subscription.MustSchema(10, "volume", "price")
	sub := subscription.MustParse(schema, "volume in [0,1000] && price in [0,1000]")

	boot := func() (*engine.Engine, *persist.Store, *sfcd.Server, *sfcd.Client) {
		cfg, err := buildConfig(defaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		eng, err := engine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		store, err := persist.Open(dir, cfg.Detector.Schema, persist.Options{})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := sfcd.NewPersistentServer(eng, store, sfcd.ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c, err := sfcd.Dial(addr.String(), schema)
		if err != nil {
			t.Fatal(err)
		}
		return eng, store, srv, c
	}

	eng, store, srv, c := boot()
	sid, _, _, err := c.Subscribe(ctx, sub)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Snapshot(ctx); err != nil {
		t.Fatal(err)
	}
	c.Close()
	srv.Close()
	eng.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	eng, store, srv, c = boot()
	defer func() {
		c.Close()
		srv.Close()
		eng.Close()
		store.Close()
	}()
	got, err := c.Subscription(ctx, sid)
	if err != nil || !got.Equal(sub) {
		t.Fatalf("recovered Subscription(%d) = (%v, %v), want the pre-restart subscription", sid, got, err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Subscriptions != 1 {
		t.Fatalf("recovered daemon holds %d subscriptions, want 1", st.Subscriptions)
	}
}
