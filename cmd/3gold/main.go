// Command 3gold is the 3GOL device daemon — the component that runs on a
// 3G-connected phone (§4.1). It serves an HTTP proxy that pipes requests
// from the home LAN out through the cellular interface, advertises itself
// to the client's discovery endpoint while it is allowed to onload, and
// enforces either a permit (network-integrated mode, -backend) or a daily
// quota (multi-provider mode, -quota-mb).
//
// Example (multi-provider, 20 MB/day):
//
//	3gold -name kitchen-phone -listen 127.0.0.1:8081 \
//	      -discovery 127.0.0.1:5353 -quota-mb 20
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"

	"threegol/internal/discovery"
	"threegol/internal/obs"
	"threegol/internal/obs/eventlog"
	"threegol/internal/permitplane"
	"threegol/internal/proxy"
	"threegol/internal/quota"
)

// eventRingSize bounds the daemon's in-memory flight recorder; the
// /debug/events endpoint serves the most recent events.
const eventRingSize = 4096

func main() {
	var (
		name      = flag.String("name", hostnameDefault(), "device name advertised on the LAN")
		listen    = flag.String("listen", "127.0.0.1:0", "proxy listen address")
		disco     = flag.String("discovery", "", "client discovery UDP endpoint (host:port); empty disables advertising")
		quotaMB   = flag.Int64("quota-mb", 0, "daily 3GOL allowance in MB (multi-provider mode); 0 = unlimited")
		backend   = flag.String("backend", "", "permit backend base URL (network-integrated mode)")
		cell      = flag.String("cell", "", "serving cell id reported to the permit backend")
		failOpen  = flag.Bool("permit-fail-open", false, "keep honouring the last permit for -permit-grace when the backend is unreachable (default: fail closed, stop onloading)")
		grace     = flag.Duration("permit-grace", permitplane.DefaultGrace, "how long past its expiry a stale permit is honoured while fail-open and degraded")
		iface3g   = flag.String("bind-3g", "", "local address of the cellular interface to dial from (optional)")
		pprofOn   = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the proxy's debug mux")
		verbosity = flag.Bool("v", false, "verbose logging")
	)
	flag.Parse()

	reg := obs.NewRegistry()
	// Seed per process so span IDs from two daemons never collide when
	// their logs are stitched together.
	events := eventlog.NewRing(0, int64(os.Getpid()), eventlog.SinceStart(nil), eventRingSize)
	srv := &proxy.Server{Dial: dialer(*iface3g), Metrics: proxy.NewMetrics(reg), Events: events}
	if *verbosity {
		srv.Logf = log.Printf
	}
	debugMux := http.NewServeMux()
	debugMux.Handle("/debug/metrics", obs.Handler(reg))
	debugMux.Handle("/debug/events", eventlog.Handler(events))
	if *pprofOn {
		debugMux.HandleFunc("/debug/pprof/", pprof.Index)
		debugMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		debugMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		debugMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		debugMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	srv.Debug = debugMux

	var tracker *quota.Tracker
	if *quotaMB > 0 {
		tracker = quota.NewTracker(*quotaMB << 20)
		srv.OnBytes = tracker.Use
	}
	// Network-integrated mode: the device-side permit cache refreshes
	// through the batch RPC at a TTL-jittered point before expiry, so a
	// whole fleet granted together never stampedes the backend together.
	// The jitter seed is per-process; the cache also mixes in the device
	// name.
	// When the backend becomes unreachable the cache trips a circuit
	// breaker and goes degraded: fail-closed by default (no permit, no
	// onloading — traffic falls back to ADSL), or with -permit-fail-open
	// it honours the last granted permit for up to -permit-grace past
	// its expiry while probing for the backend's return.
	var permits *permitplane.Cache
	if *backend != "" {
		permits = &permitplane.Cache{
			Fetch:    (&permitplane.BatchClient{BackendURL: *backend}).Fetch,
			Device:   *name,
			Cell:     *cell,
			Seed:     int64(os.Getpid()),
			Metrics:  permitplane.NewMetrics(reg),
			Events:   events,
			FailOpen: *failOpen,
			Grace:    *grace,
		}
	}
	srv.Admit = func(ctx context.Context) bool {
		if permits != nil && !permits.Allowed(ctx) {
			return false
		}
		if tracker != nil && !tracker.ShouldAdvertise() {
			return false
		}
		return true
	}

	addr, shutdown, err := srv.ListenAndServe(context.Background(), *listen)
	if err != nil {
		log.Fatalf("3gold: starting proxy: %v", err)
	}
	defer shutdown()
	log.Printf("3gold: %s proxying on %s (metrics at http://%s/debug/metrics)", *name, addr, addr)

	if *disco != "" {
		beacon := &discovery.Beacon{
			Target: *disco,
			Announce: func() (discovery.Announcement, bool) {
				if !srv.Admit(context.Background()) {
					return discovery.Announcement{}, false
				}
				ann := discovery.Announcement{Name: *name, ProxyAddr: addr, Cell: *cell}
				if tracker != nil {
					ann.AllowanceBytes = tracker.Available()
				}
				return ann, true
			},
		}
		if err := beacon.Start(); err != nil {
			log.Fatalf("3gold: starting beacon: %v", err)
		}
		defer beacon.Stop()
		log.Printf("3gold: advertising to %s", *disco)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("3gold: %d bytes onloaded this session", srv.BytesTotal())
}

// dialer binds outgoing connections to the cellular interface address
// when one is given — the daemon's equivalent of routing via rmnet0.
func dialer(bind string) proxy.Dialer {
	d := &net.Dialer{}
	if bind != "" {
		d.LocalAddr = &net.TCPAddr{IP: net.ParseIP(bind)}
	}
	return d
}

func hostnameDefault() string {
	if h, err := os.Hostname(); err == nil {
		return fmt.Sprintf("3gol-%s", h)
	}
	return "3gol-device"
}
