// Command 3gold is the 3GOL device daemon — the component that runs on a
// 3G-connected phone (§4.1). It runs one core.Device, the device
// component the emulated home and the experiments run: an HTTP proxy that
// pipes requests from the home LAN out through the cellular interface,
// advertised to the client's discovery endpoint while it is allowed to
// onload, which needs a permit (network-integrated mode, -backend), quota
// left (multi-provider mode, -quota-mb), both, or neither.
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

	"threegol/internal/core"
	"threegol/internal/obs"
	"threegol/internal/obs/eventlog"
	"threegol/internal/permit"
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
	if err := checkIDs(*name, *cell); err != nil {
		fmt.Fprintln(os.Stderr, "3gold:", err)
		os.Exit(2)
	}

	reg := obs.NewRegistry()
	// Seed per process so span IDs from two daemons never collide when
	// their logs are stitched together.
	events := eventlog.NewRing(0, int64(os.Getpid()), eventlog.SinceStart(nil), eventRingSize)
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

	var tracker *quota.Tracker
	if *quotaMB > 0 {
		tracker = quota.NewTracker(*quotaMB << 20)
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
	var permit func(context.Context) bool
	if *backend != "" {
		permit = (&permitplane.Cache{
			Fetch:    (&permitplane.BatchClient{BackendURL: *backend}).Fetch,
			Device:   *name,
			Cell:     *cell,
			Seed:     int64(os.Getpid()),
			Metrics:  permitplane.NewMetrics(reg),
			Events:   events,
			FailOpen: *failOpen,
			Grace:    *grace,
		}).Allowed
	}

	dev := core.NewDevice(*name, *cell, dialer(*iface3g), tracker, permit)
	dev.Proxy.Metrics = proxy.NewMetrics(reg)
	dev.Proxy.Events = events
	if *verbosity {
		dev.Proxy.Logf = log.Printf
	}
	dev.Proxy.Debug = debugMux

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("3gold: starting proxy: %v", err)
	}
	if err := dev.Serve(context.Background(), ln, *disco, 0); err != nil {
		log.Fatalf("3gold: starting beacon: %v", err)
	}
	defer dev.Close()
	log.Printf("3gold: %s proxying on %s (metrics at http://%s/debug/metrics)", *name, ln.Addr(), ln.Addr())
	if *disco != "" {
		log.Printf("3gold: advertising to %s", *disco)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("3gold: %d bytes onloaded this session", dev.Proxy.BytesTotal())
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

// checkIDs names the flag whose ID fails permit.ValidID: every browser
// and the permit plane drop such a device, silently. An empty -cell is
// no cell.
func checkIDs(name, cell string) error {
	if !permit.ValidID(name) {
		return fmt.Errorf("-name %q is not 1-64 bytes of [0-9A-Za-z_.-/]", name)
	}
	if cell != "" && !permit.ValidID(cell) {
		return fmt.Errorf("-cell %q is not 1-64 bytes of [0-9A-Za-z_.-/]", cell)
	}
	return nil
}

func hostnameDefault() string {
	if h, err := os.Hostname(); err == nil {
		return fmt.Sprintf("3gol-%s", h)
	}
	return "3gol-device"
}
