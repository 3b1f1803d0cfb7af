// Command 3golpermitd is the operator-side permit backend of the
// network-integrated deployment (§2.4): devices ask it for permission to
// onload, and it grants a time-limited permit only while the device's
// serving cell sits below the utilisation acceptance threshold.
//
// The daemon hosts a cell-sharded permit plane (-shards N): each shard
// owns a stable-hash slice of the cell ID space with its own metrics
// registry and grant store, and the built-in router serves both the
// classic GET /permit and the batch POST /permits/batch. /debug/metrics
// is the shard-merged dump (byte-identical regardless of shard count);
// /debug/shards shows the per-shard split.
//
// The production interface to the 3G monitoring system is a utilisation
// feed; this daemon accepts one on stdin as "cellID utilisation" lines
// (or runs with a static default), so an operator can pipe their
// monitoring export straight in:
//
//	monitoring-export | 3golpermitd -listen :7300 -threshold 0.7 -ttl 3m
//
// With -deny-unknown the plane fails closed: cells absent from the feed
// report utilisation 1.0 and are never granted, so a monitoring gap
// cannot silently become a grant-everything policy.
//
// With -wal <dir> the plane is durable: every grant-state change is
// appended to a per-shard, checksummed write-ahead log (with periodic
// snapshot compaction) before the decision is served, so a crashed
// daemon replays back to exactly the grant state it died with — modulo
// the TTL expiries that genuinely lapsed while it was down. Recovery
// stats appear per shard on /debug/shards.
//
// Devices (3gold -backend http://host:7300 -cell <id>) then gate their
// proxies and beacons on the permit endpoints. On SIGINT/SIGTERM the
// daemon stops accepting connections, drains in-flight requests for up
// to -drain, and flushes a final snapshot (even when the drain times
// out) before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"threegol/internal/obs/eventlog"
	"threegol/internal/permit"
	"threegol/internal/permitplane"
)

// eventRingSize bounds the backend's in-memory flight recorder; the
// /debug/events endpoint serves the most recent events.
const eventRingSize = 4096

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:7300", "listen address")
		shards      = flag.Int("shards", 1, "permit-plane shards (each owns a stable-hash slice of the cell ID space)")
		threshold   = flag.Float64("threshold", permit.DefaultThreshold, "utilisation acceptance threshold")
		ttl         = flag.Duration("ttl", permit.DefaultTTL, "permit lifetime")
		fallback    = flag.Float64("default-util", 0, "utilisation assumed for cells with no feed data")
		denyUnknown = flag.Bool("deny-unknown", false, "fail closed: deny cells absent from the feed instead of assuming -default-util")
		feed        = flag.Bool("stdin-feed", false, "read 'cellID utilisation' lines from stdin")
		drain       = flag.Duration("drain", 5*time.Second, "in-flight request drain timeout on shutdown")
		pprofOn     = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		walDir      = flag.String("wal", "", "durability root: per-shard write-ahead logs under this directory (empty = grant state dies with the process)")
		snapEvery   = flag.Int("snapshot-every", permitplane.DefaultSnapshotEvery, "WAL records per shard between snapshot compactions")
	)
	flag.Parse()

	table := permitplane.NewUtilTable(*fallback, *denyUnknown)
	// Seed per process so span IDs from multiple daemons never collide
	// when their logs are stitched together.
	events := eventlog.NewRing(0, int64(os.Getpid()), eventlog.SinceStart(nil), eventRingSize)
	cfg := permitplane.Config{
		Shards:        *shards,
		Threshold:     *threshold,
		TTL:           *ttl,
		Utilization:   table.Get,
		Events:        events,
		WALDir:        *walDir,
		SnapshotEvery: *snapEvery,
	}
	var plane *permitplane.Sharded
	if *walDir != "" {
		t0 := time.Now() //3golvet:allow wallclock — reporting real recovery wall time
		var err error
		plane, err = permitplane.NewDurable(cfg)
		if err != nil {
			log.Fatalf("3golpermitd: %v", err)
		}
		var recovered, expired int
		for _, st := range plane.Status() {
			if st.Recovery != nil {
				recovered += st.Recovery.RecoveredGrants
				expired += st.Recovery.ExpiredOnRecovery
			}
		}
		log.Printf("3golpermitd: recovered %d grants from %s in %v (%d expired during outage)",
			recovered, *walDir, time.Since(t0).Round(time.Millisecond), expired) //3golvet:allow wallclock — reporting real recovery wall time
	} else {
		plane = permitplane.New(cfg)
	}

	if *feed {
		// Process-lifetime reader: it dies with stdin at daemon exit and
		// has nothing to join. Unlike the old silent loop, malformed
		// lines and read failures land in the log.
		go func() { //3golvet:allow goroleak — intentional process-lifetime stdin feed
			if err := permitplane.ReadFeed(os.Stdin, table, log.Printf); err != nil {
				log.Printf("3golpermitd: %v (feed updates stopped; serving last-known utilisation)", err)
			}
		}()
	}

	// Periodic stats line so operators can watch grant/deny rates.
	go func() {
		for range time.Tick(30 * time.Second) {
			g, d := plane.Stats()
			log.Printf("3golpermitd: %d grants, %d denials", g, d)
		}
	}()

	mux := http.NewServeMux()
	mux.Handle("/permit", plane)
	mux.Handle("/permits/batch", plane)
	mux.Handle("/debug/metrics", plane.MetricsHandler())
	mux.Handle("/debug/shards", plane.StatusHandler())
	mux.Handle("/debug/events", eventlog.Handler(events))
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := &http.Server{Addr: *listen, Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("3golpermitd: serving /permit, /permits/batch and /debug/metrics on %s (%d shards, threshold %.2f, ttl %v)",
		*listen, plane.Shards(), *threshold, *ttl)

	select {
	case err := <-errc:
		log.Fatalf("3golpermitd: %v", err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("3golpermitd: shutting down, draining in-flight requests (up to %v)", *drain)
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Printf("3golpermitd: drain incomplete, closing: %v", err)
		_ = srv.Close()
	}
	// Flush the final snapshot on BOTH shutdown paths: a timed-out drain
	// still closed every listener, and losing the last snapshot because
	// one request overstayed the drain window would make the slow path
	// also the lossy one.
	if err := plane.Close(); err != nil {
		log.Printf("3golpermitd: closing grant stores: %v", err)
	} else if plane.Durable() {
		log.Printf("3golpermitd: final grant snapshot flushed to %s", *walDir)
	}
	g, d := plane.Stats()
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("3golpermitd: server: %v", err)
	}
	log.Printf("3golpermitd: stopped (%d grants, %d denials served)", g, d)
}
