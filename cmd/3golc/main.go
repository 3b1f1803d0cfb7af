// Command 3golc is the 3GOL client component — it runs on the machine to
// be augmented (§4.1). It discovers 3GOL devices on the LAN, builds the
// admissible set Φ, and either:
//
//	vod     starts the HLS-aware accelerating proxy and (optionally)
//	        plays a video through it, reporting startup latency;
//	upload  uploads a set of files to a server as multipart POSTs over
//	        all paths in parallel, with core.Upload (the uploader the
//	        experiments measure: largest files first, the last ones in
//	        pieces once the server accepts ranges).
//
// Examples:
//
//	3golc vod -origin http://videos.example.com -path /clip/master.m3u8 \
//	      -discovery 127.0.0.1:5353 -quality q3 -prebuffer 0.2
//	3golc upload -target http://photos.example.com/upload -discovery \
//	      127.0.0.1:5353 photo1.jpg photo2.jpg
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"time"

	"threegol/internal/core"
	"threegol/internal/discovery"
	"threegol/internal/hls"
	"threegol/internal/permitplane"
	"threegol/internal/scheduler"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: 3golc <vod|upload> [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "vod":
		err = runVoD(os.Args[2:])
	case "upload":
		err = runUpload(os.Args[2:])
	default:
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		log.Fatalf("3golc: %v", err)
	}
}

// discoverRoutes listens for device announcements and returns one HTTP
// route per admissible device.
func discoverRoutes(listenAddr string, want int, wait time.Duration) ([]core.Route, func(), error) {
	br := &discovery.Browser{}
	addr, err := br.Listen(listenAddr)
	if err != nil {
		return nil, nil, err
	}
	log.Printf("3golc: browsing for devices on %s", addr)
	anns := br.WaitFor(want, wait)
	routes := make([]core.Route, 0, len(anns))
	for _, ann := range anns {
		proxyURL := &url.URL{Scheme: "http", Host: ann.ProxyAddr}
		routes = append(routes, core.Route{
			Name: ann.Name,
			Cell: ann.Cell,
			Client: &http.Client{Transport: &http.Transport{
				Proxy: http.ProxyURL(proxyURL),
			}},
		})
		log.Printf("3golc: admissible device %s via %s (allowance %d bytes)",
			ann.Name, ann.ProxyAddr, ann.AllowanceBytes)
	}
	return routes, br.Close, nil
}

func parseAlgo(s string) (scheduler.Algo, error) {
	switch s {
	case "grd", "greedy":
		return scheduler.Greedy, nil
	case "rr", "roundrobin":
		return scheduler.RoundRobin, nil
	case "min", "mintime":
		return scheduler.MinTime, nil
	default:
		return 0, fmt.Errorf("unknown scheduler %q (want grd, rr or min)", s)
	}
}

func runVoD(args []string) error {
	fs := flag.NewFlagSet("vod", flag.ExitOnError)
	origin := fs.String("origin", "", "origin server base URL (required)")
	path := fs.String("path", "", "master playlist path, e.g. /clip/master.m3u8")
	quality := fs.String("quality", "", "variant to play (empty = lowest bandwidth)")
	prebuffer := fs.Float64("prebuffer", 0.2, "pre-buffer fraction of video duration")
	disco := fs.String("discovery", "127.0.0.1:0", "UDP address to receive device announcements on")
	devices := fs.Int("devices", 2, "number of devices to wait for")
	wait := fs.Duration("wait", 2*time.Second, "discovery wait timeout")
	algoName := fs.String("algo", "grd", "multipath scheduler: grd, rr or min")
	serveOnly := fs.Bool("serve", false, "serve the accelerating proxy without playing")
	listen := fs.String("listen", "127.0.0.1:0", "accelerating proxy listen address")
	fs.Parse(args)
	if *origin == "" {
		return fmt.Errorf("vod: -origin is required")
	}
	algo, err := parseAlgo(*algoName)
	if err != nil {
		return err
	}

	routes, closeBrowser, err := discoverRoutes(*disco, *devices, *wait)
	if err != nil {
		return err
	}
	defer closeBrowser()

	handler, err := core.NewVoDProxy(http.DefaultClient, routes, *origin, algo, scheduler.Options{})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln) //3golvet:allow goroleak — bounded by the deferred srv.Close, which makes Serve return
	defer srv.Close()
	log.Printf("3golc: accelerating proxy on http://%s (origin %s, %d devices, %s scheduler)",
		ln.Addr(), *origin, len(routes), algo)

	if *serveOnly {
		select {} // serve until killed
	}
	if *path == "" {
		return fmt.Errorf("vod: -path is required unless -serve is set")
	}
	player := &hls.Player{Client: &http.Client{}, PrebufferFrac: *prebuffer}
	res, err := player.Play(context.Background(), "http://"+ln.Addr().String()+*path, *quality)
	if err != nil {
		return err
	}
	fmt.Printf("startup latency: %v\n", res.PrebufferTime.Round(time.Millisecond))
	fmt.Printf("total download:  %v (%d segments, %d bytes)\n",
		res.TotalTime.Round(time.Millisecond), res.Segments, res.Bytes)
	return nil
}

func runUpload(args []string) error {
	fs := flag.NewFlagSet("upload", flag.ExitOnError)
	target := fs.String("target", "", "upload endpoint URL (required)")
	disco := fs.String("discovery", "127.0.0.1:0", "UDP address to receive device announcements on")
	devices := fs.Int("devices", 2, "number of devices to wait for")
	wait := fs.Duration("wait", 2*time.Second, "discovery wait timeout")
	algoName := fs.String("algo", "grd", "multipath scheduler: grd, rr or min")
	permitBackend := fs.String("permit-backend", "", "permit backend base URL; gates each device path on its announced serving cell")
	permitFailOpen := fs.Bool("permit-fail-open", false, "honour stale permits for -permit-grace when the permit backend is unreachable (default: fail closed onto ADSL)")
	permitGrace := fs.Duration("permit-grace", permitplane.DefaultGrace, "stale-permit grace window while fail-open and degraded")
	fs.Parse(args)
	if *target == "" {
		return fmt.Errorf("upload: -target is required")
	}
	files := fs.Args()
	if len(files) == 0 {
		return fmt.Errorf("upload: no files given")
	}
	algo, err := parseAlgo(*algoName)
	if err != nil {
		return err
	}

	routes, closeBrowser, err := discoverRoutes(*disco, *devices, *wait)
	if err != nil {
		return err
	}
	defer closeBrowser()
	if *permitBackend != "" {
		gateRoutes(routes, *permitBackend, *permitFailOpen, *permitGrace)
	}

	items := make([]scheduler.Item, len(files))
	for i, f := range files {
		info, err := os.Stat(f)
		if err != nil {
			return fmt.Errorf("upload: %w", err)
		}
		items[i] = scheduler.Item{Name: f, Size: info.Size()}
	}
	source := func(item scheduler.Item) (io.ReadCloser, error) {
		return os.Open(item.Name)
	}
	rep, err := core.Upload(context.Background(), algo, http.DefaultClient, routes, *target, items, source)
	if err != nil {
		return err
	}
	fmt.Printf("uploaded %d files in %v over %d paths\n",
		len(files), rep.Elapsed.Round(time.Millisecond), 1+len(routes))
	for name, st := range rep.PerPath {
		fmt.Printf("  %-12s %3d files  %d bytes\n", name, st.Items, st.Bytes)
	}
	if rep.WastedBytes > 0 {
		fmt.Printf("  endgame duplication wasted %d bytes\n", rep.WastedBytes)
	}
	return nil
}

// gateRoutes puts a client-side permit gate (defence in depth alongside
// the device's own check) on the transport of every route that
// announced a serving cell: a denied or lapsed permit fails the request
// with permitplane.ErrNotPermitted, and the scheduler requeues the item
// onto the remaining paths. The ADSL path is never gated — permits
// govern cellular onloading only.
func gateRoutes(routes []core.Route, backend string, failOpen bool, grace time.Duration) {
	fetch := (&permitplane.BatchClient{BackendURL: backend}).Fetch
	for _, r := range routes {
		if r.Cell == "" {
			log.Printf("3golc: path %s announced no cell; relying on the device's own permit check", r.Name)
			continue
		}
		cache := &permitplane.Cache{
			Fetch: fetch, Device: r.Name, Cell: r.Cell,
			Seed:     int64(os.Getpid()),
			FailOpen: failOpen,
			Grace:    grace,
		}
		r.Client.Transport = permitplane.Gate(r.Client.Transport, cache.Allowed)
		log.Printf("3golc: gating path %s on permits for cell %s", r.Name, r.Cell)
	}
}
