package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strings"
	"time"

	"threegol/internal/hls"
	"threegol/internal/netem"
	"threegol/internal/obs"
	"threegol/internal/permit"
	"threegol/internal/permitplane"
	"threegol/internal/permitplane/wal"
	"threegol/internal/proxy"
	"threegol/internal/scheduler"
	"threegol/internal/transfer"
	"threegol/internal/upload"
)

// The per-layer microbenchmarks call one layer's exported API at a time,
// from outside, with inputs shaped like the workloads' (a q4 segment, a
// photo, a 512-request batch). Each is timed until it has made
// cfg.layerCalls calls and run for cfg.layerBudget, or for one second,
// whichever comes first.

// stopwatch accumulates the time a microbenchmark spends in the code it
// measures; pause and resume cut fixture work out of it.
type stopwatch struct {
	started time.Time
	elapsed time.Duration
}

func (s *stopwatch) resume() { s.started = now() }
func (s *stopwatch) pause()  { s.elapsed += since(s.started) }

// timed is one microbenchmark's outcome, per call.
type timed struct {
	ns, allocs, bytes float64
	calls             int
}

// timeCalls calls fn in growing batches until the sizing rule above is
// met. fn runs once untimed first, so connections are up and caches are
// filled.
func (cfg runConfig) timeCalls(fn func(sw *stopwatch)) timed {
	fn(&stopwatch{})
	var sw stopwatch
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	calls := 0
	for n := 1; sw.elapsed < time.Second && (calls < cfg.layerCalls || sw.elapsed < cfg.layerBudget); {
		sw.resume()
		for i := 0; i < n; i++ {
			fn(&sw)
		}
		sw.pause()
		calls += n
		if sw.elapsed < cfg.layerBudget/8 {
			n *= 2 // cheap calls: amortise the clock reads
		}
	}
	runtime.ReadMemStats(&m1)
	c := float64(calls)
	return timed{
		ns:     float64(sw.elapsed) / c,
		allocs: float64(m1.Mallocs-m0.Mallocs) / c,
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / c,
		calls:  calls,
	}
}

// sinkResponse is an http.ResponseWriter that counts and discards.
type sinkResponse struct {
	header http.Header
	status int
	n      int64
}

func newSink() *sinkResponse { return &sinkResponse{header: make(http.Header), status: http.StatusOK} }

func (s *sinkResponse) Header() http.Header { return s.header }
func (s *sinkResponse) WriteHeader(c int)   { s.status = c }
func (s *sinkResponse) Write(p []byte) (int, error) {
	s.n += int64(len(p))
	return len(p), nil
}

// instantPath is a scheduler.Path that moves an item in no time.
type instantPath string

func (p instantPath) Name() string { return string(p) }
func (p instantPath) Transfer(_ context.Context, it scheduler.Item) (int64, error) {
	return it.Size, nil
}

// blobServer writes size bytes to every connection it accepts and
// closes it: the far end of the netem measurements.
type blobServer struct {
	ln   net.Listener
	done chan struct{}
}

func serveBlob(size int) (*blobServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	b := &blobServer{ln: ln, done: make(chan struct{})}
	blob := make([]byte, size)
	go func() {
		defer close(b.done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			_, _ = c.Write(blob) // a reader that hangs up early is its own failure
			c.Close()
		}
	}()
	return b, nil
}

func (b *blobServer) close() {
	b.ln.Close()
	<-b.done
}

// drain dials the blob server, optionally shapes the connection, and
// reads it to the end; it returns the time from first to last byte.
func (b *blobServer) drain(pipe *netem.Pipe, want int) (time.Duration, error) {
	c, err := net.Dial("tcp", b.ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer c.Close()
	var r io.Reader = c
	if pipe != nil {
		r = netem.WrapConn(c, *pipe, 1)
	}
	// One read loop for both cases: io.Copy would pick a different path
	// for a bare TCP connection than for a wrapped one.
	buf := make([]byte, 16<<10)
	t0 := now()
	got := 0
	for {
		n, err := r.Read(buf)
		got += n
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
	}
	if got != want {
		return 0, fmt.Errorf("read %d of %d bytes", got, want)
	}
	return since(t0), nil
}

// fetch GETs a URL and discards the body, checking its length.
func fetch(ctx context.Context, c *http.Client, u string, want int64) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || n != want {
		return fmt.Errorf("GET %s: status %s, %d bytes, want %d", u, resp.Status, n, want)
	}
	return nil
}

// layerRun carries one pass over the microbenchmarks: where results go
// and the first error a measured call returned. A layer that fails on
// workload-shaped input has no cost to report, so that error fails the
// run once the table is done.
type layerRun struct {
	ctx    context.Context
	cfg    runConfig
	vs     values
	failed error
}

func (r *layerRun) must(e error) {
	if e != nil && r.failed == nil {
		r.failed = e
	}
}

// line records a metric with its call count and per-call allocations.
func (r *layerRun) line(name string, v float64, t timed) {
	r.vs.setNote(name, v, t.calls, fmt.Sprintf("%.0f allocs, %.0f B per call", t.allocs, t.bytes))
}

const mb = 1e6

// layerBenches times every layer in isolation and adds the results to vs.
func layerBenches(ctx context.Context, vs values, cfg runConfig) error {
	r := &layerRun{ctx: ctx, cfg: cfg, vs: vs}
	if err := r.dataPlane(); err != nil {
		return err
	}
	if err := r.permitPlane(); err != nil {
		return err
	}
	return r.failed
}

// dataPlane times core, hls, netem, proxy, transfer, upload and
// scheduler against a loopback origin, upload server and device proxy.
func (r *layerRun) dataPlane() (err error) {
	ctx, cfg, must, line := r.ctx, r.cfg, r.must, r.line

	// ---- fixtures -------------------------------------------------
	video := hls.BipBop()
	q, _ := video.QualityByName(vodQuality)
	hlsOrigin := hls.NewOrigin(video)
	segPath := "/bipbop/" + vodQuality + "/seg0000.ts"
	segBytes := int64(video.SegmentSize(q, 0))
	segMB := float64(segBytes) / mb
	small := bytes.Repeat([]byte{'x'}, 1024)
	mux := http.NewServeMux()
	mux.Handle("/bipbop/", hlsOrigin)
	mux.HandleFunc("/small", func(w http.ResponseWriter, _ *http.Request) { _, _ = w.Write(small) })
	origin, err := serveLoopback(mux)
	if err != nil {
		return err
	}
	defer origin.close()
	photo := photoSet(cfg.seed)[0]
	photoMB := float64(len(photo.Data)) / mb
	uploadSrv := &upload.Server{}
	uploadTarget, err := serveLoopback(uploadSrv)
	if err != nil {
		return err
	}
	defer uploadTarget.close()
	relay := &proxy.Server{Dial: &net.Dialer{}}
	relayAddr, stopRelay, err := relay.ListenAndServe(ctx, "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("starting proxy: %w", err)
	}
	defer func() {
		if e := stopRelay(); e != nil && err == nil {
			err = fmt.Errorf("stopping proxy: %w", e)
		}
	}()
	directTr := &http.Transport{}
	defer directTr.CloseIdleConnections()
	direct := &http.Client{Transport: directTr}
	viaTr := &http.Transport{Proxy: http.ProxyURL(&url.URL{Scheme: "http", Host: relayAddr})}
	defer viaTr.CloseIdleConnections()
	via := &http.Client{Transport: viaTr}

	// ---- core -----------------------------------------------------
	t := cfg.timeCalls(func(sw *stopwatch) {
		h, _, e := startHome(homeFor(true, 20, cfg.seed))
		sw.pause()
		must(e)
		if e == nil {
			h.Close()
		}
		sw.resume()
	})
	line("core.newhome_ms", t.ns/1e6, t)

	// ---- hls ------------------------------------------------------
	segReq, err := http.NewRequest(http.MethodGet, segPath, nil)
	if err != nil {
		return err
	}
	t = cfg.timeCalls(func(_ *stopwatch) {
		w := newSink()
		hlsOrigin.ServeHTTP(w, segReq)
		if w.n != segBytes {
			must(fmt.Errorf("origin wrote %d of %d bytes", w.n, segBytes))
		}
	})
	line("hls.origin_ms_per_MB", t.ns/1e6/segMB, t)

	player := &hls.Player{Client: direct}
	videoMB := float64(video.TotalBytes(q)) / mb
	t = cfg.timeCalls(func(_ *stopwatch) {
		res, e := player.Play(ctx, origin.url+vodMaster, vodQuality)
		must(e)
		if e == nil && res.Bytes != int64(video.TotalBytes(q)) {
			must(fmt.Errorf("player read %d bytes", res.Bytes))
		}
	})
	line("hls.player_ms_per_MB", t.ns/1e6/videoMB, t)

	playlist := hlsOrigin.MediaPlaylist(q).String()
	t = cfg.timeCalls(func(_ *stopwatch) {
		p, e := hls.Parse(strings.NewReader(playlist))
		must(e)
		if e == nil && len(p.Media.Segments) != video.NumSegments() {
			must(errors.New("playlist lost segments"))
		}
	})
	line("hls.parse_us", t.ns/1e3, t)

	// ---- netem ----------------------------------------------------
	limiter := netem.NewLimiter(1e15, 0)
	t = cfg.timeCalls(func(_ *stopwatch) {
		if limiter.Reserve(16*1024*8) != 0 {
			must(errors.New("non-binding limiter asked for a wait"))
		}
	})
	line("netem.reserve_ns", t.ns, t)

	overhead, paceErr, rounds, e := netemConn(cfg)
	must(e)
	r.vs.setNote("netem.conn_overhead_pct", overhead, rounds, "16 MB per round, shaped vs bare")
	r.vs.setNote("netem.pace_err_pct", paceErr, rounds, "2.5 MB per round at a binding 100 Mbit/s")

	// ---- proxy ----------------------------------------------------
	segURL := origin.url + segPath
	get := func(c *http.Client, u string, want int64) timed {
		return cfg.timeCalls(func(_ *stopwatch) {
			must(fetch(ctx, c, u, want))
		})
	}
	directSeg := get(direct, segURL, segBytes)
	viaSeg := get(via, segURL, segBytes)
	line("proxy.relay_ms_per_MB", (viaSeg.ns-directSeg.ns)/1e6/segMB, viaSeg)
	line("proxy.relay_alloc_KB_per_MB", (viaSeg.bytes-directSeg.bytes)/1e3/segMB, viaSeg)
	t = get(via, origin.url+"/small", int64(len(small)))
	line("proxy.req_us", t.ns/1e3, t)

	// ---- transfer -------------------------------------------------
	cache := transfer.NewCache()
	down := &transfer.DownloadPath{PathName: "bench", Client: direct, Sink: transfer.CachingSink(cache)}
	t = cfg.timeCalls(func(_ *stopwatch) {
		got, e := down.Transfer(ctx, scheduler.Item{Name: segURL, Size: segBytes})
		must(e)
		if e == nil && got != segBytes {
			must(fmt.Errorf("download moved %d of %d bytes", got, segBytes))
		}
	})
	line("transfer.download_ms_per_MB", t.ns/1e6/segMB, t)
	line("transfer.download_alloc_MB_per_MB", t.bytes/mb/segMB, t)

	up := &transfer.UploadPath{
		PathName: "bench", Client: direct, TargetURL: uploadTarget.url,
		Source: func(scheduler.Item) (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(photo.Data)), nil
		},
	}
	photoItem := scheduler.Item{Name: photo.Name, Size: int64(len(photo.Data))}
	t = cfg.timeCalls(func(_ *stopwatch) {
		got, e := up.Transfer(ctx, photoItem)
		must(e)
		if e == nil && got != photoItem.Size {
			must(fmt.Errorf("upload moved %d of %d bytes", got, photoItem.Size))
		}
	})
	line("transfer.upload_ms_per_MB", t.ns/1e6/photoMB, t)
	line("transfer.upload_alloc_KB_per_MB", t.bytes/1e3/photoMB, t)

	t = cfg.timeCalls(func(_ *stopwatch) {
		cache.Put("hit", small)
		if b, e := cache.Wait(ctx, "hit"); e != nil || len(b) != len(small) {
			must(errors.New("cache lost a stored body"))
		}
	})
	line("transfer.cache_wait_us", t.ns/1e3, t)

	// ---- upload ---------------------------------------------------
	var form bytes.Buffer
	mw := multipart.NewWriter(&form)
	part, err := mw.CreateFormFile("file", photo.Name)
	if err != nil {
		return err
	}
	if _, err := part.Write(photo.Data); err != nil {
		return err
	}
	if err := mw.Close(); err != nil {
		return err
	}
	ingest := &upload.Server{}
	t = cfg.timeCalls(func(_ *stopwatch) {
		req, e := http.NewRequest(http.MethodPost, "/", bytes.NewReader(form.Bytes()))
		must(e)
		if e != nil {
			return
		}
		req.Header.Set("Content-Type", mw.FormDataContentType())
		w := newSink()
		ingest.ServeHTTP(w, req)
		if w.status != http.StatusCreated {
			must(fmt.Errorf("upload server answered %d", w.status))
		}
	})
	line("upload.ingest_ms_per_MB", t.ns/1e6/photoMB, t)

	// ---- scheduler ------------------------------------------------
	items := make([]scheduler.Item, video.NumSegments())
	for i := range items {
		items[i] = scheduler.Item{ID: i, Name: fmt.Sprintf("seg%04d", i), Size: segBytes}
	}
	paths := []scheduler.Path{instantPath("adsl"), instantPath("ph1"), instantPath("ph2")}
	t = cfg.timeCalls(func(_ *stopwatch) {
		_, e := scheduler.Run(ctx, scheduler.Greedy, items, paths, scheduler.Options{})
		must(e)
	})
	line("scheduler.run_us_per_item", t.ns/1e3/float64(len(items)), t)

	return nil
}

// permitPlane times permit, permitplane and wal over the permit
// workload's own device cycle, with WAL directories beside its own.
func (r *layerRun) permitPlane() (err error) {
	ctx, cfg, must, line := r.ctx, r.cfg, r.must, r.line
	walRoot, err := walScratch(cfg, "layer-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walRoot)

	util := cellUtilization()
	backend := &permit.Backend{Utilization: util, TTL: permitTTL, Metrics: permit.NewMetrics(obs.NewRegistry())}
	t := cfg.timeCalls(func(_ *stopwatch) {
		if !backend.Decide(ctx, "cell-000").Granted {
			must(errors.New("an idle cell was denied"))
		}
	})
	line("permit.decide_ns", t.ns, t)

	t = cfg.timeCalls(func(_ *stopwatch) {
		if s := permitplane.ShardOf("cell-128", permitShards); s < 0 || s >= permitShards {
			must(errors.New("ShardOf left the shard range"))
		}
	})
	line("permitplane.shardof_ns", t.ns, t)

	batches, granted := permitBatches(0, cfg.seed)
	planeCfg := permitplane.Config{Shards: permitShards, TTL: permitTTL, Utilization: util}
	memPlane := permitplane.New(planeCfg)
	planeCfg.WALDir = walRoot + "/plane"
	durPlane, err := permitplane.NewDurable(planeCfg)
	if err != nil {
		return err
	}
	defer func() {
		if e := durPlane.Close(); e != nil && err == nil {
			err = e
		}
	}()
	decide := func(p *permitplane.Sharded) timed {
		at := 0
		return cfg.timeCalls(func(_ *stopwatch) {
			b, j := (at/permitBatch)%len(batches), at%permitBatch
			at++
			r := batches[b][j]
			if p.DecideDevice(ctx, r.Device, r.Cell).Granted != granted[b][j] {
				must(fmt.Errorf("%s in %s: wrong decision", r.Device, r.Cell))
			}
		})
	}
	t = decide(memPlane)
	line("permitplane.decide_us", t.ns/1e3, t)
	t = decide(durPlane)
	line("permitplane.decide_durable_us", t.ns/1e3, t)

	store, err := permitplane.OpenGrantStore(walRoot+"/store", nil, permitplane.NewMetrics(obs.NewRegistry()), 0)
	if err != nil {
		return err
	}
	record := func(grant bool) timed {
		at := 0
		return cfg.timeCalls(func(_ *stopwatch) {
			r := batches[(at/permitBatch)%len(batches)][at%permitBatch]
			at++
			if grant {
				store.RecordDecision(r.Device, "granted", true, permitTTL.Seconds())
			} else {
				store.RecordDecision(r.Device, "denied", false, 0)
			}
		})
	}
	t = record(true)
	line("permitplane.record_grant_us", t.ns/1e3, t)
	t = record(false)
	line("permitplane.record_deny_us", t.ns/1e3, t)
	if n := store.WALErrors(); n != 0 {
		must(fmt.Errorf("grant store: %d WAL write errors", n))
	}
	must(store.Close())

	bodies := make([][]byte, len(batches))
	for i, b := range batches {
		if bodies[i], err = json.Marshal(permitplane.BatchRequest{Requests: b}); err != nil {
			return err
		}
	}
	at := 0
	t = cfg.timeCalls(func(_ *stopwatch) {
		req, e := http.NewRequest(http.MethodPost, "/permits/batch", bytes.NewReader(bodies[at%len(bodies)]))
		at++
		must(e)
		if e != nil {
			return
		}
		w := newSink()
		durPlane.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			must(fmt.Errorf("batch answered %d", w.status))
		}
	})
	line("permitplane.serve_batch_ms", t.ns/1e6, t)
	line("permitplane.batch_alloc_KB", t.bytes/1e3, t)

	decisions := make([]permit.Response, permitBatch)
	for i := range decisions {
		decisions[i] = backend.Decide(ctx, batches[0][i].Cell)
	}
	respBody, err := json.Marshal(permitplane.BatchResponse{Decisions: decisions})
	if err != nil {
		return err
	}
	t = cfg.timeCalls(func(_ *stopwatch) {
		_, e1 := json.Marshal(permitplane.BatchRequest{Requests: batches[0]})
		_, e2 := json.Marshal(permitplane.BatchResponse{Decisions: decisions})
		must(e1)
		must(e2)
	})
	line("permitplane.batch_encode_us", t.ns/1e3, t)
	t = cfg.timeCalls(func(_ *stopwatch) {
		var req permitplane.BatchRequest
		var resp permitplane.BatchResponse
		must(json.Unmarshal(bodies[0], &req))
		must(json.Unmarshal(respBody, &resp))
	})
	line("permitplane.batch_decode_us", t.ns/1e3, t)

	singleReq, err := http.NewRequest(http.MethodGet, "/permit?device=dev-000000&cell=cell-000", nil)
	if err != nil {
		return err
	}
	t = cfg.timeCalls(func(_ *stopwatch) {
		w := newSink()
		durPlane.ServeHTTP(w, singleReq)
		if w.status != http.StatusOK {
			must(fmt.Errorf("single permit answered %d", w.status))
		}
	})
	line("permitplane.serve_single_us", t.ns/1e3, t)

	permitCache := &permitplane.Cache{
		Device: "dev-000000", Cell: "cell-000",
		Fetch: func(context.Context, string, string) (permit.Response, error) {
			return permit.Response{Granted: true, TTLSeconds: 3600}, nil
		},
	}
	t = cfg.timeCalls(func(_ *stopwatch) {
		if !permitCache.Allowed(ctx) {
			must(errors.New("a fresh permit was not honoured"))
		}
	})
	line("permitplane.cache_hit_ns", t.ns, t)

	// ---- wal ------------------------------------------------------
	appendTo := func(dir string, syncEvery int) (timed, error) {
		l, _, _, e := wal.Open(dir, syncEvery)
		if e != nil {
			return timed{}, e
		}
		seq := int64(0)
		t := cfg.timeCalls(func(_ *stopwatch) {
			seq++
			_, e := l.Append(wal.OpRefresh, "dev-000000", "cell-000", seq, seq+int64(permitTTL))
			must(e)
		})
		return t, l.Close()
	}
	if t, err = appendTo(walRoot+"/append", 0); err != nil {
		return err
	}
	line("wal.append_us", t.ns/1e3, t)
	if t, err = appendTo(walRoot+"/append-sync", 1); err != nil {
		return err
	}
	line("wal.append_sync_us", t.ns/1e3, t)

	snapLog, _, _, err := wal.Open(walRoot+"/snapshot", 0)
	if err != nil {
		return err
	}
	state := wal.NewState()
	for i, b := range batches {
		for j, r := range b {
			seq := uint64(i*permitBatch + j + 1)
			state.Apply(wal.Record{Seq: seq, Op: wal.OpGrant, Device: r.Device, Cell: r.Cell, At: 1, Expiry: int64(permitTTL)})
		}
	}
	t = cfg.timeCalls(func(_ *stopwatch) {
		must(snapLog.WriteSnapshot(state))
	})
	line("wal.snapshot_ms", t.ns/1e6, t)
	must(snapLog.Close())

	// A log of 500 records per sized call: 100 000 at production sizing.
	records := 500 * cfg.layerCalls
	replayDir := walRoot + "/replay"
	replayLog, _, _, err := wal.Open(replayDir, 0)
	if err != nil {
		return err
	}
	for i := 0; i < records; i++ {
		r := batches[(i/permitBatch)%len(batches)][i%permitBatch]
		_, e := replayLog.Append(wal.OpRefresh, r.Device, r.Cell, int64(i), int64(i)+int64(permitTTL))
		must(e)
	}
	size, err := replayLog.Size()
	if err != nil {
		return err
	}
	must(replayLog.Close())
	r.vs.set("wal.bytes_per_record", float64(size)/float64(records), records)
	t = cfg.timeCalls(func(_ *stopwatch) {
		_, st, e := wal.Replay(replayDir)
		must(e)
		if e == nil && st.RecordsReplayed != int64(records) {
			must(fmt.Errorf("replayed %d of %d records", st.RecordsReplayed, records))
		}
	})
	line("wal.replay_ms_per_100k", t.ns/1e6*100_000/float64(records), t)
	return nil
}

// netemConn measures what netem's connection wrapper costs and how
// accurately it paces: each round drains 16 MB through a bare loopback
// connection and through one shaped at a rate that never binds, then
// 2.5 MB through one shaped at a binding 100 Mbit/s. It returns the
// median overhead and the median rate error, both in percent.
func netemConn(cfg runConfig) (overheadPct, paceErrPct float64, rounds int, err error) {
	const (
		bulk     = 16 << 20
		paced    = 2_500_000
		pacedBps = 100e6
	)
	bulkSrv, err := serveBlob(bulk)
	if err != nil {
		return 0, 0, 0, err
	}
	defer bulkSrv.close()
	pacedSrv, err := serveBlob(paced)
	if err != nil {
		return 0, 0, 0, err
	}
	defer pacedSrv.close()
	free := &netem.Pipe{Down: netem.Shape{Rate: 1e12}, Up: netem.Shape{Rate: 1e12}}
	binding := &netem.Pipe{Down: netem.Shape{Rate: pacedBps}}

	// The order of the bare and shaped drains alternates, so neither is
	// always the one that runs on a warmer cache.
	var bares, shapeds, errs []float64
	for t0 := now(); rounds < 3 || (since(t0) < 4*cfg.layerBudget && rounds < cfg.layerCalls); rounds++ {
		for k := 0; k < 2; k++ {
			if (k == 0) == (rounds%2 == 0) {
				d, err := bulkSrv.drain(nil, bulk)
				if err != nil {
					return 0, 0, 0, fmt.Errorf("bare loopback: %w", err)
				}
				bares = append(bares, d.Seconds())
			} else {
				d, err := bulkSrv.drain(free, bulk)
				if err != nil {
					return 0, 0, 0, fmt.Errorf("shaped loopback: %w", err)
				}
				shapeds = append(shapeds, d.Seconds())
			}
		}
		took, err := pacedSrv.drain(binding, paced)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("paced loopback: %w", err)
		}
		errs = append(errs, 100*(paced*8/took.Seconds()/pacedBps-1))
	}
	return 100 * (median(shapeds)/median(bares) - 1), median(errs), rounds, nil
}
