package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"threegol/internal/cellular"
	"threegol/internal/core"
	"threegol/internal/hls"
	"threegol/internal/scheduler"
	"threegol/internal/transfer"
	"threegol/internal/upload"
)

// loopServer is an http.Server on an ephemeral loopback port.
type loopServer struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func serveLoopback(h http.Handler) (*loopServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &loopServer{
		url:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns ErrServerClosed once close runs
	}()
	return s, nil
}

// close drops every connection and waits for the serve loop to end.
func (s *loopServer) close() {
	_ = s.srv.Close() // listener and connections are gone either way
	<-s.done
}

// The paper's test video at its top rendition, and the pre-buffer share
// after which the player counts the first frame as shown (the smallest
// value of the paper's Fig. 7 sweep).
const (
	vodMaster     = "/bipbop/master.m3u8"
	vodQuality    = "q4"
	vodPrebuffer  = 0.2
	discoveryWait = 5 * time.Second
)

// homeFor returns the emulated residence of a data-plane workload. The
// shaped home is loc1 of the in-the-wild evaluation with phone rates
// derived from its radio conditions the way evalwild derives them; the
// unshaped home runs the same shapers at rates that never bind. Phones
// start warm and rates do not wander, so every op sees the same links.
func homeFor(shaped bool, timeScale float64, seed int64) core.HomeConfig {
	if !shaped {
		const unbound = 1e12
		return core.HomeConfig{
			DSLDown: unbound, DSLUp: unbound, WiFi: unbound, TimeScale: timeScale, Seed: seed,
			Phones: []core.PhoneConfig{
				{Name: "ph1", Down: unbound, Up: unbound, Warm: true},
				{Name: "ph2", Down: unbound, Up: unbound, Warm: true},
			},
		}
	}
	loc, _ := cellular.FindLocation(cellular.EvalLocations, "loc1")
	dl, ul := cellular.RadioCaps(loc.SignalDBm)
	fading := cellular.DefaultParams().FadingMean
	return core.HomeConfig{
		DSLDown: loc.DSLDown, DSLUp: loc.DSLUp, TimeScale: timeScale, Seed: seed,
		Phones: []core.PhoneConfig{
			{Name: "ph1", Down: dl * fading, Up: ul * fading, Warm: true},
			{Name: "ph2", Down: dl * fading, Up: ul * fading, Warm: true},
		},
	}
}

// startHome builds the residence and waits for both phones to be
// discovered.
func startHome(cfg core.HomeConfig) (*core.Home, []*core.Phone, error) {
	h, err := core.NewHome(cfg)
	if err != nil {
		return nil, nil, err
	}
	phones := h.AdmissibleDevices(len(cfg.Phones), discoveryWait)
	if len(phones) != len(cfg.Phones) {
		h.Close()
		return nil, nil, fmt.Errorf("discovered %d of %d phones", len(phones), len(cfg.Phones))
	}
	return h, phones, nil
}

// vodInstance plays the BipBop video through the 3GOL client proxy.
type vodInstance struct {
	home    *core.Home
	phones  []*core.Phone
	origin  *loopServer
	t       *tracer
	want    int64   // bytes of the rendition
	segs    int     // segments of the rendition
	ceiling float64 // Σ downlink rates × TimeScale
	about   string
}

func buildVoD(shaped bool) func(runConfig, *tracer) (instance, error) {
	return func(cfg runConfig, t *tracer) (instance, error) {
		timeScale := 1e6
		if shaped {
			timeScale = 20
		}
		video := hls.BipBop()
		q, ok := video.QualityByName(vodQuality)
		if !ok {
			return nil, fmt.Errorf("video has no rendition %s", vodQuality)
		}
		origin, err := serveLoopback(t.handler(hls.NewOrigin(video), "origin"))
		if err != nil {
			return nil, err
		}
		hc := homeFor(shaped, timeScale, cfg.seed)
		home, phones, err := startHome(hc)
		if err != nil {
			origin.close()
			return nil, err
		}
		v := &vodInstance{
			home: home, phones: phones, origin: origin, t: t,
			want: int64(video.TotalBytes(q)), segs: video.NumSegments(),
		}
		v.ceiling = hc.DSLDown
		for _, p := range hc.Phones {
			v.ceiling += p.Down
		}
		v.about = fmt.Sprintf("bipbop %s, %d segments, %.2f MB; ADSL %.2f + 2 × %.2f Mbit/s down, TimeScale %g",
			vodQuality, v.segs, float64(v.want)/1e6, hc.DSLDown/1e6, hc.Phones[0].Down/1e6, timeScale)
		v.ceiling *= timeScale
		return v, nil
	}
}

func (v *vodInstance) describe() string { return v.about }
func (v *vodInstance) check() error     { return nil }

func (v *vodInstance) close() {
	v.home.Close()
	v.origin.close()
}

func (v *vodInstance) op(ctx context.Context, _ int) (opInfo, error) {
	if v.t != nil {
		return v.tracedOp(ctx)
	}
	res, err := v.home.BoostVoD(ctx, v.origin.url, vodMaster, core.VoDOptions{
		Algo: scheduler.Greedy, Phones: v.phones, PrebufferFrac: vodPrebuffer, Quality: vodQuality,
	})
	if err != nil {
		return opInfo{}, err
	}
	if err := v.verify(res.Bytes, res.Segments); err != nil {
		return opInfo{}, err
	}
	rep := res.SchedulerReport
	if rep == nil {
		return opInfo{}, errors.New("no prefetch transaction ran")
	}
	delivered := 0
	for _, ps := range rep.PerPath {
		delivered += ps.Items
	}
	if delivered != v.segs {
		return opInfo{}, fmt.Errorf("paths delivered %d items for %d segments: not exactly once", delivered, v.segs)
	}
	return opInfo{
		payloadBytes: res.Bytes,
		startup:      time.Duration(float64(res.Prebuffer) / v.home.TimeScale()),
		items:        v.segs, duplicates: rep.Duplicates,
		wastedBytes: rep.WastedBytes, movedBytes: rep.TotalBytes(),
		ceilingBps: v.ceiling,
	}, nil
}

func (v *vodInstance) verify(gotBytes int64, gotSegs int) error {
	if gotBytes != v.want || gotSegs != v.segs {
		return fmt.Errorf("played %d bytes in %d segments, want %d in %d", gotBytes, gotSegs, v.want, v.segs)
	}
	return nil
}

// tracedOp is Home.BoostVoD rebuilt from core's exported pieces so that
// the harness's transports sit at each boundary: around the player's
// client, and around the direct and per-phone clients handed to
// core.NewVoDProxy.
func (v *vodInstance) tracedOp(ctx context.Context) (opInfo, error) {
	routes := make([]core.Route, 0, len(v.phones))
	for _, ph := range v.phones {
		routes = append(routes, core.Route{Name: ph.Name, Client: v.t.client(v.home.PhoneClient(ph), depthHop, ph.Name)})
	}
	direct := v.t.client(v.home.ADSLClient(), depthHop, "adsl")
	vp, err := core.NewVoDProxy(direct, routes, v.origin.url, scheduler.Greedy, scheduler.Options{})
	if err != nil {
		return opInfo{}, err
	}
	proxy, err := serveLoopback(vp)
	if err != nil {
		return opInfo{}, err
	}
	defer proxy.close()
	player := &hls.Player{
		Client:        v.t.client(&http.Client{}, depthProxy, "player"),
		PrebufferFrac: vodPrebuffer,
	}
	res, err := player.Play(ctx, proxy.url+vodMaster, vodQuality)
	if err != nil {
		return opInfo{}, err
	}
	if err := v.verify(res.Bytes, res.Segments); err != nil {
		return opInfo{}, err
	}
	return opInfo{payloadBytes: res.Bytes, startup: res.PrebufferTime, ceilingBps: v.ceiling}, nil
}

// uploadPhotos is the size of the photo set and uploadTimeScale the
// acceleration of the upload workload (uplinks are ~8× slower than
// downlinks, so it runs faster than the VoD one to fit the window).
// photoSetSeed fixes the photos' sizes: core.GeneratePhotos draws them
// from the paper's log-normal, so the set's total varies by ±7 % from
// seed to seed, and with it every metric. The population is therefore
// the same on every run; the run's seed fills the photos' contents.
const (
	uploadPhotos    = 12
	uploadTimeScale = 150
	photoSetSeed    = 42
)

// photoSet returns the fixed-size photo population with contents drawn
// from seed.
func photoSet(seed int64) []core.Photo {
	photos := core.GeneratePhotos(uploadPhotos, photoSetSeed)
	rng := rand.New(rand.NewSource(seed))
	for _, p := range photos {
		_, _ = rng.Read(p.Data) // never fails per math/rand contract
	}
	return photos
}

// uploadInstance uploads a fixed photo set to an in-process upload
// server. Every op gets a fresh upload.Server behind the same listener,
// so its file table describes that op alone.
type uploadInstance struct {
	home    *core.Home
	phones  []*core.Phone
	target  *loopServer
	current atomic.Pointer[upload.Server]
	t       *tracer
	photos  []core.Photo
	digests map[string]string
	ceiling float64
	about   string
}

func buildUpload(cfg runConfig, t *tracer) (instance, error) {
	u := &uploadInstance{t: t, photos: photoSet(cfg.seed), digests: map[string]string{}}
	for _, p := range u.photos {
		sum := sha256.Sum256(p.Data)
		u.digests[p.Name] = hex.EncodeToString(sum[:])
	}
	target, err := serveLoopback(t.handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		u.current.Load().ServeHTTP(w, r)
	}), "upload"))
	if err != nil {
		return nil, err
	}
	u.current.Store(&upload.Server{})
	hc := homeFor(true, uploadTimeScale, cfg.seed)
	u.home, u.phones, err = startHome(hc)
	if err != nil {
		target.close()
		return nil, err
	}
	u.target = target
	u.ceiling = hc.DSLUp
	for _, p := range hc.Phones {
		u.ceiling += p.Up
	}
	u.about = fmt.Sprintf("%d photos, %.2f MB; ADSL %.2f + 2 × %.2f Mbit/s up, TimeScale %d",
		len(u.photos), float64(core.TotalBytes(u.photos))/1e6, hc.DSLUp/1e6, hc.Phones[0].Up/1e6, uploadTimeScale)
	u.ceiling *= uploadTimeScale
	return u, nil
}

func (u *uploadInstance) describe() string { return u.about }
func (u *uploadInstance) check() error     { return nil }

func (u *uploadInstance) close() {
	u.home.Close()
	u.target.close()
}

func (u *uploadInstance) op(ctx context.Context, _ int) (opInfo, error) {
	srv := &upload.Server{}
	u.current.Store(srv)
	var rep *scheduler.Report
	if u.t == nil {
		res, err := u.home.UploadPhotos(ctx, u.photos, core.UploadOptions{
			Algo: scheduler.Greedy, Phones: u.phones, TargetURL: u.target.url,
		})
		if err != nil {
			return opInfo{}, err
		}
		rep = res.SchedulerReport
	} else {
		var err error
		if rep, err = u.tracedUpload(ctx); err != nil {
			return opInfo{}, err
		}
	}

	files := srv.Files()
	if len(files) != len(u.photos) {
		return opInfo{}, fmt.Errorf("server stored %d files, sent %d", len(files), len(u.photos))
	}
	replays := 0
	for _, f := range files {
		if f.SHA256 != u.digests[f.Name] {
			return opInfo{}, fmt.Errorf("%s arrived with digest %s, sent %s", f.Name, f.SHA256, u.digests[f.Name])
		}
		replays += f.Copies - 1
	}
	if replays > rep.Duplicates {
		return opInfo{}, fmt.Errorf("server saw %d replayed files, scheduler launched %d duplicates", replays, rep.Duplicates)
	}
	return opInfo{
		payloadBytes: core.TotalBytes(u.photos),
		items:        len(u.photos), duplicates: rep.Duplicates,
		wastedBytes: rep.WastedBytes, movedBytes: rep.TotalBytes(),
		ceilingBps: u.ceiling,
	}, nil
}

// tracedUpload is Home.UploadPhotos rebuilt from exported pieces with
// the harness's transport around each route's client.
func (u *uploadInstance) tracedUpload(ctx context.Context) (*scheduler.Report, error) {
	items := make([]scheduler.Item, len(u.photos))
	byName := make(map[string][]byte, len(u.photos))
	for i, p := range u.photos {
		items[i] = scheduler.Item{ID: i, Name: p.Name, Size: int64(len(p.Data))}
		byName[p.Name] = p.Data
	}
	source := func(item scheduler.Item) (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(byName[item.Name])), nil
	}
	paths := []scheduler.Path{&transfer.UploadPath{
		PathName: "adsl", Client: u.t.client(u.home.ADSLClient(), depthHop, "adsl"),
		TargetURL: u.target.url, Source: source,
	}}
	for _, ph := range u.phones {
		paths = append(paths, &transfer.UploadPath{
			PathName: ph.Name, Client: u.t.client(u.home.PhoneClient(ph), depthHop, ph.Name),
			TargetURL: u.target.url, Source: source,
		})
	}
	return scheduler.Run(ctx, scheduler.Greedy, items, paths, scheduler.Options{})
}
