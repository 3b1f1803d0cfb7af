// Package core assembles the 3GOL system: an emulated residential
// environment (ADSL line, Wi-Fi LAN, 3G phones running the device
// component) and the client component that accelerates applications over
// it — the HLS-aware video proxy and the multipath photo uploader, both
// driving the multipath scheduler of §4.1.1.
//
// Everything runs over real loopback TCP through netem-shaped
// connections, so the code paths exercised here are the ones a deployment
// would run; only the links are emulated. A TimeScale accelerates the
// emulation without changing any ratio the paper reports.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"sync"
	"time"

	"threegol/internal/cellular"
	"threegol/internal/clock"
	"threegol/internal/discovery"
	"threegol/internal/netem"
	"threegol/internal/quota"
)

// PhoneConfig describes one 3G device participating in 3GOL.
type PhoneConfig struct {
	Name string
	// Down/Up are the phone's 3G rates in bits/s (before variability).
	Down, Up float64
	// Variability is the relative std of the HSPA rate process; 0
	// disables wandering (useful in tests).
	Variability float64
	// DailyQuotaBytes enables the multi-provider quota gate; 0 means
	// network-integrated (no cap enforced on-device).
	DailyQuotaBytes int64
	// Warm starts the device in DCH (the paper's "H" mode, after an ICMP
	// train); cold devices start in IDLE and pay its promotion on first
	// use. Either way the phone then runs cellular's RRC machine.
	Warm bool
}

// HomeConfig describes the emulated residence.
type HomeConfig struct {
	// DSLDown/DSLUp are the ADSL sync rates in bits/s.
	DSLDown, DSLUp float64
	// WiFi is the BSS goodput cap in bits/s; 0 selects 802.11n.
	WiFi float64
	// TimeScale accelerates the emulation (rates ×S, delays ÷S); 0 = 1.
	TimeScale float64
	// Phones on the LAN.
	Phones []PhoneConfig
	// Seed drives all stochastic components.
	Seed int64
	// RRCPromotionDelay is the IDLE→DCH promotion (unscaled, before
	// cellular's ±20 % jitter); 0 selects cellular.DefaultParams'
	// PromotionIdle, 2 s. The FACH→DCH promotion and the demotion timers
	// are cellular's.
	RRCPromotionDelay time.Duration
	// Clock drives the emulation's real-time components (RRC time,
	// netem pacing); nil selects the system clock.
	Clock clock.Clock
}

// Home is a running emulated residence. Create with NewHome, release with
// Close.
type Home struct {
	cfg   HomeConfig
	clk   clock.Clock
	start time.Time       // the phones' RRC time counts emulated seconds from here
	radio cellular.Params // the phones' RRC promotions and timers

	adsl     *http.Transport // every session's connections over the line
	adslDown *netem.Limiter
	adslUp   *netem.Limiter
	wifi     *netem.Limiter

	Phones  []*Phone
	Browser *discovery.Browser

	closers []func()
}

// Phone is one emulated handset: a running Device whose proxy dials out
// over an emulated 3G path, and the handset's RRC state.
type Phone struct {
	Name   string
	Device *Device

	dl, ul    *netem.Limiter
	home      *Home
	wifi      *netem.Dialer   // the phone's Wi-Fi hop
	transport *http.Transport // every session's connections to its proxy, over wifi

	rrcMu sync.Mutex
	rrc   cellular.RRC
	rng   *rand.Rand // promotion jitter
}

// now is the phone's RRC time: emulated seconds since the home started.
func (p *Phone) now() float64 {
	return p.home.clk.Since(p.home.start).Seconds() * p.home.TimeScale()
}

// rrcDelay steps the phone's RRC through a session's first request and
// returns the wall time the promotion it owes takes. The proxy reports
// no end to a transaction, so the request begins and ends one at once;
// the bytes that follow keep the phone in DCH through WarmUp.
func (p *Phone) rrcDelay() time.Duration {
	p.rrcMu.Lock()
	defer p.rrcMu.Unlock()
	now := p.now()
	owed := p.rrc.Begin(now, p.home.radio, p.rng)
	p.rrc.End(now)
	return time.Duration(owed / p.home.TimeScale() * float64(time.Second))
}

// WarmUp models the ICMP train: promotes the phone to DCH immediately.
// The proxy calls it for every byte it moves, so a phone carrying
// traffic stays in DCH, and demotes only once it has been quiet for the
// RRC's inactivity timers.
func (p *Phone) WarmUp() {
	p.rrcMu.Lock()
	defer p.rrcMu.Unlock()
	p.rrc.WarmUp(p.now())
}

// NewHome builds and starts the environment: phones run their proxies and
// beacons, the browser listens, the ADSL line is shaped and shared.
func NewHome(cfg HomeConfig) (*Home, error) {
	if cfg.DSLDown <= 0 || cfg.DSLUp <= 0 {
		return nil, fmt.Errorf("core: ADSL rates must be positive, got %v/%v", cfg.DSLDown, cfg.DSLUp)
	}
	scale := cfg.TimeScale
	if scale <= 0 {
		scale = 1
	}
	wifiGoodput := cfg.WiFi
	if wifiGoodput <= 0 {
		wifiGoodput = netem.WiFiNGoodput
	}
	h := &Home{cfg: cfg, clk: clock.Or(cfg.Clock), radio: cellular.DefaultParams()}
	h.start = h.clk.Now()
	if cfg.RRCPromotionDelay > 0 {
		h.radio.PromotionIdle = cfg.RRCPromotionDelay.Seconds()
	}
	adslPipe, dl, ul := netem.ADSLPipe(cfg.DSLDown, cfg.DSLUp, scale)
	h.adsl = &http.Transport{
		DialContext:         (&netem.Dialer{Pipe: adslPipe, Seed: cfg.Seed}).DialContext,
		MaxIdleConnsPerHost: 8,
	}
	h.adslDown, h.adslUp = dl, ul
	h.closers = append(h.closers, h.adsl.CloseIdleConnections)
	h.wifi = netem.NewWiFiLimiter(wifiGoodput, scale)

	h.Browser = &discovery.Browser{}
	browseAddr, err := h.Browser.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("core: starting discovery browser: %w", err)
	}
	h.closers = append(h.closers, h.Browser.Close)

	for i, pc := range cfg.Phones {
		ph, err := h.startPhone(i, pc, scale, browseAddr)
		if err != nil {
			h.Close()
			return nil, err
		}
		h.Phones = append(h.Phones, ph)
	}
	return h, nil
}

func (h *Home) startPhone(i int, pc PhoneConfig, scale float64, browseAddr string) (*Phone, error) {
	if pc.Down <= 0 || pc.Up <= 0 {
		return nil, fmt.Errorf("core: phone %q 3G rates must be positive", pc.Name)
	}
	name := pc.Name
	if name == "" {
		name = fmt.Sprintf("phone%d", i+1)
	}
	hspaPipe, dl, ul := netem.HSPAPipe(pc.Down, pc.Up, scale)
	ph := &Phone{
		Name: name,
		dl:   dl,
		ul:   ul,
		home: h,
		rng:  h.rngFor(int64(i)),
		wifi: &netem.Dialer{Pipe: netem.WiFiPipe(h.wifi, scale), Seed: h.cfg.Seed + int64(i)*977 + wifiSeedSalt},
	}
	if pc.Warm {
		ph.rrc.WarmUp(ph.now())
	}

	if pc.Variability > 0 {
		seed := h.cfg.Seed + int64(i)*101
		for j, rp := range []*netem.RateProcess{
			{Limiter: dl, Mean: dl.Rate(), Std: pc.Variability, Interval: time.Duration(float64(2*time.Second) / scale)},
			{Limiter: ul, Mean: ul.Rate(), Std: pc.Variability, Interval: time.Duration(float64(2*time.Second) / scale)},
		} {
			rp.Start(seed + int64(j))
			h.closers = append(h.closers, rp.Stop)
		}
	}

	var tracker *quota.Tracker // none in network-integrated mode
	if pc.DailyQuotaBytes > 0 {
		tracker = quota.NewTracker(pc.DailyQuotaBytes)
	}
	ph.Device = NewDevice(name, "", &netem.Dialer{Pipe: hspaPipe, Seed: h.cfg.Seed + int64(i)*977}, tracker, nil)
	ph.Device.Proxy.OnBytes = func(int64) { ph.WarmUp() }
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("core: starting proxy for %s: %w", name, err)
	}
	if err := ph.Device.Serve(context.Background(), netem.BoundUpstream(ln), browseAddr, 50*time.Millisecond); err != nil {
		return nil, fmt.Errorf("core: starting beacon for %s: %w", name, err)
	}
	h.closers = append(h.closers, func() { ph.Device.Close() })
	ph.transport = &http.Transport{
		Proxy:               http.ProxyURL(&url.URL{Scheme: "http", Host: ph.Device.addr}),
		DialContext:         ph.wifi.DialContext,
		MaxIdleConnsPerHost: 8,
	}
	h.closers = append(h.closers, ph.transport.CloseIdleConnections)
	return ph, nil
}

// TimeScale returns the environment's acceleration factor.
func (h *Home) TimeScale() float64 {
	if h.cfg.TimeScale <= 0 {
		return 1
	}
	return h.cfg.TimeScale
}

// ScaleDuration converts an observed wall-clock duration back to emulated
// (real-network) time.
func (h *Home) ScaleDuration(d time.Duration) time.Duration {
	return time.Duration(float64(d) * h.TimeScale())
}

// ADSLClient returns a new HTTP client over the home's connections on
// the ADSL line — the baseline path and the scheduler's "adsl" route.
func (h *Home) ADSLClient() *http.Client {
	return &http.Client{Transport: h.adsl}
}

// PhoneClient returns a new HTTP client over the home's connections to
// the named phone's proxy across the shaped Wi-Fi LAN. The phone's RRC
// promotion delay, if due, is paid before the client's first request,
// whether that request dials or finds a pooled connection: one client is
// one session's route through the phone.
func (h *Home) PhoneClient(ph *Phone) *http.Client {
	return &http.Client{Transport: &promoting{ph: ph}}
}

// promoting is a phone client's transport: the phone's, with its RRC
// promotion charged once, on the first request.
type promoting struct {
	ph   *Phone
	once sync.Once
}

func (p *promoting) RoundTrip(req *http.Request) (*http.Response, error) {
	p.once.Do(func() {
		if d := p.ph.rrcDelay(); d > 0 {
			p.ph.home.clk.Sleep(d)
		}
	})
	return p.ph.transport.RoundTrip(req)
}

// phoneRoutes returns a session's route through each of phones.
func (h *Home) phoneRoutes(phones []*Phone) []Route {
	routes := make([]Route, len(phones))
	for i, ph := range phones {
		routes[i] = Route{Name: ph.Name, Client: h.PhoneClient(ph)}
	}
	return routes
}

// AdmissibleDevices waits for up to n phones to appear in discovery and
// returns the matching Phone handles (the set Φ).
func (h *Home) AdmissibleDevices(n int, timeout time.Duration) []*Phone {
	anns := h.Browser.WaitFor(n, timeout)
	var out []*Phone
	for _, ann := range anns {
		for _, ph := range h.Phones {
			if ph.Name == ann.Name {
				out = append(out, ph)
				break
			}
		}
	}
	return out
}

// Close releases every resource the home started.
func (h *Home) Close() {
	for i := len(h.closers) - 1; i >= 0; i-- {
		h.closers[i]()
	}
	h.closers = nil
}

// wifiSeedSalt sets a phone's Wi-Fi draws apart from its HSPA ones,
// which start at the same Seed + i*977.
const wifiSeedSalt = 1 << 32

// rngFor derives a deterministic sub-RNG.
func (h *Home) rngFor(salt int64) *rand.Rand {
	return rand.New(rand.NewSource(h.cfg.Seed*31 + salt))
}
