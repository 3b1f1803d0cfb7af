// Package cellular models a UMTS/HSPA deployment: base stations with one
// or more sectors, per-sector shared HSDPA (downlink) and HSUPA (uplink)
// channels, per-tower backhaul, per-device radio conditions, an RRC state
// machine with promotion delays (RRC, which core's live phones step too),
// and diurnal background load from the cell's other subscribers.
//
// It is the stand-in for the real base stations the paper measures in §3:
// the quantities the paper reports — aggregate throughput versus number of
// devices (Fig. 3), per-device throughput versus hour of day (Fig. 4), and
// per-base-station throughput distributions (Fig. 5, Table 3) — emerge
// from channel sharing, radio caps and background load, all represented
// here on top of the linksim fluid simulator.
package cellular

import (
	"fmt"
	"math/rand"

	"threegol/internal/diurnal"
	"threegol/internal/linksim"
)

// Params holds the physical-layer and RRC constants of the model.
// Defaults follow published HSPA characteristics cited in the paper.
type Params struct {
	// HSDPACellCap is the nominal capacity of one sector's shared
	// downlink channel in bits/s (HSDPA Cat-20 class cells; the paper's
	// devices are HSDPA Category 20 / HSUPA Category 6).
	HSDPACellCap float64
	// HSUPACellCap is the nominal capacity of one sector's shared uplink
	// channel in bits/s. The paper cites 5.76 Mbps as the HSUPA maximum
	// and observes an aggregate plateau near 5 Mbps.
	HSUPACellCap float64
	// BackhaulCap is the tower's backhaul capacity per direction in
	// bits/s (the paper assumes 40–50 Mbps per tower).
	BackhaulCap float64
	// DLDedicatedFloor and ULDedicatedFloor are the dedicated-channel
	// rates a device falls back to under good radio conditions when the
	// shared channels give it nothing (360 / 64 kbps per the paper).
	DLDedicatedFloor float64
	ULDedicatedFloor float64
	// PromotionIdle and PromotionFACH are RRC promotion delays in seconds
	// from IDLE and FACH to DCH respectively; RRC never charges more for
	// FACH than for IDLE.
	PromotionIdle float64
	PromotionFACH float64
	// DCHInactivity and FACHInactivity are the demotion timers: DCH→FACH
	// after DCHInactivity idle seconds, FACH→IDLE after FACHInactivity.
	DCHInactivity  float64
	FACHInactivity float64
	// RefreshInterval is how often (simulated seconds) background load is
	// re-applied to the shared channels.
	RefreshInterval float64
	// FadingMean/FadingStd/FadingLo/FadingHi parameterise the truncated-
	// normal per-transfer fading multiplier applied to a device's radio
	// cap. A mean below 1 reflects that typical indoor radio conditions
	// sit well below the technology's best case (the paper's Table 3:
	// single-device downlink mean 1.61 Mbps against a 2.65 Mbps max).
	FadingMean float64
	FadingStd  float64
	FadingLo   float64
	FadingHi   float64
}

// DefaultParams returns the model constants used throughout the paper's
// reproduction.
func DefaultParams() Params {
	return Params{
		HSDPACellCap:     7.2 * linksim.Mbps,
		HSUPACellCap:     5.76 * linksim.Mbps,
		BackhaulCap:      40 * linksim.Mbps,
		DLDedicatedFloor: 360 * linksim.Kbps,
		ULDedicatedFloor: 64 * linksim.Kbps,
		PromotionIdle:    2.0,
		PromotionFACH:    0.6,
		DCHInactivity:    5,
		FACHInactivity:   12,
		RefreshInterval:  60,
		FadingMean:       0.65,
		FadingStd:        0.25,
		FadingLo:         0.25,
		FadingHi:         1.05,
	}
}

// Network is a deployment of base stations sharing a fluid simulator.
type Network struct {
	sim    *linksim.Simulator
	rng    *rand.Rand
	params Params
	bs     []*BaseStation

	activeTransfers int
	refreshing      bool
}

// NewNetwork creates an empty deployment. rng drives fading, promotion
// jitter and attachment tie-breaking; pass a seeded source for
// reproducible experiments.
func NewNetwork(sim *linksim.Simulator, rng *rand.Rand, p Params) *Network {
	return &Network{sim: sim, rng: rng, params: p}
}

// BaseStation is a tower with shared backhaul and one or more sectors.
type BaseStation struct {
	name    string
	net     *Network
	bhDL    *linksim.Link
	bhUL    *linksim.Link
	sectors []*Cell
}

// BaseStationConfig describes one tower.
type BaseStationConfig struct {
	Name    string
	Sectors int
	// Load is the diurnal background-utilisation shape of the sector's
	// shared channels; PeakUtilDL/PeakUtilUL scale it per direction
	// (e.g. PeakUtilDL 0.6 means the busiest hour's other subscribers
	// consume 60% of the shared downlink channel). A zero PeakUtilUL
	// inherits PeakUtilDL.
	Load       diurnal.Profile
	PeakUtilDL float64
	PeakUtilUL float64
	// CapScale scales the nominal per-sector *downlink* capacity,
	// letting presets model better or worse provisioned cells (extra
	// HSDPA carriers). The uplink stays at the HSUPA technology cap —
	// which is why the paper sees uplink aggregation plateau near
	// 5 Mbps while downlink keeps scaling. Zero means 1.
	CapScale float64
}

// AddBaseStation creates a tower. It panics on a non-positive sector
// count (a configuration error).
func (n *Network) AddBaseStation(cfg BaseStationConfig) *BaseStation {
	if cfg.Sectors <= 0 {
		panic(fmt.Sprintf("cellular: base station %q with %d sectors", cfg.Name, cfg.Sectors))
	}
	scale := cfg.CapScale
	if scale == 0 {
		scale = 1
	}
	utilUL := cfg.PeakUtilUL
	if utilUL == 0 {
		utilUL = cfg.PeakUtilDL
	}
	bs := &BaseStation{
		name: cfg.Name,
		net:  n,
		bhDL: n.sim.NewLink(cfg.Name+"/bh-dl", n.params.BackhaulCap),
		bhUL: n.sim.NewLink(cfg.Name+"/bh-ul", n.params.BackhaulCap),
	}
	for i := 0; i < cfg.Sectors; i++ {
		c := &Cell{
			name:       fmt.Sprintf("%s/s%d", cfg.Name, i),
			bs:         bs,
			nominalDL:  n.params.HSDPACellCap * scale,
			nominalUL:  n.params.HSUPACellCap,
			load:       cfg.Load,
			peakUtilDL: cfg.PeakUtilDL,
			peakUtilUL: utilUL,
		}
		c.dl = n.sim.NewLink(c.name+"/hsdpa", c.nominalDL)
		c.ul = n.sim.NewLink(c.name+"/hsupa", c.nominalUL)
		c.refresh()
		bs.sectors = append(bs.sectors, c)
	}
	n.bs = append(n.bs, bs)
	return bs
}

// Name returns the tower name.
func (b *BaseStation) Name() string { return b.name }

// Sectors returns the tower's cells.
func (b *BaseStation) Sectors() []*Cell { return b.sectors }

// RefreshLoad re-applies the diurnal background utilisation to every
// sector at the current virtual time. Transfers call it implicitly; it is
// exported for harnesses that read free-capacity figures while idle.
func (n *Network) RefreshLoad() {
	for _, c := range n.cells() {
		c.refresh()
	}
}

// ensureRefresh refreshes background load now and keeps refreshing every
// RefreshInterval for as long as transfers remain active, so long
// transfers see capacity vary across hours without leaving an unbounded
// event chain behind (which would keep clock.Run from draining).
func (n *Network) ensureRefresh() {
	n.RefreshLoad()
	if n.refreshing {
		return
	}
	n.refreshing = true
	var tick func()
	tick = func() {
		if n.activeTransfers == 0 {
			n.refreshing = false
			return
		}
		n.RefreshLoad()
		n.sim.Clock().After(n.params.RefreshInterval, tick)
	}
	n.sim.Clock().After(n.params.RefreshInterval, tick)
}

// Cell is one sector: a shared HSDPA downlink channel and a shared HSUPA
// uplink channel, both drained by diurnal background load.
type Cell struct {
	name       string
	bs         *BaseStation
	dl, ul     *linksim.Link
	nominalDL  float64
	nominalUL  float64
	load       diurnal.Profile
	peakUtilDL float64
	peakUtilUL float64
	attached   int
}

// refresh applies the current background utilisation to the shared
// channels.
func (c *Cell) refresh() {
	shape := c.load.AtTime(c.bs.net.sim.Clock().Now())
	c.dl.SetCapacity(c.nominalDL * (1 - clampUtil(shape*c.peakUtilDL)))
	c.ul.SetCapacity(c.nominalUL * (1 - clampUtil(shape*c.peakUtilUL)))
}

func clampUtil(u float64) float64 {
	if u > 0.95 {
		return 0.95
	}
	if u < 0 {
		return 0
	}
	return u
}

// Name returns the sector name.
func (c *Cell) Name() string { return c.name }

// BaseStation returns the owning tower.
func (c *Cell) BaseStation() *BaseStation { return c.bs }

// Utilization returns the max of downlink and uplink utilisation — the
// congestion signal consumed by the permit backend.
func (c *Cell) Utilization() float64 {
	d, u := c.dl.Utilization(), c.ul.Utilization()
	if u > d {
		return u
	}
	return d
}

// cells returns every sector in the deployment.
func (n *Network) cells() []*Cell {
	var out []*Cell
	for _, bs := range n.bs {
		out = append(out, bs.sectors...)
	}
	return out
}

// BaseStations returns the deployment's towers.
func (n *Network) BaseStations() []*BaseStation { return n.bs }
