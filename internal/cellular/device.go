package cellular

import (
	"fmt"
	"math"

	"threegol/internal/linksim"
	"threegol/internal/stats"
)

// Device is a handset attached to one sector.
type Device struct {
	name   string
	net    *Network
	cell   *Cell
	signal float64 // dBm

	capDL, capUL float64 // radio-condition rate caps (bits/s)

	rrc RRC
}

// Attach creates a device at the given signal strength (dBm, e.g. −81 for
// good coverage, −97 for weak) and associates it with the least-loaded
// sector in the deployment — the natural load balancing the paper
// observes when devices land on different sectors of the same tower.
// It panics when the deployment has no cells.
func (n *Network) Attach(name string, signalDBm float64) *Device {
	cells := n.cells()
	if len(cells) == 0 {
		panic("cellular: Attach with no base stations")
	}
	best := cells[0]
	for _, c := range cells[1:] {
		if c.attached < best.attached {
			best = c
		}
	}
	return n.AttachTo(name, signalDBm, best)
}

// AttachTo creates a device pinned to a specific sector.
func (n *Network) AttachTo(name string, signalDBm float64, cell *Cell) *Device {
	d := &Device{
		name:   name,
		net:    n,
		cell:   cell,
		signal: signalDBm,
	}
	d.capDL, d.capUL = radioCaps(signalDBm)
	cell.attached++
	return d
}

// RadioCaps maps a signal strength in dBm to the per-device downlink and
// uplink rate ceilings (bits/s) under HSPA radio conditions — the same
// mapping devices receive at attach. Harnesses use it to derive realistic
// phone rates for the prototype-path experiments.
func RadioCaps(signalDBm float64) (dl, ul float64) {
	return radioCaps(signalDBm)
}

// LTERadioCaps is the LTE per-device mapping: Cat-3 class handsets reach
// ≈25 Mbps down / 10 Mbps up under strong signal, degrading towards the
// cell edge like the HSPA curve but from a far higher ceiling.
func LTERadioCaps(signalDBm float64) (dl, ul float64) {
	frac := (signalDBm + 110) / 35 // 0 at −110 dBm, 1 at −75
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	dl = (4 + frac*21) * linksim.Mbps
	ul = dl * (0.30 + 0.12*frac)
	if max := 10 * linksim.Mbps; ul > max {
		ul = max
	}
	return dl, ul
}

// radioCaps maps signal strength to per-device rate ceilings. The anchors
// reproduce the per-device maxima the paper reports (Table 3: downlink up
// to ≈3.4 Mbps, uplink up to ≈2.4 Mbps) degrading towards cell edge.
func radioCaps(signalDBm float64) (dl, ul float64) {
	// Piecewise linear between (−75 dBm → 3.3 Mbps) and (−105 dBm → 0.9).
	frac := (signalDBm + 105) / 30 // 0 at −105, 1 at −75
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	dl = (0.9 + frac*2.4) * linksim.Mbps
	// The uplink degrades faster towards the cell edge than the downlink
	// (handset transmit power is the binding constraint), so the UL/DL
	// ratio itself shrinks with weakening signal.
	ul = dl * (0.45 + 0.27*frac)
	if max := 2.45 * linksim.Mbps; ul > max {
		ul = max
	}
	return dl, ul
}

// Detach removes the device from its serving cell (e.g. before a
// day-scale re-association in a measurement campaign). Using a detached
// device panics on the next transfer via its nil cell.
func (d *Device) Detach() {
	if d.cell != nil {
		d.cell.attached--
		d.cell = nil
	}
}

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// Cell returns the serving sector.
func (d *Device) Cell() *Cell { return d.cell }

// WarmUp promotes the device straight to DCH, modelling the 0.1 s-spaced
// ICMP train the paper uses to pre-establish the channel ("H" mode).
func (d *Device) WarmUp() { d.rrc.WarmUp(d.net.sim.Clock().Now()) }

// Transfer is an in-flight or completed device transfer.
type Transfer struct {
	dev      *Device
	bits     float64
	start    float64 // request time
	end      float64 // completion time; NaN while in flight
	flow     *linksim.Flow
	done     bool
	acqDelay float64 // the RRC promotion paid
}

// Direction selects downlink or uplink.
type Direction int

// Transfer directions.
const (
	Downlink Direction = iota
	Uplink
)

// String implements fmt.Stringer.
func (dir Direction) String() string {
	if dir == Uplink {
		return "uplink"
	}
	return "downlink"
}

// StartTransfer begins a transfer of the given size; onDone (optional)
// fires at completion with the finished Transfer. The measured duration
// includes any RRC promotion delay, exactly as the paper's wget/iperf
// probes would observe it.
func (d *Device) StartTransfer(dir Direction, bits float64, onDone func(*Transfer)) *Transfer {
	if bits <= 0 {
		panic(fmt.Sprintf("cellular: transfer of %v bits on %s", bits, d.name))
	}
	clock := d.net.sim.Clock()
	tr := &Transfer{
		dev:   d,
		bits:  bits,
		start: clock.Now(),
		end:   math.NaN(),
	}
	d.net.activeTransfers++
	d.net.ensureRefresh()
	tr.acqDelay = d.rrc.Begin(tr.start, d.net.params, d.net.rng)
	begin := func() {
		if tr.done { // aborted during its promotion
			return
		}
		var channel, backhaul *linksim.Link
		var cap float64
		if dir == Downlink {
			channel, backhaul, cap = d.cell.dl, d.cell.bs.bhDL, d.capDL
		} else {
			channel, backhaul, cap = d.cell.ul, d.cell.bs.bhUL, d.capUL
		}
		pp := d.net.params
		fading := stats.TruncNormal{
			Mean: pp.FadingMean, Std: pp.FadingStd, Lo: pp.FadingLo, Hi: pp.FadingHi,
		}.Sample(d.net.rng)
		tr.flow = d.net.sim.StartFlow(linksim.FlowSpec{
			Name:    fmt.Sprintf("%s/%s", d.name, dir),
			Bits:    bits,
			RateCap: cap * fading,
			Path:    []*linksim.Link{channel, backhaul},
			OnDone: func(*linksim.Flow) {
				tr.done = true
				tr.end = clock.Now()
				d.net.activeTransfers--
				d.rrc.End(tr.end)
				if onDone != nil {
					onDone(tr)
				}
			},
		})
	}
	if tr.acqDelay > 0 {
		clock.After(tr.acqDelay, begin)
	} else {
		begin()
	}
	return tr
}

// Abort cancels an in-flight transfer without firing its callback.
func (t *Transfer) Abort() {
	if t.done {
		return
	}
	t.done = true
	t.end = t.dev.net.sim.Clock().Now()
	if t.flow != nil && !t.flow.Done() {
		t.flow.Abort()
	}
	t.dev.net.activeTransfers--
	t.dev.rrc.End(t.end)
}

// Duration returns the request-to-completion time in seconds, including
// any RRC acquisition delay; NaN while in flight.
func (t *Transfer) Duration() float64 { return t.end - t.start }

// Throughput returns bits/Duration in bits/s; NaN while in flight.
func (t *Transfer) Throughput() float64 {
	dur := t.Duration()
	if !(dur > 0) {
		return math.NaN()
	}
	return t.bits / dur
}
