package cellular

import (
	"math"
	"math/rand"
	"testing"

	"threegol/internal/diurnal"
	"threegol/internal/linksim"
	"threegol/internal/simclock"
)

func quietNetwork(t *testing.T, sectors int) (*Network, *linksim.Simulator) {
	t.Helper()
	sim := linksim.New(simclock.New())
	net := NewNetwork(sim, rand.New(rand.NewSource(1)), DefaultParams())
	net.AddBaseStation(BaseStationConfig{
		Name:    "bs0",
		Sectors: sectors,
		// Zero background load so rates are deterministic up to fading.
		Load: diurnal.New([24]float64{}),
	})
	return net, sim
}

func noFadingParams() Params {
	p := DefaultParams()
	p.FadingMean = 1
	p.FadingStd = 0
	p.FadingLo = 1
	p.FadingHi = 1
	return p
}

func TestAttachPrefersLeastLoadedSector(t *testing.T) {
	net, _ := quietNetwork(t, 2)
	d1 := net.Attach("d1", -85)
	d2 := net.Attach("d2", -85)
	d3 := net.Attach("d3", -85)
	if d1.Cell() == d2.Cell() {
		t.Error("first two devices should land on different sectors")
	}
	if d3.Cell().attached != 2 && d1.Cell().attached != 2 {
		t.Error("third device should join one of the sectors, making it 2")
	}
}

func TestAttachPanicsWithoutBaseStations(t *testing.T) {
	sim := linksim.New(simclock.New())
	net := NewNetwork(sim, rand.New(rand.NewSource(1)), DefaultParams())
	defer func() {
		if recover() == nil {
			t.Error("Attach with no cells did not panic")
		}
	}()
	net.Attach("d", -85)
}

func TestRadioCapsMonotoneInSignal(t *testing.T) {
	prevDL, prevUL := -1.0, -1.0
	for sig := -110.0; sig <= -70; sig += 5 {
		dl, ul := radioCaps(sig)
		if dl < prevDL || ul < prevUL {
			t.Fatalf("caps not monotone at %v dBm: dl=%v ul=%v", sig, dl, ul)
		}
		if ul >= dl {
			t.Errorf("uplink cap %v should be below downlink %v at %v dBm", ul, dl, sig)
		}
		prevDL, prevUL = dl, ul
	}
	// Anchors: strong signal approaches the paper's per-device maxima.
	dl, ul := radioCaps(-75)
	if dl < 3.0*linksim.Mbps || dl > 3.6*linksim.Mbps {
		t.Errorf("strong-signal DL cap = %v Mbps, want ≈3.3", dl/linksim.Mbps)
	}
	if ul > 2.45*linksim.Mbps {
		t.Errorf("UL cap %v exceeds HSUPA per-device ceiling", ul/linksim.Mbps)
	}
}

func TestSingleTransferThroughput(t *testing.T) {
	sim := linksim.New(simclock.New())
	net := NewNetwork(sim, rand.New(rand.NewSource(1)), noFadingParams())
	net.AddBaseStation(BaseStationConfig{Name: "bs", Sectors: 1, Load: diurnal.New([24]float64{})})
	d := net.Attach("d", -82)
	d.WarmUp() // no promotion delay
	var done *Transfer
	d.StartTransfer(Downlink, 2*linksim.MB, func(tr *Transfer) { done = tr })
	sim.Run()
	if done == nil {
		t.Fatal("transfer did not complete")
	}
	if got := done.Throughput(); !approx(got, d.capDL, 0.01) {
		t.Errorf("throughput = %v, want radio cap %v", got, d.capDL)
	}
	if done.acqDelay != 0 {
		t.Errorf("warm device paid acquisition delay %v", done.acqDelay)
	}
}

func TestIdleStartPaysPromotionDelay(t *testing.T) {
	sim := linksim.New(simclock.New())
	net := NewNetwork(sim, rand.New(rand.NewSource(1)), noFadingParams())
	net.AddBaseStation(BaseStationConfig{Name: "bs", Sectors: 1, Load: diurnal.New([24]float64{})})
	d := net.Attach("d", -82)
	if d.rrc.state != rrcIdle {
		t.Fatalf("fresh device RRC = %v, want IDLE", d.rrc.state)
	}
	var cold *Transfer
	d.StartTransfer(Downlink, 2*linksim.MB, func(tr *Transfer) { cold = tr })
	sim.Run()
	if cold.acqDelay < 1.5 || cold.acqDelay > 2.5 {
		t.Errorf("idle acquisition delay = %v, want ≈2±20%%", cold.acqDelay)
	}
	// Same size transferred warm must be faster by about the delay.
	d2 := net.Attach("d2", -82)
	d2.WarmUp()
	var warm *Transfer
	d2.StartTransfer(Downlink, 2*linksim.MB, func(tr *Transfer) { warm = tr })
	sim.Run()
	if warm.Duration() >= cold.Duration() {
		t.Errorf("warm %vs not faster than cold %vs", warm.Duration(), cold.Duration())
	}
}

func TestRRCDemotionWalk(t *testing.T) {
	sim := linksim.New(simclock.New())
	net := NewNetwork(sim, rand.New(rand.NewSource(1)), noFadingParams())
	net.AddBaseStation(BaseStationConfig{Name: "bs", Sectors: 1, Load: diurnal.New([24]float64{})})
	d := net.Attach("d", -82)
	d.WarmUp()
	tr := d.StartTransfer(Downlink, 1*linksim.MB, nil)
	sim.Run()
	// Demotion is worked out when the machine is next stepped: read the
	// state the quiet spell since the transfer's end has reached.
	p := net.params
	for _, step := range []struct {
		quiet float64
		want  rrcState
	}{
		{p.DCHInactivity * 0.8, rrcDch},
		{p.DCHInactivity, rrcFach},
		{p.DCHInactivity + p.FACHInactivity*0.5, rrcFach},
		{p.DCHInactivity + p.FACHInactivity, rrcIdle},
	} {
		r := d.rrc
		r.settle(tr.end+step.quiet, p)
		if r.state != step.want {
			t.Errorf("RRC %vs after the transfer = %v, want %v", step.quiet, r.state, step.want)
		}
	}
}

// With LTE's 0.1 s IDLE promotion, a handset found in FACH pays no more
// than that: FACH's 0.6 s is HSPA's, never dearer than IDLE.
func TestFACHPromotionNeverExceedsIdle(t *testing.T) {
	p := DefaultParams()
	p.PromotionIdle = 0.1
	rng := rand.New(rand.NewSource(1))
	var r RRC
	r.WarmUp(0)
	if owed := r.Begin(p.DCHInactivity+1, p, rng); owed < 0.08 || owed > 0.12 {
		t.Errorf("promotion from FACH = %vs, want IDLE's 0.1 s ±20%%", owed)
	}
}

func TestRRCStaysDCHBetweenBackToBackTransfers(t *testing.T) {
	sim := linksim.New(simclock.New())
	net := NewNetwork(sim, rand.New(rand.NewSource(1)), noFadingParams())
	net.AddBaseStation(BaseStationConfig{Name: "bs", Sectors: 1, Load: diurnal.New([24]float64{})})
	d := net.Attach("d", -82)
	d.WarmUp()
	var second *Transfer
	d.StartTransfer(Downlink, 1*linksim.MB, func(*Transfer) {
		// Immediately chain another: still DCH, no delay.
		second = d.StartTransfer(Downlink, 1*linksim.MB, nil)
	})
	sim.Run()
	if second == nil || second.acqDelay != 0 {
		t.Errorf("back-to-back transfer paid delay: %+v", second)
	}
}

func TestSharedChannelSplitsAcrossDevices(t *testing.T) {
	sim := linksim.New(simclock.New())
	net := NewNetwork(sim, rand.New(rand.NewSource(1)), noFadingParams())
	net.AddBaseStation(BaseStationConfig{Name: "bs", Sectors: 1, Load: diurnal.New([24]float64{})})
	// Enough devices that the shared channel, not radio caps, binds.
	const n = 6
	durations := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		d := net.AttachTo("d", -75, net.BaseStations()[0].Sectors()[0])
		d.WarmUp()
		d.StartTransfer(Downlink, 2*linksim.MB, func(tr *Transfer) {
			durations = append(durations, tr.Duration())
		})
	}
	sim.Run()
	if len(durations) != n {
		t.Fatalf("%d of %d transfers completed", len(durations), n)
	}
	// Aggregate ≈ cell capacity: n transfers of 16 Mbit over 7.2 Mbps
	// shared channel ≈ 13.3 s each (all equal, all finish together).
	want := float64(n) * 2 * linksim.MB / (7.2 * linksim.Mbps)
	for _, dur := range durations {
		if !approx(dur, want, 0.02) {
			t.Errorf("duration = %v, want ≈%v (channel-bound)", dur, want)
		}
	}
}

func TestHSUPAPlateau(t *testing.T) {
	// The paper's Fig 3: uplink aggregation plateaus near the HSUPA cell
	// capacity at ~5 devices. With one sector, aggregate uplink must not
	// exceed HSUPACellCap regardless of device count.
	sim := linksim.New(simclock.New())
	net := NewNetwork(sim, rand.New(rand.NewSource(1)), noFadingParams())
	net.AddBaseStation(BaseStationConfig{Name: "bs", Sectors: 1, Load: diurnal.New([24]float64{})})
	cell := net.BaseStations()[0].Sectors()[0]
	const n = 8
	var lastEnd float64
	for i := 0; i < n; i++ {
		d := net.AttachTo("d", -75, cell)
		d.WarmUp()
		d.StartTransfer(Uplink, 2*linksim.MB, func(tr *Transfer) {
			if tr.end > lastEnd {
				lastEnd = tr.end
			}
		})
	}
	sim.Run()
	aggregate := float64(n) * 2 * linksim.MB / lastEnd
	if aggregate > net.params.HSUPACellCap*1.001 {
		t.Errorf("uplink aggregate %v exceeds HSUPA capacity %v",
			aggregate, net.params.HSUPACellCap)
	}
	if aggregate < 0.9*net.params.HSUPACellCap {
		t.Errorf("uplink aggregate %v should saturate near %v",
			aggregate, net.params.HSUPACellCap)
	}
}

func TestMultiSectorExceedsSingleCellUplink(t *testing.T) {
	// Loc3 behaviour: devices on different sectors can jointly exceed one
	// sector's HSUPA capacity.
	sim := linksim.New(simclock.New())
	net := NewNetwork(sim, rand.New(rand.NewSource(1)), noFadingParams())
	net.AddBaseStation(BaseStationConfig{Name: "bs", Sectors: 2, Load: diurnal.New([24]float64{})})
	var lastEnd float64
	const n = 8
	for i := 0; i < n; i++ {
		d := net.Attach("d", -75) // least-loaded attach spreads sectors
		d.WarmUp()
		d.StartTransfer(Uplink, 2*linksim.MB, func(tr *Transfer) {
			if tr.end > lastEnd {
				lastEnd = tr.end
			}
		})
	}
	sim.Run()
	aggregate := float64(n) * 2 * linksim.MB / lastEnd
	if aggregate <= net.params.HSUPACellCap {
		t.Errorf("two-sector aggregate %v should exceed one cell's %v",
			aggregate, net.params.HSUPACellCap)
	}
}

func TestBackgroundLoadReducesThroughput(t *testing.T) {
	// Same transfer at trough vs peak hour: peak must be slower.
	run := func(hour float64, peakUtil float64) float64 {
		clock := simclock.New()
		sim := linksim.New(clock)
		net := NewNetwork(sim, rand.New(rand.NewSource(1)), noFadingParams())
		net.AddBaseStation(BaseStationConfig{
			Name: "bs", Sectors: 1, Load: diurnal.Mobile, PeakUtilDL: peakUtil,
		})
		clock.RunUntil(hour * 3600)
		// Many devices so the shared channel binds.
		var lastEnd float64
		for i := 0; i < 6; i++ {
			d := net.Attach("d", -75)
			d.WarmUp()
			d.StartTransfer(Downlink, 2*linksim.MB, func(tr *Transfer) {
				if tr.end > lastEnd {
					lastEnd = tr.end
				}
			})
		}
		sim.Run()
		return 6 * 2 * linksim.MB / (lastEnd - hour*3600)
	}
	trough := run(4, 0.8) // 4 am
	peak := run(21, 0.8)  // 9 pm
	if peak >= trough {
		t.Errorf("peak-hour aggregate %v not below trough %v", peak, trough)
	}
}

func TestAbortTransferMidFlight(t *testing.T) {
	sim := linksim.New(simclock.New())
	net := NewNetwork(sim, rand.New(rand.NewSource(1)), noFadingParams())
	net.AddBaseStation(BaseStationConfig{Name: "bs", Sectors: 1, Load: diurnal.New([24]float64{})})
	d := net.Attach("d", -82)
	d.WarmUp()
	called := false
	tr := d.StartTransfer(Downlink, 100*linksim.MB, func(*Transfer) { called = true })
	sim.Clock().After(1, func() { tr.Abort() })
	sim.Run()
	if called {
		t.Error("aborted transfer fired its callback")
	}
	if !tr.done {
		t.Error("aborted transfer should report Done")
	}
	if net.activeTransfers != 0 {
		t.Errorf("activeTransfers = %d after abort, want 0", net.activeTransfers)
	}

	// Aborted during its promotion, a cold transfer never starts its flow.
	cold := net.Attach("cold", -82)
	tr = cold.StartTransfer(Downlink, 100*linksim.MB, func(*Transfer) { called = true })
	sim.Clock().After(0.1, func() { tr.Abort() })
	sim.Run()
	if called || tr.flow != nil {
		t.Errorf("a transfer aborted during its %vs promotion ran (callback %v, flow %v)", tr.acqDelay, called, tr.flow != nil)
	}
	if net.activeTransfers != 0 || cold.rrc.active != 0 {
		t.Errorf("after an abort during promotion: activeTransfers %d, RRC in flight %d, want 0 and 0",
			net.activeTransfers, cold.rrc.active)
	}
}

func TestCellFreeCapacityAccounting(t *testing.T) {
	sim := linksim.New(simclock.New())
	net := NewNetwork(sim, rand.New(rand.NewSource(1)), noFadingParams())
	net.AddBaseStation(BaseStationConfig{Name: "bs", Sectors: 1, Load: diurnal.New([24]float64{})})
	cell := net.BaseStations()[0].Sectors()[0]
	if got := cell.Utilization(); got != 0 {
		t.Errorf("idle utilization = %v, want 0", got)
	}
	free := func() float64 { return cell.dl.Capacity() * (1 - cell.dl.Utilization()) }
	free0 := free()
	d := net.Attach("d", -82)
	d.WarmUp()
	d.StartTransfer(Downlink, 100*linksim.MB, nil)
	sim.RunUntil(1)
	if free() >= free0 {
		t.Error("free capacity did not shrink under load")
	}
	if cell.Utilization() <= 0 {
		t.Error("utilization should be positive under load")
	}
}

func TestBuildSitePresets(t *testing.T) {
	for _, p := range MeasurementLocations {
		site := BuildSite(p, 42)
		if got := len(site.Network.BaseStations()); got != p.NumBS {
			t.Errorf("%s: %d base stations, want %d", p.Name, got, p.NumBS)
		}
		wantHour := p.Hour
		if wantHour < 0 {
			wantHour = 10
		}
		if got := site.Sim.Clock().Now(); !approx(got, wantHour*3600, 1e-9) {
			t.Errorf("%s: clock at %v, want %v", p.Name, got, wantHour*3600)
		}
		devs := site.AttachDevices(3)
		if len(devs) != 3 {
			t.Fatalf("%s: attached %d devices", p.Name, len(devs))
		}
		for _, d := range devs {
			if math.Abs(d.signal-p.SignalDBm) > 3 {
				t.Errorf("%s: device signal %v too far from preset %v",
					p.Name, d.signal, p.SignalDBm)
			}
		}
	}
}

func TestFindLocation(t *testing.T) {
	if _, ok := FindLocation(MeasurementLocations, "loc3"); !ok {
		t.Error("loc3 not found")
	}
	if _, ok := FindLocation(MeasurementLocations, "nowhere"); ok {
		t.Error("bogus location found")
	}
}

func TestTransferPanicsOnZeroBits(t *testing.T) {
	net, _ := quietNetwork(t, 1)
	d := net.Attach("d", -85)
	defer func() {
		if recover() == nil {
			t.Error("zero-bit transfer did not panic")
		}
	}()
	d.StartTransfer(Downlink, 0, nil)
}

func TestDirectionString(t *testing.T) {
	if Downlink.String() != "downlink" || Uplink.String() != "uplink" {
		t.Error("Direction.String mismatch")
	}
}

func approx(got, want, tol float64) bool {
	if want == 0 {
		return math.Abs(got) <= tol
	}
	return math.Abs(got-want) <= tol*math.Abs(want)
}
