// Package measure reproduces the paper's §3 active-measurement study over
// the cellular model: programmed devices download and upload 2 MB files
// while the harness records aggregate and per-device throughput by
// location, hour, cluster size and serving base station — the raw series
// behind Fig. 3, Fig. 4, Fig. 5 and Tables 2–3.
package measure

import (
	"fmt"
	"math"

	"threegol/internal/cellular"
	"threegol/internal/linksim"
	"threegol/internal/stats"
)

// ProbeBytes is the transfer size of each probe (the paper uses 2 MB
// files with wget/iperf).
const ProbeBytes = 2 * 1024 * 1024

// Sample is one probe measurement.
type Sample struct {
	Location string
	Hour     float64
	Cluster  int // number of devices probing simultaneously
	Dir      cellular.Direction
	Device   string
	BS       string // serving base station
	Mbps     float64
}

// round runs one synchronized probe round: every device transfers
// ProbeBytes in direction dir starting now; returns one Sample per
// device. Devices are pre-warmed (the paper's handsets were active and
// NTP-synchronised).
func round(site *cellular.Site, devs []*cellular.Device, dir cellular.Direction, cluster int) []Sample {
	samples := make([]Sample, 0, len(devs))
	hour := math.Mod(site.Sim.Clock().Now()/3600, 24)
	pending := len(devs)
	for _, d := range devs {
		d := d
		d.WarmUp()
		d.StartTransfer(dir, ProbeBytes*8, func(tr *cellular.Transfer) {
			samples = append(samples, Sample{
				Location: site.Preset.Name,
				Hour:     hour,
				Cluster:  cluster,
				Dir:      dir,
				Device:   d.Name(),
				BS:       d.Cell().BaseStation().Name(),
				Mbps:     tr.Throughput() / linksim.Mbps,
			})
			pending--
		})
	}
	// The round ends at its last completion, not at the background-load
	// refresh tick that may still be on the clock.
	for pending > 0 && site.Sim.Clock().Step() {
	}
	if pending != 0 {
		panic(fmt.Sprintf("measure: %d probes never completed", pending))
	}
	return samples
}

// AggregatePoint is one point of Fig. 3: total throughput achieved by n
// simultaneous devices.
type AggregatePoint struct {
	Location string
	Devices  int
	DownMbps float64
	UpMbps   float64
}

// Fig3 reproduces the device-scaling experiment: starting from one
// device, a new device joins every 20 minutes and all active devices
// probe the channel together (reps rounds each for down- and uplink).
func Fig3(preset cellular.LocationPreset, maxDevices, reps int, seed int64) []AggregatePoint {
	if reps <= 0 {
		reps = 4
	}
	site := cellular.BuildSite(preset, seed)
	var devs []*cellular.Device
	var points []AggregatePoint
	for n := 1; n <= maxDevices; n++ {
		devs = append(devs, site.AttachDevices(1)...)
		pt := AggregatePoint{Location: preset.Name, Devices: n}
		for r := 0; r < reps; r++ {
			pt.DownMbps += sumMbps(round(site, devs, cellular.Downlink, n))
			pt.UpMbps += sumMbps(round(site, devs, cellular.Uplink, n))
		}
		pt.DownMbps /= float64(reps)
		pt.UpMbps /= float64(reps)
		points = append(points, pt)
		// Next device joins 20 minutes later.
		site.Sim.RunUntil(site.Sim.Clock().Now() + 20*60)
		site.Network.RefreshLoad()
	}
	return points
}

func sumMbps(samples []Sample) float64 {
	var t float64
	for _, s := range samples {
		t += s.Mbps
	}
	return t
}

// Campaign reproduces the five-day temporal study behind Fig. 4, Fig. 5
// and Table 3: at every hour of every day, groups of the given sizes
// probe down- and uplink; each probe yields one Sample.
func Campaign(preset cellular.LocationPreset, days int, groups []int, seed int64) []Sample {
	if days <= 0 {
		days = 5
	}
	if len(groups) == 0 {
		groups = []int{5, 3, 1}
	}
	maxGroup := 0
	for _, g := range groups {
		if g > maxGroup {
			maxGroup = g
		}
	}
	site := cellular.BuildSite(preset, seed)
	devs := site.AttachDevices(maxGroup)

	var samples []Sample
	startDay := math.Floor(site.Sim.Clock().Now() / 86400)
	for day := 0; day < days; day++ {
		if day > 0 {
			// Day-scale re-association: handsets come back on a possibly
			// different best server, so the campaign observes more than
			// one base station per location (as the paper reports).
			for _, d := range devs {
				d.Detach()
			}
			devs = site.AttachDevicesPrimary(maxGroup, day)
		}
		for hour := 0; hour < 24; hour++ {
			base := (startDay+float64(day+1))*86400 + float64(hour)*3600
			// Downloads start at :10, uploads at :20 (the paper's
			// schedule), one group after another.
			at := base + 10*60
			for _, g := range groups {
				site.Sim.RunUntil(math.Max(at, site.Sim.Clock().Now()))
				site.Network.RefreshLoad()
				samples = append(samples, round(site, devs[:g], cellular.Downlink, g)...)
				at += 150
			}
			at = base + 20*60
			for _, g := range groups {
				site.Sim.RunUntil(math.Max(at, site.Sim.Clock().Now()))
				site.Network.RefreshLoad()
				samples = append(samples, round(site, devs[:g], cellular.Uplink, g)...)
				at += 150
			}
		}
	}
	return samples
}

// HourlyPoint is one Fig. 4 point: per-device throughput for a group
// size at an hour of day, averaged across days.
type HourlyPoint struct {
	Location  string
	Hour      int
	Group     int
	Dir       cellular.Direction
	MeanMbps  float64 // mean per-device throughput
	TotalMbps float64 // group aggregate
}

// Fig4 aggregates a Campaign into hourly per-device throughput series.
func Fig4(samples []Sample) []HourlyPoint {
	type key struct {
		loc   string
		hour  int
		group int
		dir   cellular.Direction
	}
	acc := make(map[key][]float64)
	for _, s := range samples {
		k := key{s.Location, int(s.Hour), s.Cluster, s.Dir}
		acc[k] = append(acc[k], s.Mbps)
	}
	var out []HourlyPoint
	for k, v := range acc {
		mean := stats.Mean(v)
		out = append(out, HourlyPoint{
			Location: k.loc, Hour: k.hour, Group: k.group, Dir: k.dir,
			MeanMbps:  mean,
			TotalMbps: mean * float64(k.group),
		})
	}
	return out
}

// BSViolin is one Fig. 5 violin: the distribution of single-device
// throughput served by one base station.
type BSViolin struct {
	Location string
	BS       string
	Dir      cellular.Direction
	Violin   stats.Violin
}

// Fig5 groups single-device samples by serving base station.
func Fig5(samples []Sample, bins int) []BSViolin {
	type key struct {
		loc, bs string
		dir     cellular.Direction
	}
	acc := make(map[key][]float64)
	for _, s := range samples {
		if s.Cluster != 1 {
			continue
		}
		k := key{s.Location, s.BS, s.Dir}
		acc[k] = append(acc[k], s.Mbps)
	}
	var out []BSViolin
	for k, v := range acc {
		out = append(out, BSViolin{
			Location: k.loc, BS: k.bs, Dir: k.dir,
			Violin: stats.NewViolin(v, bins),
		})
	}
	return out
}

// Table3Row is one row of Table 3: per-device throughput statistics for
// a cluster size.
type Table3Row struct {
	Cluster                   int
	UpMean, UpMax, UpSd       float64
	DownMean, DownMax, DownSd float64
}

// Table3 computes per-device throughput statistics by cluster size.
func Table3(samples []Sample) []Table3Row {
	clusters := map[int]bool{}
	for _, s := range samples {
		clusters[s.Cluster] = true
	}
	var out []Table3Row
	for _, c := range sortedKeys(clusters) {
		row := Table3Row{Cluster: c}
		var up, down []float64
		for _, s := range samples {
			if s.Cluster != c {
				continue
			}
			if s.Dir == cellular.Uplink {
				up = append(up, s.Mbps)
			} else {
				down = append(down, s.Mbps)
			}
		}
		us, ds := stats.Summarize(up), stats.Summarize(down)
		row.UpMean, row.UpMax, row.UpSd = us.Mean, us.Max, us.Std
		row.DownMean, row.DownMax, row.DownSd = ds.Mean, ds.Max, ds.Std
		out = append(out, row)
	}
	return out
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Table2Row is one row of Table 2: DSL vs 3-device 3G throughput and the
// 3GOL speedup at the preset's measurement hour.
type Table2Row struct {
	Location    string
	Description string
	Hour        float64
	DSLDown     float64 // Mbps
	DSLUp       float64
	ThreeGDown  float64 // 3-device aggregate, Mbps
	ThreeGUp    float64
	SpeedupDown float64 // (DSL+3G)/DSL
	SpeedupUp   float64
	// PaperDown/PaperUp are the paper's measured aggregates for
	// comparison (0 if unreported).
	PaperDown, PaperUp float64
}

// Table2 measures every preset with a 3-device cluster at its listed
// hour.
func Table2(presets []cellular.LocationPreset, reps int, seed int64) []Table2Row {
	if reps <= 0 {
		reps = 4
	}
	var rows []Table2Row
	for i, p := range presets {
		site := cellular.BuildSite(p, seed+int64(i)*13)
		devs := site.AttachDevices(3)
		var down, up float64
		for r := 0; r < reps; r++ {
			down += sumMbps(round(site, devs, cellular.Downlink, 3))
			up += sumMbps(round(site, devs, cellular.Uplink, 3))
		}
		down /= float64(reps)
		up /= float64(reps)
		dslDown := p.DSLDown / linksim.Mbps
		dslUp := p.DSLUp / linksim.Mbps
		rows = append(rows, Table2Row{
			Location:    p.Name,
			Description: p.Description,
			Hour:        p.Hour,
			DSLDown:     dslDown,
			DSLUp:       dslUp,
			ThreeGDown:  down,
			ThreeGUp:    up,
			SpeedupDown: (dslDown + down) / dslDown,
			SpeedupUp:   (dslUp + up) / dslUp,
			PaperDown:   p.Paper3GDown / linksim.Mbps,
			PaperUp:     p.Paper3GUp / linksim.Mbps,
		})
	}
	return rows
}
