// Command 3golpermitload drives a permit plane with a fleet of
// simulated devices over real HTTP — the load harness that sizes the
// production backend of §2.4 ("the scalability requirements on such a
// service are rather low") against an actual six-digit client count
// instead of an assertion.
//
// Each simulated client follows the device-side cache protocol: an
// immediate first refresh, then TTL-jittered proactive refreshes while
// granted (permitplane.JitterFrac — the same stream the real cache
// draws from), a 5 s recheck while denied and a 2 s back-off after
// errors. Client time runs on a virtual clock accelerated by
// -timescale, so a 100k-client hour of permit traffic fits in seconds
// of wall time while every request still crosses a real TCP connection.
//
// With no -backend the harness spins up an in-process sharded plane
// (-shards) listening on a loopback port, with cells cell-0..cell-N-1
// whose utilisation cycles 0.0,0.1,…,0.9 — at the default 0.7
// threshold, 70% of the population holds a permit. (The decision-level
// grant ratio in the report is lower: denied clients recheck every 5
// virtual seconds while granted ones only return near TTL expiry, so
// denials dominate the request stream — exactly the asymmetry a real
// deployment sees.) Point -backend at a running 3golpermitd to
// load-test a real deployment instead (feed it the same cell names;
// scripts/bench.sh does exactly that).
//
//	3golpermitload -clients 100000 -json BENCH_permit.json
//	3golpermitload -smoke           # small run, asserts invariants
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"threegol/internal/clock"
	"threegol/internal/permit"
	"threegol/internal/permitplane"
	"threegol/internal/simclock"
	"threegol/internal/stats"
)

// latency sketch bounds: [0, 2s) in 2000 bins → 1 ms resolution.
const (
	latencyLo   = 0
	latencyHi   = 2.0
	latencyBins = 2000
)

type options struct {
	backend   string
	clients   int
	cells     int
	shards    int
	threshold float64
	ttl       time.Duration
	duration  float64 // virtual seconds
	timescale float64
	batch     int
	workers   int
	seed      int64
	jsonPath  string
	smoke     bool

	// chaos mode (see chaos.go)
	chaos      bool
	permitd    string
	walRoot    string
	eventsPath string
	killAfter  float64
	downtime   time.Duration
}

// result is the harness's JSON report — the shape scripts/bench.sh
// stores as BENCH_permit.json.
type result struct {
	Backend         string  `json:"backend"`
	Clients         int     `json:"clients"`
	Shards          int     `json:"shards,omitempty"`
	VirtualSeconds  float64 `json:"virtual_seconds"`
	Timescale       float64 `json:"timescale"`
	WallSeconds     float64 `json:"wall_seconds"`
	Decisions       int64   `json:"decisions"`
	Grants          int64   `json:"grants"`
	Denials         int64   `json:"denials"`
	Errors          int64   `json:"errors"`
	GrantRatio      float64 `json:"grant_ratio"`
	Batches         int64   `json:"batches"`
	DecisionsPerSec float64 `json:"decisions_per_sec"`
	ClientsPerSec   float64 `json:"clients_per_sec"`
	LatencyP50Ms    float64 `json:"latency_p50_ms"`
	LatencyP99Ms    float64 `json:"latency_p99_ms"`
	LatencyMeanMs   float64 `json:"latency_mean_ms"`

	// Chaos carries the kill/recovery measurements of a -chaos run.
	Chaos *chaosResult `json:"chaos,omitempty"`
}

func main() {
	var o options
	flag.StringVar(&o.backend, "backend", "", "backend base URL; empty spins up an in-process sharded plane")
	flag.IntVar(&o.clients, "clients", 100000, "simulated clients")
	flag.IntVar(&o.cells, "cells", 256, "distinct cells (cell-0..cell-N-1)")
	flag.IntVar(&o.shards, "shards", 4, "shards of the in-process plane (ignored with -backend)")
	flag.Float64Var(&o.threshold, "threshold", permit.DefaultThreshold, "in-process acceptance threshold")
	flag.DurationVar(&o.ttl, "ttl", permit.DefaultTTL, "permit TTL the clients assume (and the in-process plane grants)")
	flag.Float64Var(&o.duration, "duration", 600, "virtual seconds of client behaviour to simulate")
	flag.Float64Var(&o.timescale, "timescale", 60, "virtual seconds per wall second")
	flag.IntVar(&o.batch, "batch", 512, "max permit requests per batch RPC")
	flag.IntVar(&o.workers, "workers", 32, "concurrent RPC workers")
	flag.Int64Var(&o.seed, "seed", 1, "jitter seed")
	flag.StringVar(&o.jsonPath, "json", "", "write the result report to this file")
	flag.BoolVar(&o.smoke, "smoke", false, "small fast run asserting invariants (overrides -clients/-duration)")
	flag.BoolVar(&o.chaos, "chaos", false, "spawn a real 3golpermitd, SIGKILL it mid-load, verify WAL recovery (requires -permitd)")
	flag.StringVar(&o.permitd, "permitd", "", "path to the 3golpermitd binary a -chaos run spawns")
	flag.StringVar(&o.walRoot, "wal", "", "WAL root for the -chaos daemon (empty = a temp dir, removed afterwards)")
	flag.StringVar(&o.eventsPath, "events", "", "write chaos lifecycle events to this file as JSONL")
	flag.Float64Var(&o.killAfter, "kill-after", 0.4, "fraction of the run's wall time after which -chaos kills the daemon")
	flag.DurationVar(&o.downtime, "downtime", 750*time.Millisecond, "minimum time -chaos holds the daemon down before restarting it")
	flag.Parse()

	if o.smoke {
		o.clients = 2000
		o.cells = 64
		o.duration = 240
		o.timescale = 120
		if o.chaos {
			// A chaos cycle needs enough wall time for the kill, the
			// WAL replay and copy, and a recovered-phase tail: 10 s.
			o.duration = 600
			o.timescale = 60
		}
	}
	if o.clients <= 0 || o.batch <= 0 || o.workers <= 0 || o.timescale <= 0 || o.duration <= 0 {
		log.Fatal("3golpermitload: -clients, -batch, -workers, -timescale and -duration must be positive")
	}

	var res *result
	var err error
	if o.chaos {
		res, err = runChaos(o)
	} else {
		res, err = run(o)
	}
	if err != nil {
		log.Fatalf("3golpermitload: %v", err)
	}
	log.Printf("3golpermitload: %d clients, %d decisions (%d grants, %d denials, %d errors) in %.1fs wall — grant ratio %.3f, p50 %.2fms, p99 %.2fms",
		res.Clients, res.Decisions, res.Grants, res.Denials, res.Errors,
		res.WallSeconds, res.GrantRatio, res.LatencyP50Ms, res.LatencyP99Ms)

	if o.jsonPath != "" {
		buf, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			log.Fatalf("3golpermitload: encoding report: %v", err)
		}
		if err := os.WriteFile(o.jsonPath, append(buf, '\n'), 0o644); err != nil {
			log.Fatalf("3golpermitload: writing %s: %v", o.jsonPath, err)
		}
	}
	if o.smoke {
		check := checkSmoke
		if o.chaos {
			check = checkChaosSmoke
		}
		if err := check(res); err != nil {
			log.Fatalf("3golpermitload: smoke failed: %v", err)
		}
		log.Print("3golpermitload: smoke ok")
	}
}

// checkSmoke asserts the invariants the CI smoke stage relies on.
func checkSmoke(r *result) error {
	switch {
	case r.Errors != 0:
		return fmt.Errorf("%d request errors", r.Errors)
	case r.Grants+r.Denials != r.Decisions:
		return fmt.Errorf("grants %d + denials %d != decisions %d", r.Grants, r.Denials, r.Decisions)
	case r.Decisions < int64(r.Clients):
		return fmt.Errorf("only %d decisions for %d clients (not every client was served)", r.Decisions, r.Clients)
	case r.GrantRatio <= 0 || r.GrantRatio >= 1:
		return fmt.Errorf("grant ratio %.3f outside (0,1); the mixed-utilisation cells should split decisions", r.GrantRatio)
	}
	return nil
}

// cellName returns the i-th cell's name; utilisation cycles 0.0..0.9 so
// a 0.7 threshold grants 70% of a uniformly-spread population.
func cellName(i int) string { return fmt.Sprintf("cell-%d", i) }

func cellUtil(i int) float64 { return float64(i%10) / 10 }

// waitReady polls an external backend until it answers HTTP (any
// status counts — a 400 from /permit proves the daemon is up), so
// scripts can background 3golpermitd and start the harness immediately.
func waitReady(clk clock.Clock, url string, timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := clk.Now().Add(timeout)
	for {
		resp, err := hc.Get(url + "/permit")
		if err == nil {
			resp.Body.Close()
			return nil
		}
		if clk.Now().After(deadline) {
			return fmt.Errorf("backend %s not reachable after %v: %w", url, timeout, err)
		}
		clk.Sleep(100 * time.Millisecond)
	}
}

func run(o options) (*result, error) {
	backendURL := o.backend
	inProcess := backendURL == ""
	if inProcess {
		table := permitplane.NewUtilTable(0, true)
		for i := 0; i < o.cells; i++ {
			table.Set(cellName(i), cellUtil(i))
		}
		plane := permitplane.New(permitplane.Config{
			Shards:      o.shards,
			Threshold:   o.threshold,
			TTL:         o.ttl,
			Utilization: table.Get,
		})
		mux := http.NewServeMux()
		mux.Handle("/", plane)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("listening for the in-process plane: %w", err)
		}
		srv := &http.Server{Handler: mux}
		go func() { _ = srv.Serve(ln) }() //3golvet:allow goroleak — harness-lifetime server, closed below
		defer srv.Close()
		backendURL = "http://" + ln.Addr().String()
		log.Printf("3golpermitload: in-process plane with %d shards on %s", o.shards, backendURL)
	} else if err := waitReady(clock.System, backendURL, 10*time.Second); err != nil {
		return nil, err
	}

	// One shared transport sized for the worker pool, so the harness
	// measures the backend rather than its own connection churn.
	transport := &http.Transport{
		MaxIdleConns:        o.workers * 2,
		MaxIdleConnsPerHost: o.workers * 2,
	}
	defer transport.CloseIdleConnections()

	f := newFleet(o, backendURL, transport)
	f.run()

	res := f.report(o)
	if !inProcess {
		res.Shards = 0
	}
	return res, nil
}

// client is one simulated device's scheduling state, owned by the
// dispatcher goroutine.
type client struct {
	name  string
	cell  string
	draws uint64 // jitter stream position
}

// job is one batch RPC's worth of due clients.
type job struct {
	indices []int
	reqs    []permitplane.PermitRequest
}

// outcome reports one client's decision back to the dispatcher.
// next is the delay, in virtual seconds, before the client's next
// refresh — the dispatcher adds it to the current virtual time.
type outcome struct {
	index   int
	granted bool
	err     bool
}

// done carries one finished job's outcomes.
type done struct {
	outcomes []outcome
}

// workerStats is one worker's private tallies, merged in worker order
// at the end of the run. The phase-split counters attribute each
// outcome to the chaos phase in effect when its RPC completed (all
// phaseBeforeKill outside -chaos).
type workerStats struct {
	grants, denials, errors int64
	batches                 int64
	phaseErrors             [phaseCount]int64
	phaseDecisions          [phaseCount]int64
	latency                 *stats.Sketch
}

// fleet runs the simulated client population against the backend.
type fleet struct {
	o       options
	clients []client
	pending simclock.Queue[int] // client indices by next refresh, virtual seconds
	jobs    chan job
	results chan done
	workers []*workerStats
	bc      *permitplane.BatchClient
	clk     clock.Clock
	start   time.Time
	wall    time.Duration
	// phase is the chaos phase (phaseBeforeKill/Outage/Recovered) the
	// orchestrator advances; workers read it to phase-split outcomes.
	phase atomic.Int32
}

func newFleet(o options, backendURL string, transport *http.Transport) *fleet {
	f := &fleet{
		o:       o,
		clients: make([]client, o.clients),
		jobs:    make(chan job),
		// Buffered to the worst-case in-flight job count so workers
		// never block reporting and the dispatcher never deadlocks.
		results: make(chan done, o.clients/o.batch+o.workers+1),
		workers: make([]*workerStats, o.workers),
		bc: &permitplane.BatchClient{
			BackendURL: backendURL,
			HTTPClient: &http.Client{Transport: transport, Timeout: 10 * time.Second},
		},
		clk: clock.System,
	}
	for i := range f.clients {
		f.clients[i] = client{
			name: fmt.Sprintf("c%d", i),
			cell: cellName(i % o.cells),
		}
		// Every client is due at t=0: the synchronised first wave is the
		// worst case the jittered cache exists to absorb.
		f.pending.Push(0, i)
	}
	for w := range f.workers {
		f.workers[w] = &workerStats{latency: stats.NewSketch(latencyLo, latencyHi, latencyBins)}
	}
	return f
}

// due reports whether a client's refresh is due at virtual time now.
func (f *fleet) due(now float64) bool {
	if f.pending.Len() == 0 {
		return false
	}
	at, _ := f.pending.Peek()
	return at <= now
}

// virtualNow converts elapsed wall time to virtual seconds.
func (f *fleet) virtualNow() float64 {
	return f.clk.Since(f.start).Seconds() * f.o.timescale
}

// nextDelay computes a client's next refresh delay in virtual seconds
// on the device cache's own schedule: jittered proactive refresh while
// granted, short recheck while denied, brief back-off on error.
func (f *fleet) nextDelay(c *client, out outcome) float64 {
	var ttl time.Duration
	if out.granted {
		ttl = f.o.ttl
	}
	return permitplane.RefreshDelay(out.err, ttl, 0, 0, func() float64 {
		n := c.draws
		c.draws++
		return permitplane.JitterFrac(f.o.seed, c.name, n)
	}).Seconds()
}

func (f *fleet) run() {
	var wg sync.WaitGroup
	for w := 0; w < f.o.workers; w++ {
		wg.Add(1)
		go f.worker(&wg, f.workers[w])
	}

	f.start = f.clk.Now()
	inflight := 0
	for {
		now := f.virtualNow()
		if now >= f.o.duration {
			break
		}
		// Dispatch every due client in batches.
		dispatched := false
		for f.due(now) {
			j := job{}
			for f.due(now) && len(j.indices) < f.o.batch {
				_, i := f.pending.Pop()
				j.indices = append(j.indices, i)
				j.reqs = append(j.reqs, permitplane.PermitRequest{
					Device: f.clients[i].name, Cell: f.clients[i].cell,
				})
			}
			f.jobs <- j
			inflight++
			dispatched = true
		}
		// Fold finished jobs back into the schedule.
		drained := f.drain(&inflight, false)
		if !dispatched && !drained {
			f.clk.Sleep(time.Millisecond)
		}
	}
	// Let in-flight RPCs finish and count, then stop the workers.
	for inflight > 0 {
		f.drain(&inflight, true)
	}
	close(f.jobs)
	wg.Wait()
	f.wall = f.clk.Since(f.start)
}

// drain folds completed jobs back into the schedule; block waits for at
// least one completion.
func (f *fleet) drain(inflight *int, block bool) bool {
	drained := false
	for {
		var d done
		if block && !drained {
			d = <-f.results
		} else {
			select {
			case d = <-f.results:
			default:
				return drained
			}
		}
		*inflight--
		now := f.virtualNow()
		for _, out := range d.outcomes {
			c := &f.clients[out.index]
			f.pending.Push(now+f.nextDelay(c, out), out.index)
		}
		drained = true
		if block {
			block = false
		}
	}
}

// worker issues batch RPCs until the jobs channel closes.
func (f *fleet) worker(wg *sync.WaitGroup, ws *workerStats) {
	defer wg.Done()
	for j := range f.jobs {
		t0 := f.clk.Now()
		decisions, err := f.bc.Batch(context.Background(), j.reqs)
		ws.latency.Add(f.clk.Since(t0).Seconds())
		ws.batches++
		// Attribute at completion time: an RPC in flight when the chaos
		// kill lands fails after the phase flip, so its error counts
		// against the outage, not the healthy window.
		phase := f.phase.Load()
		d := done{outcomes: make([]outcome, len(j.indices))}
		for k, i := range j.indices {
			out := outcome{index: i}
			switch {
			case err != nil:
				out.err = true
				ws.errors++
				ws.phaseErrors[phase]++
			case decisions[k].Granted:
				out.granted = true
				ws.grants++
				ws.phaseDecisions[phase]++
			default:
				ws.denials++
				ws.phaseDecisions[phase]++
			}
			d.outcomes[k] = out
		}
		f.results <- d
	}
}

// report merges worker tallies (in worker order — the deterministic
// merge the stats.Sketch contract guarantees) into the final result.
func (f *fleet) report(o options) *result {
	lat := stats.NewSketch(latencyLo, latencyHi, latencyBins)
	var grants, denials, errors, batches int64
	for _, ws := range f.workers {
		lat.Merge(ws.latency)
		grants += ws.grants
		denials += ws.denials
		errors += ws.errors
		batches += ws.batches
	}
	decisions := grants + denials
	res := &result{
		Backend:        f.bc.BackendURL,
		Clients:        o.clients,
		Shards:         o.shards,
		VirtualSeconds: o.duration,
		Timescale:      o.timescale,
		WallSeconds:    f.wall.Seconds(),
		Decisions:      decisions,
		Grants:         grants,
		Denials:        denials,
		Errors:         errors,
		Batches:        batches,
		LatencyP50Ms:   lat.Quantile(0.5) * 1e3,
		LatencyP99Ms:   lat.Quantile(0.99) * 1e3,
		LatencyMeanMs:  lat.Mean() * 1e3,
	}
	if decisions > 0 {
		res.GrantRatio = float64(grants) / float64(decisions)
	}
	if res.WallSeconds > 0 {
		res.DecisionsPerSec = float64(decisions) / res.WallSeconds
		res.ClientsPerSec = res.DecisionsPerSec
	}
	return res
}
