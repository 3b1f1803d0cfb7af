package permit_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"threegol/internal/obs"
	"threegol/internal/permit"
	"threegol/internal/permitplane"
)

// daemon serves a one-shard plane the way 3golpermitd does: GET /permit
// and POST /permits/batch.
func daemon(t *testing.T, cfg permitplane.Config) (*permitplane.Sharded, string) {
	t.Helper()
	plane := permitplane.New(cfg)
	srv := httptest.NewServer(plane)
	t.Cleanup(srv.Close)
	return plane, srv.URL
}

// ask is one GET /permit on the backend's wire.
func ask(t *testing.T, backendURL, cell string) permit.Response {
	t.Helper()
	resp, err := http.Get(backendURL + "/permit?device=d&cell=" + cell)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out permit.Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET /permit: %s: %v", resp.Status, err)
	}
	return out
}

// deviceCache is the device side the daemons run: permitplane.Cache
// refreshing through BatchClient.
func deviceCache(backendURL string) *permitplane.Cache {
	return &permitplane.Cache{
		Fetch:  (&permitplane.BatchClient{BackendURL: backendURL}).Fetch,
		Device: "d",
		Cell:   "c",
	}
}

func TestBackendGrantsBelowThreshold(t *testing.T) {
	util := 0.3
	var mu sync.Mutex
	b, url := daemon(t, permitplane.Config{
		Utilization: func(cell string) float64 {
			mu.Lock()
			defer mu.Unlock()
			return util
		},
		Threshold: 0.7,
	})

	if r := ask(t, url, "c1"); !r.Granted || r.TTLSeconds != permit.DefaultTTL.Seconds() || r.Utilization != 0.3 {
		t.Errorf("below threshold: %+v; want granted for DefaultTTL", r)
	}
	grants, denials := b.Stats()
	if grants != 1 || denials != 0 {
		t.Errorf("stats = %d/%d, want 1/0", grants, denials)
	}

	// Congest the cell: the backend holds no per-device state, so the
	// next request is decided on the new reading.
	mu.Lock()
	util = 0.9
	mu.Unlock()
	if r := ask(t, url, "c1"); r.Granted || r.TTLSeconds != 0 {
		t.Errorf("above threshold: %+v; want denied, no TTL", r)
	}
}

func TestBackendDeniesAboveThreshold(t *testing.T) {
	b, url := daemon(t, permitplane.Config{Utilization: func(string) float64 { return 0.95 }})
	if ask(t, url, "c").Granted {
		t.Error("permit granted for congested cell")
	}
	if g, d := b.Stats(); g != 0 || d != 1 {
		t.Errorf("stats = %d/%d, want 0/1", g, d)
	}
}

func TestPermitExpiresAfterTTL(t *testing.T) {
	var mu sync.Mutex
	util := 0.1
	_, url := daemon(t, permitplane.Config{
		Utilization: func(string) float64 { mu.Lock(); defer mu.Unlock(); return util },
		TTL:         50 * time.Millisecond,
	})
	c := deviceCache(url)
	if !c.Allowed(context.Background()) {
		t.Fatal("initial grant failed")
	}
	mu.Lock()
	util = 0.99
	mu.Unlock()
	time.Sleep(80 * time.Millisecond) // past TTL
	if c.Allowed(context.Background()) {
		t.Error("expired permit not refreshed (should now be denied)")
	}
}

func TestClientFailsSafeOnBackendDown(t *testing.T) {
	c := deviceCache("http://127.0.0.1:1")
	if c.Allowed(context.Background()) {
		t.Error("unreachable backend must deny onloading")
	}
}

func TestBackendValidation(t *testing.T) {
	_, url := daemon(t, permitplane.Config{Utilization: func(string) float64 { return 0 }})

	resp, err := http.Get(url + "/permit")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("missing cell param = %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(url + "/other")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("unknown path = %d, want 404", resp.StatusCode)
	}

	_, misconfigured := daemon(t, permitplane.Config{})
	resp, err = http.Get(misconfigured + "/permit?cell=c")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 500 {
		t.Errorf("no monitoring hook = %d, want 500", resp.StatusCode)
	}
}

func TestDeniedPermitRecheckedAfterCooldown(t *testing.T) {
	var mu sync.Mutex
	util := 0.99
	calls := 0
	_, url := daemon(t, permitplane.Config{
		Utilization: func(string) float64 { mu.Lock(); defer mu.Unlock(); calls++; return util },
	})
	c := deviceCache(url)
	if c.Allowed(context.Background()) {
		t.Fatal("should be denied")
	}
	// Within the cool-down, no new backend call.
	c.Allowed(context.Background())
	mu.Lock()
	if calls != 1 {
		t.Errorf("backend called %d times within cool-down, want 1", calls)
	}
	mu.Unlock()
}

// stepClock moves one step on every read, so a reading counts the reads
// before it.
type stepClock struct {
	now  time.Time
	step time.Duration
}

func (c *stepClock) Now() time.Time {
	c.now = c.now.Add(c.step)
	return c.now
}

func (c *stepClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

func (c *stepClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

// TestDecideNTimesItsSliceOnce pins DecideN's timing: two clock reads
// per slice, whatever its length, and permit_decision_seconds holding
// one observation per decision whose sum is the slice's elapsed time.
func TestDecideNTimesItsSliceOnce(t *testing.T) {
	reg := obs.NewRegistry()
	clk := &stepClock{step: time.Millisecond}
	b := &permit.Backend{
		Utilization: func(string) float64 { return 0.2 },
		Metrics:     permit.NewMetrics(reg),
		Clock:       clk,
	}
	const n = 128
	start := clk.now
	decided := 0
	b.DecideN(context.Background(), n, func(int) string { return "c" }, func(int, permit.Response) { decided++ })
	elapsed := clk.now.Sub(start)
	if decided != n || elapsed != 2*clk.step {
		t.Fatalf("%d decisions in %d clock reads; want %d in 2", decided, elapsed/clk.step, n)
	}
	for _, m := range reg.Snapshot() {
		if m.Name != "permit_decision_seconds" {
			continue
		}
		v := m.Values[0]
		// Two reads one step apart: the slice took one step.
		if v.Count != n || v.Sum != clk.step.Seconds() {
			t.Errorf("permit_decision_seconds count %d sum %v; want %d and the slice's %v s",
				v.Count, v.Sum, n, clk.step.Seconds())
		}
		return
	}
	t.Fatal("permit_decision_seconds not registered")
}
