package core

import (
	"context"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"threegol/internal/scheduler"
	"threegol/internal/upload"
)

// The ratchet behind the upload path's copies: at steady state a boosted
// photo upload allocates a few tens of KB per photo, not a buffer per
// hop. The home is unshaped so the run is quick, but every hop is still
// a netem.Conn. Measured on 2 vCPUs: 34–42 KB per photo; 112–117 KB
// with the uploader's pipe and io.Copy and the server's io.Copy both
// back, 74–79 KB with either one back, 95–107 KB with a shaped conn
// that has no ReadFrom. Transactions that share the home's transports
// take 21.5–22.0 KB, those that built their own 27.1–27.7 KB; the budget
// is the worst of 20 shared runs plus 10 %.
func TestUploadPhotosAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	const unbound = 1e12
	h, err := NewHome(HomeConfig{
		DSLDown: unbound, DSLUp: unbound, WiFi: unbound, TimeScale: 1e6, Seed: 42,
		Phones: []PhoneConfig{
			{Name: "ph1", Down: unbound, Up: unbound, Warm: true},
			{Name: "ph2", Down: unbound, Up: unbound, Warm: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	phones := h.AdmissibleDevices(2, 5*time.Second)
	if len(phones) != 2 {
		t.Fatal("phones not discovered")
	}
	store := &upload.Server{}
	target := httptest.NewServer(store)
	defer target.Close()
	photos := GeneratePhotos(12, 42)
	transactions := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := h.UploadPhotos(context.Background(), photos, UploadOptions{
				Algo: scheduler.Greedy, Phones: phones, TargetURL: target.URL,
			}); err != nil {
				t.Fatal(err)
			}
		}
		if st := store.Stats(); st.Files != len(photos) {
			t.Fatalf("server stored %d of %d photos", st.Files, len(photos))
		}
	}
	transactions(3)
	const measured = 6
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	transactions(measured)
	runtime.ReadMemStats(&m1)
	perPhoto := float64(m1.TotalAlloc-m0.TotalAlloc) / measured / float64(len(photos)) / 1e3
	t.Logf("%.2f KB allocated per photo", perPhoto)
	if perPhoto >= 24.2 {
		t.Errorf("%.2f KB allocated per photo, budget 24.2 KB", perPhoto)
	}
}
