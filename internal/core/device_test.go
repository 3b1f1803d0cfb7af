package core

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"threegol/internal/discovery"
	"threegol/internal/quota"
)

// One rule admits a device, permit ∧ quota left, and it decides both
// whether the proxy serves (else 503) and whether the beacon announces;
// an announcement carries the device's cell and the quota it has left.
func TestDeviceAdmissionRule(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("ok"))
	}))
	defer origin.Close()

	const allowance = 1 << 20
	permits := map[string]func(context.Context) bool{
		"none":    nil,
		"granted": func(context.Context) bool { return true },
		"denied":  func(context.Context) bool { return false },
	}
	quotas := map[string]func() *quota.Tracker{
		"none": func() *quota.Tracker { return nil },
		"left": func() *quota.Tracker { return quota.NewTracker(allowance) },
		"spent": func() *quota.Tracker {
			tr := quota.NewTracker(allowance)
			tr.Use(allowance)
			return tr
		},
	}
	for _, pn := range []string{"none", "granted", "denied"} {
		for _, qn := range []string{"none", "left", "spent"} {
			t.Run("permit="+pn+"/quota="+qn, func(t *testing.T) {
				admitted := pn != "denied" && qn != "spent"
				tr := quotas[qn]()
				browser := &discovery.Browser{}
				target, err := browser.Listen("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer browser.Close()
				dev := NewDevice("ph1", "cell-7", &net.Dialer{}, tr, permits[pn])
				// The quota left when the proxy's own OnBytes first ran.
				ownFirst := make(chan int64, 1)
				dev.Proxy.OnBytes = func(int64) {
					if tr != nil {
						select {
						case ownFirst <- tr.Available():
						default:
						}
					}
				}
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				if err := dev.Serve(context.Background(), ln, target, 10*time.Millisecond); err != nil {
					t.Fatal(err)
				}
				defer dev.Close()

				if gated := pn != "none" || qn != "none"; (dev.Proxy.Admit != nil) != gated {
					t.Errorf("Admit hook installed: %v, want %v", dev.Proxy.Admit != nil, gated)
				}

				wait := 2 * time.Second
				if !admitted {
					wait = 150 * time.Millisecond // fifteen beacon intervals
				}
				anns := browser.WaitFor(1, wait)
				if got := len(anns) == 1; got != admitted {
					t.Fatalf("announced: %v, want %v", got, admitted)
				}
				if admitted {
					want := discovery.Announcement{Name: "ph1", ProxyAddr: ln.Addr().String(), Cell: "cell-7"}
					if tr != nil {
						want.AllowanceBytes = allowance
					}
					if anns[0] != want {
						t.Errorf("announcement %+v, want %+v", anns[0], want)
					}
				}

				proxyURL := &url.URL{Scheme: "http", Host: ln.Addr().String()}
				client := &http.Client{Transport: &http.Transport{Proxy: http.ProxyURL(proxyURL)}}
				defer client.CloseIdleConnections()
				resp, err := client.Get(origin.URL)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				want := http.StatusOK
				if !admitted {
					want = http.StatusServiceUnavailable
				}
				if resp.StatusCode != want {
					t.Errorf("proxy answered %s, want %d", resp.Status, want)
				}
				if !admitted || tr == nil {
					return
				}
				// The proxy counts a response once it is relayed, which
				// can be after the client has it.
				select {
				case first := <-ownFirst:
					if first != allowance {
						t.Errorf("the proxy's own OnBytes first saw %d bytes of quota left, want %d: the quota must count after it", first, allowance)
					}
				case <-time.After(2 * time.Second):
					t.Fatal("the proxy counted no bytes")
				}
				for deadline := time.Now().Add(2 * time.Second); tr.Available() >= allowance; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatal("the quota counted none of the proxied bytes")
					}
				}
			})
		}
	}
}
