package obs

import "net/http"

// Handler returns the /debug/metrics endpoint: a GET returns the
// registry snapshot as indented JSON. Mount it wherever the daemon
// serves debug traffic, e.g.
//
//	mux.Handle("/debug/metrics", obs.Handler(reg))
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w) // client disconnect; nothing to do
	})
}
