package upload

import "threegol/internal/obs"

// Metrics holds the upload endpoint's instruments; register with
// NewMetrics and assign to Server.Metrics. The zero Metrics records
// nothing. The instruments shadow the server's own Stats
// counters so a metrics dump tells the same story as GET /stats.
type Metrics struct {
	// Requests counts multipart POSTs that stored at least one file.
	Requests *obs.Counter
	// Files counts files stored (first arrival of each name, the last
	// piece of one sent in pieces).
	Files *obs.Counter
	// DuplicateFiles counts replayed file parts (the greedy endgame can
	// deliver an item on two paths; the loser lands here), pieces whose
	// bytes were in already among them.
	DuplicateFiles *obs.Counter
	// Bytes counts payload bytes received across all file parts, pieces
	// and duplicates included.
	Bytes *obs.Counter
}

// NewMetrics registers the upload endpoint's metrics on r.
func NewMetrics(r *obs.Registry) Metrics {
	return Metrics{
		Requests: r.NewCounter("upload_requests_total",
			"Multipart POST requests that stored at least one file part."),
		Files: r.NewCounter("upload_files_total",
			"Distinct files stored (first arrival of each name)."),
		DuplicateFiles: r.NewCounter("upload_duplicate_files_total",
			"Replayed file parts discarded by name-based deduplication."),
		Bytes: r.NewCounter("upload_bytes_total",
			"Payload bytes received across all file parts, duplicates included."),
	}
}
