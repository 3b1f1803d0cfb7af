package upload

import "threegol/internal/obs"

// Metrics holds the upload endpoint's instruments; register with
// NewMetrics and assign to Server.Metrics. The zero Metrics records
// nothing. The instruments shadow the server's own Stats
// counters so a metrics dump tells the same story as GET /stats.
type Metrics struct {
	// Requests counts multipart POSTs that stored at least one file.
	Requests *obs.Counter
	// Files counts file parts stored (first arrival of each name).
	Files *obs.Counter
	// DuplicateFiles counts replayed file parts (the greedy endgame can
	// deliver an item on two paths; the loser lands here).
	DuplicateFiles *obs.Counter
	// Bytes counts payload bytes received across all file parts,
	// duplicates included.
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

func (m *Metrics) stored(size int64, duplicate bool) {
	if duplicate {
		m.DuplicateFiles.Inc()
	} else {
		m.Files.Inc()
	}
	if size > 0 {
		m.Bytes.Add(size)
	}
}
