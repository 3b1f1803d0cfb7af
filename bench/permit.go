package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"threegol/internal/permitplane"
	"threegol/internal/permitplane/wal"
)

// Sizing of the permit workload: a fixed population, so the grant state
// is the same size for the whole run and snapshot cost does not grow
// with run length.
const (
	permitShards    = 4
	permitClients   = 2    // closed-loop clients, one per core of the sizing sandbox
	permitDevices   = 8192 // per client
	permitBatch     = 512
	permitCells     = 256
	permitDenyUtil  = 0.95 // odd cells: above the threshold, denied, no WAL record
	permitGrantUtil = 0.2  // even cells: granted, one WAL record per decision
	permitTTL       = time.Second
)

// permitInstance is a durable sharded permit plane behind a loopback
// HTTP server, and one BatchClient per closed-loop client, each cycling
// its own devices in a fixed order.
type permitInstance struct {
	plane   *permitplane.Sharded
	srv     *loopServer
	walDir  string
	clients []*permitClient
	about   string
}

type permitClient struct {
	bc      *permitplane.BatchClient
	tr      *http.Transport
	batches [][]permitplane.PermitRequest
	granted [][]bool // expected decision per request
	next    int
}

func cellName(i int) string { return fmt.Sprintf("cell-%03d", i) }

// cellUtilization is the monitoring feed: odd cells are full.
func cellUtilization() func(string) float64 {
	util := make(map[string]float64, permitCells)
	for i := 0; i < permitCells; i++ {
		util[cellName(i)] = permitGrantUtil
		if i%2 == 1 {
			util[cellName(i)] = permitDenyUtil
		}
	}
	return func(cell string) float64 { return util[cell] }
}

// permitBatches deals one client's devices into batches. Device d is
// pinned to cell d mod permitCells; the seed fixes the order the client
// cycles them in.
func permitBatches(client int, seed int64) (batches [][]permitplane.PermitRequest, granted [][]bool) {
	rng := rand.New(rand.NewSource(seed + int64(client)))
	order := rng.Perm(permitDevices)
	for at := 0; at < permitDevices; at += permitBatch {
		reqs := make([]permitplane.PermitRequest, permitBatch)
		want := make([]bool, permitBatch)
		for i := range reqs {
			d := client*permitDevices + order[at+i]
			reqs[i] = permitplane.PermitRequest{Device: fmt.Sprintf("dev-%06d", d), Cell: cellName(d % permitCells)}
			want[i] = d%2 == 0
		}
		batches = append(batches, reqs)
		granted = append(granted, want)
	}
	return batches, granted
}

// walScratch makes a fresh WAL directory under the run's output
// directory; the caller removes it.
func walScratch(cfg runConfig, prefix string) (string, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return "", fmt.Errorf("creating %s: %w", cfg.outDir, err)
	}
	dir, err := os.MkdirTemp(cfg.outDir, prefix)
	if err != nil {
		return "", fmt.Errorf("creating WAL directory: %w", err)
	}
	return dir, nil
}

func buildPermit(cfg runConfig, t *tracer) (instance, error) {
	walDir, err := walScratch(cfg, "permit-wal-")
	if err != nil {
		return nil, err
	}
	plane, err := permitplane.NewDurable(permitplane.Config{
		Shards: permitShards, TTL: permitTTL, Utilization: cellUtilization(), WALDir: walDir,
	})
	if err != nil {
		os.RemoveAll(walDir)
		return nil, err
	}
	srv, err := serveLoopback(t.handler(plane, "permitplane"))
	if err != nil {
		_ = plane.Close() // nothing was decided yet; the directory goes next
		os.RemoveAll(walDir)
		return nil, err
	}
	p := &permitInstance{plane: plane, srv: srv, walDir: walDir}
	for c := 0; c < permitClients; c++ {
		tr := &http.Transport{MaxIdleConnsPerHost: 2}
		pc := &permitClient{
			bc: &permitplane.BatchClient{
				BackendURL: srv.url,
				HTTPClient: &http.Client{Transport: t.transport(tr, depthHop, "http")},
			},
			tr: tr,
		}
		pc.batches, pc.granted = permitBatches(c, cfg.seed)
		p.clients = append(p.clients, pc)
	}
	p.about = fmt.Sprintf("%d shards, %d clients × %d devices over %d cells, %d requests per batch, TTL %s, wal_fs=%s (%s)",
		permitShards, permitClients, permitDevices, permitCells, permitBatch, permitTTL, fsName(walDir), walDir)
	return p, nil
}

func (p *permitInstance) describe() string { return p.about }

func (p *permitInstance) op(ctx context.Context, client int) (opInfo, error) {
	pc := p.clients[client]
	i := pc.next
	pc.next = (i + 1) % len(pc.batches)
	decisions, err := pc.bc.Batch(ctx, pc.batches[i])
	if err != nil {
		return opInfo{}, err
	}
	want := pc.granted[i]
	if len(decisions) != len(want) {
		return opInfo{}, fmt.Errorf("%d decisions for %d requests", len(decisions), len(want))
	}
	for j, d := range decisions {
		if d.Granted != want[j] {
			req := pc.batches[i][j]
			return opInfo{}, fmt.Errorf("%s in %s: granted=%t, want %t", req.Device, req.Cell, d.Granted, want[j])
		}
	}
	return opInfo{items: len(want)}, nil
}

// check replays every shard's directory read-only and compares the
// replayed state's hash with the live shard's: what is on disk must be
// what the plane is serving from.
func (p *permitInstance) check() error {
	for _, st := range p.plane.Status() {
		if st.WALErrors != 0 {
			return fmt.Errorf("shard %d: %d WAL write errors", st.Shard, st.WALErrors)
		}
		replayed, _, err := wal.Replay(permitplane.ShardWALDir(p.walDir, st.Shard))
		if err != nil {
			return fmt.Errorf("shard %d: replay: %w", st.Shard, err)
		}
		if got := permitplane.HashState(replayed); got != st.StateHash {
			return fmt.Errorf("shard %d: replayed state hashes to %s, live shard to %s", st.Shard, got, st.StateHash)
		}
	}
	return nil
}

func (p *permitInstance) close() {
	for _, pc := range p.clients {
		pc.tr.CloseIdleConnections()
	}
	p.srv.close()
	_ = p.plane.Close() // the directory is removed next; a failed final snapshot loses nothing
	os.RemoveAll(p.walDir)
}

// fsName names the filesystem a directory lives on, as far as the cost
// of fsync is concerned.
func fsName(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(abs, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("fs-0x%x", uint32(st.Type))
	}
}
