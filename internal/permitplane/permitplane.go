// Package permitplane is the production permit control plane of the
// network-integrated deployment (§2.4, §5) — the HTTP surface of the
// admission decision of internal/permit, scaled to fleet-sized device
// populations:
//
//   - Sharding. A Sharded backend runs N independent shards, each
//     owning a deterministic slice of the cell ID space (ShardOf, a
//     stable FNV-1a hash), each with its own permit.Backend, obs
//     registry and grant store. A router fronts them, serving the
//     classic GET /permit and the batch POST /permits/batch, and
//     merges per-shard metrics in shard order so the merged dump is
//     byte-identical regardless of shard count.
//   - Batching. BatchClient groups many devices' grant/refresh
//     requests into one POST /permits/batch round trip; a backend
//     without the route fails the batch like any other error.
//   - Caching. Cache is the device-side permit cache: TTL-jittered
//     proactive refresh (seeded, deterministic jitter — 10k devices
//     sharing a TTL do not synchronise their refreshes), singleflight
//     refresh coalescing, and stale-while-refresh serving, so a
//     refresh never stalls the request path and a backend restart
//     never sees a thundering herd.
//   - Durability. Each shard's GrantStore is the plane's one grant
//     ledger: every decision is folded into it, and with a WAL
//     directory it survives a crash and replays at boot.
//
// cmd/3golpermitd hosts a Sharded plane (-shards N); cmd/3golpermitload
// drives one with ≥100k simulated clients.
package permitplane

import (
	"hash/fnv"

	"threegol/internal/obs/eventlog"
)

// ShardOf maps a cell ID to its owning shard: a stable FNV-1a hash of
// the cell ID modulo the shard count. Every component — router,
// harness, tests — uses this one function, so a cell's decisions always
// land on the same shard and per-cell state never splits.
func ShardOf(cellID string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(cellID)) // hash.Hash.Write never errors
	return int(h.Sum64() % uint64(shards))
}

// JitterFrac returns the n-th deterministic uniform draw in [0, 1) of a
// named client's jitter stream. It is stateless — seed, name and draw
// index fully determine the value — which is what lets the load harness
// run 100k clients without 100k RNG states, and lets tests replay the
// exact schedule of any client.
func JitterFrac(seed int64, name string, n uint64) float64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name)) // hash.Hash.Write never errors
	x := eventlog.SplitMix64(uint64(seed) ^ h.Sum64() ^ eventlog.SplitMix64(n))
	return float64(x>>11) / (1 << 53)
}
