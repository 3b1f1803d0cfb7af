package transfer

import (
	"context"
	"io"
	"sync"

	"threegol/internal/scheduler"
)

// Cache is a concurrency-safe in-memory store of completed item bodies,
// keyed by item name. The HLS client proxy prefetches segments into a
// Cache through the scheduler and serves the player's sequential GETs
// from it, waiting when the player outruns the prefetcher.
//
// The cache keeps the first body stored under a name; a later store of
// the same name (GRD's endgame can deliver one segment twice) is dropped,
// so a slice handed out by Get or Wait never changes while the entry
// lives.
//
// Buffer ownership. CachingSink reads sized bodies into buffers from a
// package-level pool, and each such buffer has exactly one owner: the
// replica's sink from the moment it takes the buffer until it stores it
// (on a read error, a cancellation or a lost race the sink gives the
// buffer back itself), then the Cache, until Release. Release returns
// every buffer the cache owns to the pool and empties the cache; whoever
// calls it must first know that no reader still holds a slice from Get
// or Wait and that no sink is still storing into this cache. Calling it
// is optional: a Cache that is simply dropped leaves its buffers to the
// garbage collector. Slices passed to Put stay the caller's and are
// never recycled or written.
type Cache struct {
	mu      sync.Mutex
	entries map[string][]byte
	pooled  []*[]byte // pool buffers behind entries, owned until Release
	waiters map[string][]chan []byte
}

// NewCache creates an empty cache.
func NewCache() *Cache {
	return &Cache{
		entries: make(map[string][]byte),
		waiters: make(map[string][]chan []byte),
	}
}

// Put stores a completed item and releases any waiters. The first body
// stored under a name is kept; body remains the caller's.
func (c *Cache) Put(name string, body []byte) {
	c.store(name, body, nil)
}

// store keeps body under name unless the name is taken, wakes the
// waiters if it did, and reports whether it did. pooled, when non-nil,
// is the pool buffer behind body, which the cache owns from here on if
// it kept it.
func (c *Cache) store(name string, body []byte, pooled *[]byte) bool {
	ws, kept := c.keep(name, body, pooled)
	for _, w := range ws {
		w <- body
	}
	return kept
}

// keep is store's bookkeeping under the lock; it returns the waiters to
// wake.
func (c *Cache) keep(name string, body []byte, pooled *[]byte) ([]chan []byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, taken := c.entries[name]; taken {
		return nil, false
	}
	c.entries[name] = body
	if pooled != nil {
		c.pooled = append(c.pooled, pooled)
	}
	ws := c.waiters[name]
	delete(c.waiters, name)
	return ws, true
}

// Release empties the cache and recycles the buffers it owns; see the
// ownership rule on Cache for when that is safe.
func (c *Cache) Release() {
	c.mu.Lock()
	pooled := c.pooled
	c.pooled = nil
	clear(c.entries)
	c.mu.Unlock()
	for _, bp := range pooled {
		segments.Put(bp)
	}
}

// Get returns the cached body, if present.
func (c *Cache) Get(name string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.entries[name]
	return b, ok
}

// Wait blocks until the item is cached or the context is cancelled.
func (c *Cache) Wait(ctx context.Context, name string) ([]byte, error) {
	b, ch := c.subscribe(name)
	if ch == nil {
		return b, nil
	}
	select {
	case b := <-ch:
		return b, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// subscribe returns the cached body (nil channel), or registers and
// returns a waiter channel for a not-yet-cached item.
func (c *Cache) subscribe(name string) ([]byte, chan []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.entries[name]; ok {
		return b, nil
	}
	ch := make(chan []byte, 1)
	c.waiters[name] = append(c.waiters[name], ch)
	return nil, ch
}

// Len reports the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes reports the total cached payload size.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var t int64
	for _, b := range c.entries {
		t += int64(len(b))
	}
	return t
}

// segments recycles the buffers CachingSink reads sized bodies into. The
// segments of one rendition are the same size, so a buffer that is large
// enough is reused as it is and one that is not is dropped: no size
// classes.
var segments sync.Pool // of *[]byte

// maxSized bounds the buffer allocated up front on the word of a
// Content-Length header; a larger declared length grows as bytes arrive,
// like an unknown one.
const maxSized = 64 << 20

// segmentBuffer returns a buffer of exactly size bytes, recycled when the
// pool has one with the capacity. Its contents are unspecified.
func segmentBuffer(size int) *[]byte {
	if bp, _ := segments.Get().(*[]byte); bp != nil && cap(*bp) >= size {
		*bp = (*bp)[:size]
		return bp
	}
	b := make([]byte, size)
	return &b
}

// CachingSink returns a DownloadPath sink that stores bodies into cache
// under the item's name. A body of known size is read into one pooled
// buffer of that size (a short body is an error and stores nothing); a
// body of unknown size is read to EOF into a growing slice.
func CachingSink(cache *Cache) func(scheduler.Item, io.Reader, int64) (int64, error) {
	return func(item scheduler.Item, body io.Reader, size int64) (int64, error) {
		if size < 0 || size > maxSized {
			buf, err := io.ReadAll(body)
			if err != nil {
				return int64(len(buf)), err
			}
			cache.Put(item.Name, buf)
			return int64(len(buf)), nil
		}
		bp := segmentBuffer(int(size))
		n, err := io.ReadFull(body, *bp)
		if err != nil {
			segments.Put(bp)
			return int64(n), err
		}
		if !cache.store(item.Name, *bp, bp) {
			segments.Put(bp) // late duplicate: the first body stays
		}
		return size, nil
	}
}
