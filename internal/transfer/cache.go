package transfer

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sync"

	"threegol/internal/freelist"
	"threegol/internal/scheduler"
)

// Cache is a concurrency-safe in-memory store of completed item bodies,
// keyed by item name. The HLS client proxy prefetches segments into a
// Cache through the scheduler and serves the player's sequential GETs
// from it, waiting when the player outruns the prefetcher.
//
// The cache keeps the first body stored under a name: a whole body, or
// the buffer a split item's pieces filled, whichever is complete first.
// A later store of the same name (GRD's endgame can deliver one segment
// twice) is dropped, so a slice handed out by Get or Wait never changes
// while the entry lives.
//
// Pieces. A ranged attempt's sink (a Window with a Body) writes its
// bytes at their offset into the one buffer of its name and Body, which
// every piece of a split item fills, and that buffer is stored once the
// pieces read whole cover it. The scheduler never hands two attempts
// overlapping pieces of one Body, so no two writers write the same
// byte. Bodies are numbered per transaction: a Cache that takes ranged
// bodies from a second transaction must be Released in between.
//
// Buffer ownership. CachingSink reads sized bodies into buffers from the
// segments freelist.List, and each such buffer has exactly one owner.
// A whole body's is the replica's sink from the moment it takes the
// buffer until it stores it (on a read error, a cancellation or a lost
// race the sink gives the buffer back itself), then the Cache, until
// Release. A ranged Body's is the Cache from its first writer on: it
// gives the buffer back when it loses the keep-first race, or when
// another body of its name was stored and no writer is left. Release
// returns every buffer the cache owns to the list (a second return
// panics) and empties the cache; whoever calls it must first know that
// no reader still holds a slice from Get or Wait and that no sink is
// still storing into this cache. Calling it is optional: a Cache that is
// simply dropped leaves its buffers to the garbage collector. Slices
// passed to Put stay the caller's and are never recycled or written.
type Cache struct {
	mu      sync.Mutex
	entries map[string][]byte
	pooled  []*[]byte // free-list buffers behind entries, owned until Release
	waiters map[string][]chan []byte
	filling []*filling // ranged bodies not yet stored
	failed  error      // see Fail
}

// filling is one ranged Body's buffer while its pieces arrive.
type filling struct {
	name    string
	body    int
	buf     *[]byte
	covered int64 // bytes of the pieces read whole
	writers int
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
// is the free-list buffer behind body, which the cache owns from here on
// if it kept it.
func (c *Cache) store(name string, body []byte, pooled *[]byte) bool {
	c.mu.Lock()
	ws, kept := c.keep(name, body, pooled)
	free := c.sweep(name)
	c.mu.Unlock()
	c.wake(ws, body, free)
	return kept
}

// wake hands body to the waiters and recycles the buffers in free.
func (c *Cache) wake(ws []chan []byte, body []byte, free []*[]byte) {
	for _, w := range ws {
		w <- body
	}
	for _, bp := range free {
		segments.Put(bp, cap(*bp))
	}
}

// keep is store's bookkeeping, under the lock; it returns the waiters to
// wake.
func (c *Cache) keep(name string, body []byte, pooled *[]byte) ([]chan []byte, bool) {
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

// sweep drops, under the lock, the ranged Bodies of a stored name that
// no writer fills any more, and returns their buffers to recycle.
func (c *Cache) sweep(name string) (free []*[]byte) {
	if _, stored := c.entries[name]; !stored {
		return nil
	}
	c.filling = slices.DeleteFunc(c.filling, func(f *filling) bool {
		if f.name == name && f.writers == 0 {
			free = append(free, f.buf)
			return true
		}
		return false
	})
	return free
}

// fill reads one ranged attempt's body to EOF into the buffer of its
// name and Body, at w.Off, and stores the buffer once it is covered.
func (c *Cache) fill(name string, body io.Reader, w Window) (int64, error) {
	if w.Size > maxSized || w.Off > w.Size {
		return 0, fmt.Errorf("transfer: %s: no buffer for bytes from %d of a %d-byte item", name, w.Off, w.Size)
	}
	f, err := c.join(name, w)
	if err != nil {
		return 0, err
	}
	n, err := io.ReadFull(body, (*f.buf)[w.Off:])
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		err = nil // the body ended where its range did
	}
	c.leave(f, int64(n), err == nil)
	return int64(n), err
}

// join makes the caller a writer of the buffer of name and w.Body,
// taking one of w.Size bytes for a Body that has none yet.
func (c *Cache) join(name string, w Window) (*filling, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range c.filling {
		if f.name == name && f.body == w.Body {
			if int64(len(*f.buf)) != w.Size {
				return nil, fmt.Errorf("transfer: %s: a piece of a %d-byte item for a %d-byte buffer", name, w.Size, len(*f.buf))
			}
			f.writers++
			return f, nil
		}
	}
	f := &filling{name: name, body: w.Body, buf: segment(w.Size), writers: 1}
	c.filling = append(c.filling, f)
	return f, nil
}

// leave ends one writer's part in f, adding its n bytes to f's coverage
// when it read its piece whole, and stores f's buffer once covered.
func (c *Cache) leave(f *filling, n int64, whole bool) {
	c.mu.Lock()
	f.writers--
	if whole {
		f.covered += n
	}
	var ws []chan []byte
	var free []*[]byte
	if f.covered == int64(len(*f.buf)) {
		var kept bool
		if ws, kept = c.keep(f.name, *f.buf, f.buf); kept {
			c.filling = slices.DeleteFunc(c.filling, func(g *filling) bool { return g == f })
		}
	}
	free = c.sweep(f.name)
	c.mu.Unlock()
	c.wake(ws, *f.buf, free)
}

// Release empties the cache and recycles the buffers it owns; see the
// ownership rule on Cache for when that is safe.
func (c *Cache) Release() {
	c.mu.Lock()
	pooled := c.pooled
	c.pooled = nil
	for _, f := range c.filling {
		pooled = append(pooled, f.buf)
	}
	clear(c.filling)
	c.filling = c.filling[:0]
	clear(c.entries)
	c.failed = nil
	c.mu.Unlock()
	for _, bp := range pooled {
		segments.Put(bp, cap(*bp))
	}
}

// Get returns the cached body, if present.
func (c *Cache) Get(name string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.entries[name]
	return b, ok
}

// Wait blocks until the item is cached, the cache fails (see Fail) or
// the context is cancelled.
func (c *Cache) Wait(ctx context.Context, name string) ([]byte, error) {
	for {
		b, ch, err := c.subscribe(name)
		if ch == nil {
			return b, err
		}
		select {
		case b, ok := <-ch:
			if ok {
				return b, nil
			}
			// Fail closed it; subscribing again returns its error.
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// subscribe returns the cached body, or Fail's error (nil channel), or
// registers and returns a waiter channel for a not-yet-cached item.
func (c *Cache) subscribe(name string) ([]byte, chan []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.entries[name]; ok {
		return b, nil, nil
	}
	if c.failed != nil {
		return nil, nil, c.failed
	}
	ch := make(chan []byte, 1)
	c.waiters[name] = append(c.waiters[name], ch)
	return nil, ch, nil
}

// Fail ends every Wait for a name not yet stored, now and until
// Release, with err: whoever calls it knows nothing more will be stored
// (the prefetch transaction failed).
func (c *Cache) Fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed = err
	for name, ws := range c.waiters {
		for _, w := range ws {
			close(w)
		}
		delete(c.waiters, name)
	}
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

// segments recycles the buffers CachingSink reads sized bodies into; the
// segments of one rendition are the same size. It keeps 32 MB: one
// session of the test video at its top rendition (20 segments, 18.45 MB)
// with its endgame duplicates.
var segments = freelist.List[*[]byte]{Name: "transfer segments", Keep: 32 << 20}

// maxSized bounds the buffer allocated up front on the word of a
// Content-Length header; a larger declared length grows as bytes arrive,
// like an unknown one.
const maxSized = 64 << 20

// segment takes a buffer of size bytes off the segments list, or makes
// one.
func segment(size int64) *[]byte {
	bp, ok := segments.Get(int(size))
	if !ok {
		bp = new([]byte)
		*bp = make([]byte, size)
	}
	*bp = (*bp)[:size]
	return bp
}

// CachingSink returns a DownloadPath sink that stores bodies into cache
// under the item's name. A ranged attempt's body fills its item's one
// buffer at its offset (see Cache); one of an item over maxSized is
// refused, as there is no buffer to fill. A whole body of known size is read
// into one recycled buffer of that size (a short body is an error and
// stores nothing); a body of unknown size is read to EOF into a growing
// slice.
func CachingSink(cache *Cache) func(scheduler.Item, io.Reader, Window) (int64, error) {
	return func(item scheduler.Item, body io.Reader, w Window) (int64, error) {
		if w.Body > 0 && w.Size >= 0 {
			return cache.fill(item.Name, body, w)
		}
		size := w.Size
		if size < 0 || size > maxSized {
			buf, err := io.ReadAll(body)
			if err != nil {
				return int64(len(buf)), err
			}
			cache.Put(item.Name, buf)
			return int64(len(buf)), nil
		}
		bp := segment(size)
		n, err := io.ReadFull(body, *bp)
		if err != nil {
			segments.Put(bp, cap(*bp))
			return int64(n), err
		}
		if !cache.store(item.Name, *bp, bp) {
			segments.Put(bp, cap(*bp)) // late duplicate: the first body stays
		}
		return size, nil
	}
}
