package transfer

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"threegol/internal/scheduler"
)

// TestCacheModel drives CachingSink and the Cache through random
// interleavings of whole bodies, split pieces, late duplicates, short
// bodies and Release, and holds them to a model that knows only what
// each attempt carried and how it ended:
//   - Get and Wait return a name's first complete coverage — a whole
//     body, or the pieces of one Body — byte for byte;
//   - a slice handed out never changes until Release;
//   - every buffer the sinks take goes back to the segments list exactly
//     once, and as soon as nothing can use it: a whole body's when it
//     fails or loses, a Body's when it loses or its name is stored by
//     another and no writer is left, every stored one at Release. The
//     list is emptied after every step, so each take makes a buffer, and
//     the takes not yet back must be the buffers the model says are held.
func TestCacheModel(t *testing.T) {
	l := &ledger{back: map[*[]byte]int{}}
	l.drain()
	clear(l.back)
	for seed := int64(0); seed < 300; seed++ {
		playCacheModel(t, seed, l)
		if t.Failed() {
			return
		}
	}
	for bp, n := range l.back {
		if n != 1 {
			t.Fatalf("a %d-byte buffer came back %d times", cap(*bp), n)
		}
	}
}

// ledger counts the buffers the sinks took and those that came back.
type ledger struct {
	takes int
	back  map[*[]byte]int // every buffer that came back, and how often
}

// drain empties the segments list into the ledger.
func (l *ledger) drain() {
	for {
		bp, ok := segments.Get(0)
		if !ok {
			return
		}
		l.back[bp]++
	}
}

// held is how many taken buffers have not come back.
func (l *ledger) held() int { return l.takes - len(l.back) }

// modelAttempt is one sink call: a goroutine blocked in its body's first
// Read until the model ends it.
type modelAttempt struct {
	name     string
	id       int   // tags the bytes it delivers
	body     int   // 0: a whole body in a buffer of its own
	off, end int64 // its window, which a split lowers
	gate     chan bool
	done     chan error
}

// pattern is the byte that attempt id delivers at offset i.
func pattern(id int, i int64) byte { return byte(id*31 + int(i)*7 + 1) }

// modelBody is the reader an attempt's sink reads: it reports that the
// sink has started (taken its buffer), waits for the verdict, then
// delivers its window — or, on a failure, half of it and an error.
type modelBody struct {
	a       *modelAttempt
	started chan struct{}
	ok      bool
	waited  bool
	pos     int64
}

var errModelShort = errors.New("model: the body ended short")

func (b *modelBody) Read(p []byte) (int, error) {
	if !b.waited {
		close(b.started)
		b.ok = <-b.a.gate
		b.waited = true
	}
	stop := b.a.end
	if !b.ok {
		stop = b.a.off + (b.a.end-b.a.off)/2
	}
	if b.a.off+b.pos >= stop {
		if b.ok {
			return 0, io.EOF
		}
		return 0, errModelShort
	}
	n := int(min(int64(len(p)), stop-b.a.off-b.pos))
	for i := 0; i < n; i++ {
		p[i] = pattern(b.a.id, b.a.off+b.pos+int64(i))
	}
	b.pos += int64(n)
	return n, nil
}

// playCacheModel plays one seed's script.
func playCacheModel(t *testing.T, seed int64, l *ledger) {
	rng := rand.New(rand.NewSource(seed))
	cache := NewCache()
	sink := CachingSink(cache)
	sizes := map[string]int64{}
	for i := 0; i < 1+rng.Intn(3); i++ {
		sizes[fmt.Sprintf("seg%d", i)] = 1 + rng.Int63n(4000)
	}
	names := make([]string, 0, len(sizes))
	for i := 0; i < len(sizes); i++ {
		names = append(names, fmt.Sprintf("seg%d", i))
	}
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d: "+format, append([]any{seed}, args...)...)
	}

	type piece struct {
		name     string
		body     int
		off, end int64
	}
	var (
		running []*modelAttempt
		ids     int
		bodies  int
		pending []piece               // windows of failed or split attempts, waiting for a path
		joined  = map[[2]any]bool{}   // (name, body) whose buffer a sink took
		pieces  = map[[2]any][]byte{} // (name, body) → the bytes its successful pieces wrote
		covered = map[[2]any]int64{}
		won     = map[[2]any]bool{}   // (name, body) whose buffer was stored
		want    = map[string][]byte{} // first complete coverage
		handed  [][2][]byte           // a slice handed out, and its bytes then
		waiters = map[string]chan []byte{}
	)
	ctx, cancel := context.WithCancel(context.Background())
	for _, name := range names {
		ch := make(chan []byte, 1)
		waiters[name] = ch
		go func(name string) {
			b, _ := cache.Wait(ctx, name)
			ch <- b
		}(name)
	}

	start := func(name string, body int, off, end int64) {
		ids++
		a := &modelAttempt{name: name, id: ids, body: body, off: off, end: end, gate: make(chan bool), done: make(chan error, 1)}
		r := &modelBody{a: a, started: make(chan struct{})}
		w := Window{Off: off, Size: sizes[name], Body: body}
		go func() {
			n, err := sink(scheduler.Item{Name: name}, r, w)
			if err == nil && n != a.end-a.off {
				err = fmt.Errorf("the sink read %d bytes of a %d-byte window", n, a.end-a.off)
			}
			a.done <- err
		}()
		<-r.started
		k := [2]any{name, body}
		if body == 0 || !joined[k] {
			l.takes++
		}
		if body > 0 {
			joined[k] = true
		}
		running = append(running, a)
	}
	check := func() {
		l.drain()
		held := len(want) // the stored buffers
		for _, a := range running {
			if a.body == 0 {
				held++
			}
		}
		for k := range joined {
			name, live := k[0].(string), false
			for _, a := range running {
				live = live || (a.name == name && a.body == k[1].(int))
			}
			if _, stored := want[name]; !won[k] && (live || !stored) {
				held++
			}
		}
		if l.held() != held {
			fail("%d taken buffers are not back; the model holds %d", l.held(), held)
		}
		for _, h := range handed {
			if !bytes.Equal(h[0], h[1]) {
				fail("a handed-out slice changed")
			}
		}
		for _, name := range names {
			got, ok := cache.Get(name)
			if w, stored := want[name]; ok != stored || !bytes.Equal(got, w) {
				fail("Get(%s) = %d bytes (%v), want the first coverage (%v)", name, len(got), ok, stored)
			}
			if ok {
				handed = append(handed, [2][]byte{got, bytes.Clone(got)})
			}
		}
	}

	for step := 0; step < 40; step++ {
		switch op := rng.Intn(10); {
		case op < 3: // a whole attempt: its own buffer, or a new Body
			name := names[rng.Intn(len(names))]
			body := 0
			if rng.Intn(2) == 0 {
				bodies++
				body = bodies
			}
			start(name, body, 0, sizes[name])
		case op < 5: // split a running ranged attempt
			var cands []*modelAttempt
			for _, a := range running {
				if a.body > 0 && a.end-a.off >= 2 {
					cands = append(cands, a)
				}
			}
			if len(cands) == 0 {
				continue
			}
			a := cands[rng.Intn(len(cands))]
			at := a.off + 1 + rng.Int63n(a.end-a.off-1)
			pending = append(pending, piece{a.name, a.body, at, a.end})
			a.end = at
		case op < 6: // a piece waiting for a path, unless its item is in
			if len(pending) == 0 {
				continue
			}
			i := rng.Intn(len(pending))
			pc := pending[i]
			pending = append(pending[:i], pending[i+1:]...)
			if _, stored := want[pc.name]; !stored {
				start(pc.name, pc.body, pc.off, pc.end)
			}
		default: // an attempt ends, one in four short
			if len(running) == 0 {
				continue
			}
			i := rng.Intn(len(running))
			a := running[i]
			running = append(running[:i], running[i+1:]...)
			ok := rng.Intn(4) != 0
			a.gate <- ok
			if err := <-a.done; (err == nil) != ok {
				fail("attempt %d (%s body %d [%d, %d)) ended ok=%v, sink said %v", a.id, a.name, a.body, a.off, a.end, ok, err)
			}
			k := [2]any{a.name, a.body}
			switch {
			case !ok && a.body > 0:
				pending = append(pending, piece{a.name, a.body, a.off, a.end})
			case !ok:
			case a.body == 0:
				if _, stored := want[a.name]; !stored {
					want[a.name] = make([]byte, sizes[a.name])
					for j := range want[a.name] {
						want[a.name][j] = pattern(a.id, int64(j))
					}
				}
			default:
				if pieces[k] == nil {
					pieces[k] = make([]byte, sizes[a.name])
				}
				for j := a.off; j < a.end; j++ {
					pieces[k][j] = pattern(a.id, j)
				}
				if covered[k] += a.end - a.off; covered[k] == sizes[a.name] {
					if _, stored := want[a.name]; !stored {
						want[a.name], won[k] = pieces[k], true
					}
				}
			}
		}
		check()
	}
	for len(running) > 0 { // the session ends: its attempts fail
		a := running[0]
		running = running[1:]
		a.gate <- false
		if err := <-a.done; err == nil {
			fail("a failed attempt succeeded")
		}
	}
	check()
	// The waits for stored names return their bodies; only then are the
	// others cancelled (a cancel racing a delivered body may win).
	for _, name := range names {
		if _, stored := want[name]; stored {
			if got := <-waiters[name]; !bytes.Equal(got, want[name]) {
				fail("Wait(%s) = %d bytes, not the first coverage (%d bytes)", name, len(got), len(want[name]))
			}
		}
	}
	cancel()
	for _, name := range names {
		if _, stored := want[name]; !stored {
			if got := <-waiters[name]; got != nil {
				fail("Wait(%s) = %d bytes for a name never stored", name, len(got))
			}
		}
	}
	cache.Release()
	l.drain()
	if l.held() != 0 {
		fail("%d buffers not back after Release", l.held())
	}
}
