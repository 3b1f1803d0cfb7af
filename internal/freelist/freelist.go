// Package freelist is the one way the serving paths reuse buffers: a
// bounded best-fit list per kind of buffer. It is not a sync.Pool, which
// the collector empties, so that whether a buffer survives from one use
// to the next, and an allocation metric with it, does not hang on when
// collections fall.
package freelist

import (
	"fmt"
	"sync"
)

// List is a free list of values of type T, each with a size in bytes,
// keeping at most Keep bytes. A value belongs to the list or to one
// user, never both, so T is a pointer (or another handle) whose identity
// Put can check. A List must not be copied after first use.
type List[T comparable] struct {
	Name string // names the list in a double-release panic
	Keep int    // the most bytes the list holds

	mu    sync.Mutex
	free  []entry[T]
	bytes int // Σ size of free
}

type entry[T comparable] struct {
	v    T
	size int
}

// Get removes and returns the smallest kept value of at least size
// bytes, or reports a miss. A miss drops the smallest kept value, all of
// which are too small, so a list turns over to larger values when its
// users' sizes grow (a larger rendition, a larger batch).
func (l *List[T]) Get(size int) (v T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fit, small := -1, -1
	for i, e := range l.free {
		if e.size >= size && (fit < 0 || e.size < l.free[fit].size) {
			fit = i
		}
		if small < 0 || e.size < l.free[small].size {
			small = i
		}
	}
	i := fit
	if fit < 0 {
		i = small
	}
	if i < 0 {
		return v, false
	}
	e, last := l.free[i], len(l.free)-1
	l.free[i], l.free[last] = l.free[last], entry[T]{}
	l.free = l.free[:last]
	l.bytes -= e.size
	if fit < 0 {
		return v, false
	}
	return e.v, true
}

// Put hands v, of size bytes, back to the list, which keeps it unless
// that would pass Keep. Putting a value the list already holds panics:
// a second release would give one buffer to two users.
func (l *List[T]) Put(v T, size int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.free {
		if e.v == v {
			panic(fmt.Sprintf("freelist: %s: a value released twice", l.Name))
		}
	}
	if l.bytes+size > l.Keep {
		return
	}
	l.free = append(l.free, entry[T]{v, size})
	l.bytes += size
}
