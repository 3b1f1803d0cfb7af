package freelist

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// The free list hands out the smallest buffer that fits, drops the
// smallest on a miss so it turns over to a larger rendition, and keeps
// no more than Keep bytes.
func TestListBestFitAndBound(t *testing.T) {
	const keep = 32 << 20
	mk := func(n int) *[]byte { b := make([]byte, n); return &b }
	put := func(l *List[*[]byte], bp *[]byte) { l.Put(bp, cap(*bp)) }
	l := List[*[]byte]{Keep: keep}
	small, large, mid := mk(100), mk(300), mk(200)
	put(&l, small)
	put(&l, large)
	put(&l, mid)
	if got, _ := l.Get(150); got != mid {
		t.Fatalf("get(150) = cap %d, want the 200-byte buffer", capOf(got))
	}
	if got, ok := l.Get(1000); ok || got != nil {
		t.Fatalf("get(1000) = cap %d, want a miss", capOf(got))
	}
	if len(l.free) != 1 || l.free[0].v != large || l.bytes != 300 {
		t.Fatalf("after the miss: %d buffers, %d bytes; want only the 300-byte one", len(l.free), l.bytes)
	}

	full := List[*[]byte]{Keep: keep, bytes: keep - 10}
	put(&full, mk(11))
	put(&full, mk(10))
	if len(full.free) != 1 || full.free[0].size != 10 || full.bytes != keep {
		t.Fatalf("past the bound: %d buffers, %d bytes; want the 10-byte one kept and %d", len(full.free), full.bytes, keep)
	}
}

func capOf(bp *[]byte) int {
	if bp == nil {
		return -1
	}
	return cap(*bp)
}

// A value put twice would be handed to two users; the second Put panics
// and names the list.
func TestPutTwicePanics(t *testing.T) {
	l := List[*[]byte]{Name: "test buffers", Keep: 1 << 10}
	b := make([]byte, 8)
	l.Put(&b, 8)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "test buffers") {
			t.Fatalf("second Put: recovered %q, want a panic naming the list", msg)
		}
	}()
	l.Put(&b, 8)
}

// A random script of Gets and Puts against a plain model of the rules:
// best fit, the smallest dropped on a miss, a Put kept only within Keep.
// After every step the list holds exactly the model's values.
func TestListMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			const keep = 200
			l := List[int]{Name: "model", Keep: keep}
			model := map[int]int{} // value → size, what the list should hold
			var held []int         // values out of the list, by a user
			sizes := map[int]int{} // every value's size
			next := 0
			for step := 0; step < 500; step++ {
				if len(held) == 0 || rng.Intn(2) == 0 {
					size := rng.Intn(60)
					v, ok := l.Get(size)
					best, smallest := -1, -1
					for mv, ms := range model {
						if ms >= size && (best < 0 || ms < model[best]) {
							best = mv
						}
						if smallest < 0 || ms < model[smallest] {
							smallest = mv
						}
					}
					switch {
					case best >= 0:
						if ms, in := model[v]; !ok || !in || ms != model[best] {
							t.Fatalf("step %d: Get(%d) = %d (%v), want a value of size %d", step, size, v, ok, model[best])
						}
						delete(model, v)
					case ok:
						t.Fatalf("step %d: Get(%d) = %d, want a miss", step, size, v)
					default:
						if smallest >= 0 {
							dropSmallest(t, step, &l, model)
						}
						v, next = next, next+1
						sizes[v] = size
					}
					held = append(held, v)
				} else {
					i := rng.Intn(len(held))
					v := held[i]
					held[i] = held[len(held)-1]
					held = held[:len(held)-1]
					total := 0
					for _, ms := range model {
						total += ms
					}
					l.Put(v, sizes[v])
					if total+sizes[v] <= keep {
						model[v] = sizes[v]
					}
				}
				checkModel(t, step, &l, model, keep)
			}
		})
	}
}

// dropSmallest removes from model the value a miss dropped: the one
// value the list no longer holds, which must be of the smallest size.
func dropSmallest(t *testing.T, step int, l *List[int], model map[int]int) {
	t.Helper()
	kept := map[int]bool{}
	for _, e := range l.free {
		kept[e.v] = true
	}
	smallest := -1
	for _, ms := range model {
		if smallest < 0 || ms < smallest {
			smallest = ms
		}
	}
	for mv, ms := range model {
		if !kept[mv] {
			if ms != smallest {
				t.Fatalf("step %d: a miss dropped a value of size %d, want one of size %d", step, ms, smallest)
			}
			delete(model, mv)
			return
		}
	}
	t.Fatalf("step %d: a miss dropped nothing", step)
}

func checkModel(t *testing.T, step int, l *List[int], model map[int]int, keep int) {
	t.Helper()
	var got, want [][2]int
	total := 0
	for _, e := range l.free {
		got = append(got, [2]int{e.v, e.size})
		total += e.size
	}
	for mv, ms := range model {
		want = append(want, [2]int{mv, ms})
	}
	less := func(s [][2]int) func(i, j int) bool { return func(i, j int) bool { return s[i][0] < s[j][0] } }
	sort.Slice(got, less(got))
	sort.Slice(want, less(want))
	if fmt.Sprint(got) != fmt.Sprint(want) || total != l.bytes || total > keep {
		t.Fatalf("step %d: list holds %v (%d bytes, counted %d), model %v, Keep %d", step, got, total, l.bytes, want, keep)
	}
}
