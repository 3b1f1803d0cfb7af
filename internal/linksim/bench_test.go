package linksim

import (
	"fmt"
	"testing"

	"threegol/internal/simclock"
)

// BenchmarkFlowChurn measures event-loop throughput: many short flows
// arriving and completing on a shared link (the reallocation hot path).
func BenchmarkFlowChurn(b *testing.B) {
	s := New(simclock.New())
	l := s.NewLink("l", 10*Mbps)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.StartFlow(FlowSpec{Name: "f", Bits: 1 * MB, Path: []*Link{l}})
		if len(s.flows) >= 16 {
			s.Run()
		}
	}
	s.Run()
}

// BenchmarkReallocate measures one max-min water-filling pass with many
// concurrent flows across several links.
func BenchmarkReallocate(b *testing.B) {
	for _, nFlows := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("flows=%d", nFlows), func(b *testing.B) {
			s := New(simclock.New())
			links := []*Link{
				s.NewLink("radio", 7.2*Mbps),
				s.NewLink("backhaul", 40*Mbps),
			}
			for i := 0; i < nFlows; i++ {
				s.StartFlow(FlowSpec{
					Name: "f", Bits: 1e15, // effectively unbounded
					RateCap: float64(1+i%3) * Mbps,
					Path:    links,
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Toggling capacity forces a full reallocation.
				links[0].SetCapacity(7.2*Mbps + float64(i%2)*Kbps)
			}
		})
	}
}
