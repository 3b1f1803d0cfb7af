package fault

import (
	"context"
	"errors"
	"testing"
	"time"

	"threegol/internal/scheduler"
)

// The live driver's property test is only as hostile as its test path:
// these hold memPath to walkAttempt's fault model in real time.

func TestPathRefusesAtAdmission(t *testing.T) {
	plan := NewPlan(Window{Target: "phone1", Kind: Blackout, Start: 0, End: Forever})
	p := &memPath{name: "phone1", rate: 1e6, plan: plan, epoch: time.Now()}
	n, err := p.Transfer(context.Background(), scheduler.Item{Size: 1000})
	if n != 0 || !errors.Is(err, errKilled) {
		t.Fatalf("Transfer = %d, %v; want 0 and a killed attempt", n, err)
	}
}

func TestPathKillsMidTransfer(t *testing.T) {
	// A reset window opens 60 ms in; the transfer would take 500 ms. The
	// attempt dies at the window's edge with the bytes moved until then.
	plan := NewPlan(Window{Target: "phone1", Kind: Reset, Start: 0.06, End: 10})
	start := time.Now()
	p := &memPath{name: "phone1", rate: 10e3, plan: plan, epoch: start}
	n, err := p.Transfer(context.Background(), scheduler.Item{Size: 5000})
	if !errors.Is(err, errKilled) {
		t.Fatalf("err = %v; want a killed attempt", err)
	}
	if d := time.Since(start); d > 400*time.Millisecond {
		t.Fatalf("kill took %v; want it at the 60 ms edge", d)
	}
	if n < 300 || n > 600 {
		t.Fatalf("killed after %d bytes; want the ≤ 600 moved before the edge", n)
	}
}

func TestPathAdmissionStall(t *testing.T) {
	// A stall window covering admission holds the transfer silently —
	// no bytes, no error — then lets it through.
	plan := NewPlan(Window{Target: "phone1", Kind: Stall, Start: 0, End: 0.08})
	start := time.Now()
	p := &memPath{name: "phone1", rate: 1e6, plan: plan, epoch: start}
	var early int64
	n, err := p.TransferProgress(context.Background(), scheduler.Item{Size: 7}, func(total int64) {
		if time.Since(start) < 70*time.Millisecond {
			early += total
		}
	})
	if err != nil || n != 7 {
		t.Fatalf("Transfer = %d, %v", n, err)
	}
	if d := time.Since(start); d < 70*time.Millisecond || early != 0 {
		t.Fatalf("stall window not honoured: transfer took %v, %d bytes reported inside it", d, early)
	}

	// A cancelled caller escapes the hold with ctx.Err().
	plan2 := NewPlan(Window{Target: "phone1", Kind: Stall, Start: 0, End: 30})
	p2 := &memPath{name: "phone1", rate: 1e6, plan: plan2, epoch: time.Now()}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if n, err := p2.Transfer(ctx, scheduler.Item{Size: 7}); n != 0 || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Transfer = %d, %v; want 0 and deadline exceeded", n, err)
	}
}

func TestPathFreezesMidTransfer(t *testing.T) {
	// 1000 bytes at 10 KB/s take 100 ms of clean air; a stall over
	// [50 ms, 150 ms) freezes the count halfway and delays the end to
	// 200 ms.
	plan := NewPlan(Window{Target: "phone1", Kind: Stall, Start: 0.05, End: 0.15})
	start := time.Now()
	p := &memPath{name: "phone1", rate: 10e3, plan: plan, epoch: start}
	var frozen []int64
	n, err := p.TransferProgress(context.Background(), scheduler.Item{Size: 1000}, func(total int64) {
		if d := time.Since(start); d > 60*time.Millisecond && d < 140*time.Millisecond {
			frozen = append(frozen, total)
		}
	})
	if err != nil || n != 1000 {
		t.Fatalf("Transfer = %d, %v", n, err)
	}
	if d := time.Since(start); d < 190*time.Millisecond {
		t.Fatalf("transfer took %v; want ≥ 200 ms with the stall", d)
	}
	for _, total := range frozen {
		if total != frozen[0] || total < 300 || total > 500 {
			t.Fatalf("progress inside the stall = %v; want one frozen count of ≤ 500", frozen)
		}
	}
}
