package permitplane

import (
	"context"
	"testing"

	"threegol/internal/scheduler"
)

type stubPath struct {
	name  string
	n     int64
	calls int
}

func (p *stubPath) Name() string { return p.name }

func (p *stubPath) Transfer(ctx context.Context, item scheduler.Item) (int64, error) {
	p.calls++
	return p.n, nil
}

type stubProgressPath struct {
	stubPath
	progressCalls int
}

func (p *stubProgressPath) TransferProgress(ctx context.Context, item scheduler.Item, progress func(total int64)) (int64, error) {
	p.calls++
	p.progressCalls++
	progress(p.n)
	return p.n, nil
}

func TestGatePathBlocksWithoutPermit(t *testing.T) {
	allowed := true
	inner := &stubPath{name: "3g", n: 1000}
	p := GatePath(inner, func(context.Context) bool { return allowed })
	if p.Name() != "3g" {
		t.Errorf("gate renamed the path to %q", p.Name())
	}
	if n, err := p.Transfer(context.Background(), scheduler.Item{}); err != nil || n != 1000 {
		t.Errorf("permitted transfer: n=%d err=%v", n, err)
	}
	allowed = false
	if _, err := p.Transfer(context.Background(), scheduler.Item{}); err != ErrNotPermitted {
		t.Errorf("unpermitted transfer error = %v, want ErrNotPermitted", err)
	}
	if inner.calls != 1 {
		t.Errorf("inner path called %d times, want 1 (gate must short-circuit)", inner.calls)
	}
}

func TestGatePathPreservesProgress(t *testing.T) {
	inner := &stubProgressPath{stubPath: stubPath{name: "3g", n: 500}}
	allowed := true
	gated := GatePath(inner, func(context.Context) bool { return allowed })
	pp, ok := gated.(scheduler.ProgressPath)
	if !ok {
		t.Fatal("gating a ProgressPath lost the progress interface")
	}
	var reported int64
	n, err := pp.TransferProgress(context.Background(), scheduler.Item{}, func(total int64) { reported = total })
	if err != nil || n != 500 || reported != 500 {
		t.Errorf("gated progress transfer: n=%d reported=%d err=%v", n, reported, err)
	}
	allowed = false
	if _, err := pp.TransferProgress(context.Background(), scheduler.Item{}, func(int64) {}); err != ErrNotPermitted {
		t.Errorf("unpermitted progress transfer error = %v, want ErrNotPermitted", err)
	}
	if inner.progressCalls != 1 {
		t.Errorf("inner progress path called %d times, want 1", inner.progressCalls)
	}

	// A plain Path must not grow a progress method through the gate.
	if _, ok := GatePath(&stubPath{}, func(context.Context) bool { return true }).(scheduler.ProgressPath); ok {
		t.Error("gating a plain Path invented a progress interface")
	}
}
