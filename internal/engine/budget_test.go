package engine

import (
	"sync/atomic"
	"testing"
	"time"
)

// budgetProbe tracks how many goroutines run budget work at once.
type budgetProbe struct{ cur, peak atomic.Int64 }

func (b *budgetProbe) enter() {
	n := b.cur.Add(1)
	for p := b.peak.Load(); n > p && !b.peak.CompareAndSwap(p, n); p = b.peak.Load() {
	}
}

func (b *budgetProbe) leave() { b.cur.Add(-1) }

// fanWork fans n items out on p, nesting depth more fan-outs inside
// every item. Items on helper goroutines (w > 0) count as running
// bodies; items on the caller run on a goroutine already counted.
func fanWork(p *Pool, b *budgetProbe, n, depth int) {
	p.Fan(n, func(w, _ int) {
		if w > 0 {
			b.enter()
			defer b.leave()
		}
		time.Sleep(50 * time.Microsecond)
		if depth > 0 {
			fanWork(p, b, n, depth-1)
		}
	})
}

// TestBudgetCapsConcurrency holds the budget's one rule: however queued
// tasks and nested fan-outs interleave, at most Workers bodies run at
// once, counting the driver. The driver fans out while queued tasks run
// fan-outs of their own, and every item nests a further fan-out.
func TestBudgetCapsConcurrency(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4} {
		p := NewPool(workers)
		var b budgetProbe
		var items atomic.Int64
		b.enter() // the driver holds its token until it waits
		for i := 0; i < 6; i++ {
			p.Go(func() error {
				// A budget of one runs the task inline on the driver,
				// which is counted already.
				if workers > 1 {
					b.enter()
					defer b.leave()
				}
				fanWork(p, &b, 3, 1)
				items.Add(1)
				return nil
			})
		}
		for i := 0; i < 3; i++ {
			fanWork(p, &b, 4, 2)
		}
		b.leave()
		if err := p.Wait(); err != nil {
			t.Fatal(err)
		}
		if got := b.peak.Load(); got > int64(workers) {
			t.Errorf("workers=%d: %d bodies ran at once", workers, got)
		}
		if items.Load() != 6 {
			t.Errorf("workers=%d: %d of 6 tasks ran", workers, items.Load())
		}
		if b.cur.Load() != 0 {
			t.Errorf("workers=%d: %d bodies still counted after Wait", workers, b.cur.Load())
		}
	}
}

// TestBudgetFanNeverWaits: with every spare token held by queued tasks
// that cannot finish yet, a fan-out — from the driver, nested in another
// fan-out, or started inside a running task — runs all of its items
// inline on its caller instead of waiting for a token.
func TestBudgetFanNeverWaits(t *testing.T) {
	const workers = 3
	p := NewPool(workers)
	release, held, start := make(chan struct{}), make(chan struct{}), make(chan struct{})
	inTask, inDriver := make(chan int64, 1), make(chan int64, 1)
	for i := 0; i < workers-1; i++ {
		first := i == 0
		p.Go(func() error {
			held <- struct{}{}
			if first {
				<-start
				inTask <- countInline(t, p)
			}
			<-release
			return nil
		})
	}
	for i := 0; i < workers-1; i++ {
		<-held // every spare token is taken; the driver holds its own
	}
	close(start)
	go func() { inDriver <- countInline(t, p) }() // on behalf of the driver
	for who, ch := range map[string]chan int64{"driver": inDriver, "task": inTask} {
		select {
		case n := <-ch:
			if n != 5*3 {
				t.Errorf("%s fan-out ran %d items, want 15", who, n)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s fan-out blocked with no free token", who)
		}
	}
	close(release)
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
}

// countInline runs a fan-out with a nested fan-out in every item and
// fails the test if any item ran off the caller.
func countInline(t *testing.T, p *Pool) int64 {
	var n atomic.Int64
	p.Fan(5, func(w, _ int) {
		p.Fan(3, func(w2, _ int) {
			if w != 0 || w2 != 0 {
				t.Error("fan-out item ran on a helper with no token free")
			}
			n.Add(1)
		})
	})
	return n.Load()
}
