package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a run's one CPU budget: Workers tokens, one of which belongs to
// the goroutine that created the pool and drives the run (the replay).
// Every other goroutine the run starts executes only while it holds a
// token, so at most Workers task bodies run at once, counting the driver.
// Queued tasks (Go) wait for a token; synchronous fan-outs (Fan) borrow
// free ones or run inline, so nested use never blocks. The driver lends
// its token to queued tasks while it waits on them (Idle, Wait).
//
// Workers and Fan treat a nil pool as a budget of one. Go, GoContext,
// Idle and Wait need a pool, which keeps queued tasks' errors: a caller
// with no budget passes NewPool(1), whose tasks run inline.
type Pool struct {
	// tokens holds one element per token in use, the driver's included.
	tokens chan struct{}
	wg     sync.WaitGroup

	mu  sync.Mutex
	err error
}

// NewPool creates the budget of one run with `workers` tokens, one of
// them held by the calling goroutine; workers <= 0 selects GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{tokens: make(chan struct{}, workers)}
	p.tokens <- struct{}{}
	return p
}

// Workers returns the budget's size: the resolved worker count
// (NewPool's GOMAXPROCS default included). A nil pool is a budget of one.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return cap(p.tokens)
}

// Go queues one task (the δ-sweep's per-snapshot detectors, the SVM
// evaluation): it runs once it gets a token. With a budget of one there
// is none to wait for, and the task runs inline before Go returns.
// Tasks run even after another task has failed (their errors are simply
// dropped), keeping result-slot writes deterministic.
func (p *Pool) Go(fn func() error) {
	if p.Workers() == 1 {
		p.record(fn())
		return
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.tokens <- struct{}{}
		defer func() { <-p.tokens }()
		p.record(fn())
	}()
}

func (p *Pool) record(err error) {
	if err == nil {
		return
	}
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

// GoContext is Go for cancellable fan-out: if ctx is already cancelled when
// the task's token frees up, the task body is skipped and ctx's error
// recorded instead. Result-slot writes stay deterministic — a skipped task
// simply leaves its slot empty. The task itself should also consume ctx
// (e.g. a context-aware replay) so in-flight work stops promptly.
func (p *Pool) GoContext(ctx context.Context, fn func() error) {
	p.Go(func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return fn()
	})
}

// Fan calls body(w, i) for every i in [0, n) and returns when all calls
// have (the per-day stage tasks, the sampled-BFS lane batches). The
// caller runs items itself as worker w = 0; each token free right now
// adds one helper goroutine (w = 1, 2, …, always < n), and every worker
// takes the next unclaimed item until none is left. Fan never waits for
// a token, so a fan-out nested in a task or another fan-out cannot
// deadlock. Callers keep per-worker scratch indexed by w and must not
// depend on which worker runs which item. A nil pool runs every item
// inline.
func (p *Pool) Fan(n int, body func(w, i int)) {
	var next atomic.Int64
	work := func(w int) {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			body(w, i)
		}
	}
	var wg sync.WaitGroup
	helpers := 0
	for w := 1; w < n && p.tryTake(); w++ {
		helpers++
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-p.tokens }()
			work(w)
		}()
	}
	if helpers > 0 {
		// A new goroutine waits in this P's run slot until the caller
		// blocks or another P is idle to steal it; yield once so it starts
		// now instead of behind the caller's own share of the items.
		runtime.Gosched()
	}
	work(0)
	wg.Wait()
}

// tryTake takes a free token if there is one, without waiting.
func (p *Pool) tryTake() bool {
	if p == nil {
		return false
	}
	select {
	case p.tokens <- struct{}{}:
		return true
	default:
		return false
	}
}

// Idle runs wait, a blocking wait of the driver on queued tasks, with the
// driver's token lent to them, and takes a token back before returning.
func (p *Pool) Idle(wait func()) {
	<-p.tokens
	defer func() { p.tokens <- struct{}{} }()
	wait()
}

// Wait blocks until every queued task has finished and returns the first
// error any task reported. Only the driver may call it: it lends the
// driver's token while it waits. The pool is reusable after Wait.
func (p *Pool) Wait() error {
	p.Idle(p.wg.Wait)
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}
