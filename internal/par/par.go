// Package par provides the simulator's intra-tick parallelism
// primitives: a bounded pool of persistent workers, deterministic
// shard fan-out, and panic capture.
//
// Determinism contract. Parallel phases in this repo never race on
// outputs: work is split into shards whose outputs go to disjoint,
// shard-indexed storage, and the shards are merged in shard order
// afterwards. Which *worker goroutine* executes which shard is fixed
// (strided assignment, see Pool.RunShards), so per-worker scratch
// buffers are reused safely and the only nondeterminism left is
// instruction interleaving — invisible once outputs are disjoint.
// Every parallel phase built on this package must therefore produce
// results byte-identical to its serial equivalent; the simnet
// determinism tests enforce that end to end.
package par

import (
	"fmt"
	"runtime"
)

// PanicError wraps a recovered panic value together with the stack of
// the panicking goroutine, so a panic on a worker can cross goroutine
// boundaries without losing its origin.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (p *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", p.Value, p.Stack)
}

// Recover runs fn and converts a panic into a *PanicError. A nil
// return means fn completed normally. runtime.Goexit is not recovered.
func Recover(fn func()) (err error) {
	defer func() {
		if v := recover(); v != nil {
			buf := make([]byte, 64<<10)
			buf = buf[:runtime.Stack(buf, false)]
			err = &PanicError{Value: v, Stack: buf}
		}
	}()
	fn()
	return nil
}

// Pool is a fixed set of persistent worker goroutines executing
// fan-out calls. A Pool is safe for use by one dispatcher at a time
// (calls to Run/RunShards must not overlap); the simulation loop owns
// one pool per run. Close releases the workers.
//
// A nil *Pool is valid and means "no parallelism": Run and RunShards
// execute inline on the caller's goroutine with worker index 0.
type Pool struct {
	workers int
	cmd     []chan func()
	done    chan workerResult
	closed  bool
}

type workerResult struct {
	worker int
	err    error
}

// NewPool starts a pool of the given size (values < 1 are clamped to
// 1). The pool holds exactly `workers` goroutines until Close.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{
		workers: workers,
		cmd:     make([]chan func(), workers),
		done:    make(chan workerResult, workers),
	}
	for w := 0; w < workers; w++ {
		p.cmd[w] = make(chan func())
		go p.worker(w, p.cmd[w])
	}
	return p
}

func (p *Pool) worker(id int, cmd chan func()) {
	for fn := range cmd {
		p.done <- workerResult{worker: id, err: Recover(fn)}
	}
}

// Workers returns the pool size (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Close stops the worker goroutines. The pool must be idle. Close is
// idempotent and nil-safe.
func (p *Pool) Close() {
	if p == nil || p.closed {
		return
	}
	p.closed = true
	for _, c := range p.cmd {
		close(c)
	}
}

// Run executes fn(w) once per worker w in [0, Workers()) and waits for
// all of them. If any invocation panics, Run re-panics with the
// *PanicError of the lowest worker index (a deterministic choice) after
// every worker has finished, so the pool is reusable afterwards.
func (p *Pool) Run(fn func(worker int)) {
	if p == nil {
		fn(0)
		return
	}
	for w := 0; w < p.workers; w++ {
		w := w
		p.cmd[w] <- func() { fn(w) }
	}
	p.wait(p.workers)
}

// RunShards executes fn(worker, shard) for every shard in [0, shards).
// Shards are assigned statically by stride: worker w runs shards
// w, w+W, w+2W, … in increasing order. The assignment is deterministic,
// so fn may use per-worker scratch and write per-shard outputs without
// synchronization. Panics propagate as in Run.
func (p *Pool) RunShards(shards int, fn func(worker, shard int)) {
	if shards <= 0 {
		return
	}
	if p == nil {
		for s := 0; s < shards; s++ {
			fn(0, s)
		}
		return
	}
	w := p.workers
	if shards < w {
		w = shards
	}
	for i := 0; i < w; i++ {
		i := i
		p.cmd[i] <- func() {
			for s := i; s < shards; s += p.workers {
				fn(i, s)
			}
		}
	}
	p.wait(w)
}

// wait collects n completions and re-panics the captured panic of the
// lowest worker index, a deterministic choice. All workers are drained
// before panicking so the pool stays reusable.
func (p *Pool) wait(n int) {
	var first error
	firstW := -1
	for i := 0; i < n; i++ {
		r := <-p.done
		if r.err != nil && (firstW < 0 || r.worker < firstW) {
			first, firstW = r.err, r.worker
		}
	}
	if first != nil {
		panic(first)
	}
}

// Shards picks a shard count for fanning `items` units of work over
// `workers`: a few shards per worker so uneven per-shard cost balances
// out under the strided assignment, capped by the item count and never
// below 1.
func Shards(workers, items int) int {
	s := workers * 4
	if s > items {
		s = items
	}
	if s < 1 {
		s = 1
	}
	return s
}

// Shard returns the half-open range [lo, hi) of the i-th of `parts`
// contiguous, maximally even shards over [0, n). Empty shards (when
// parts > n) return lo == hi.
func Shard(n, parts, i int) (lo, hi int) {
	if parts <= 0 {
		panic("par: Shard with non-positive parts")
	}
	q, r := n/parts, n%parts
	lo = i*q + min(i, r)
	hi = lo + q
	if i < r {
		hi++
	}
	return lo, hi
}
