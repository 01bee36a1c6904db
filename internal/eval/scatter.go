package eval

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"citare/internal/obs"
	"citare/internal/storage"
)

// Partitioned exposes a hash-partitioned database to the evaluator. The
// interface doubles as the union DBView across every shard (deep join atoms
// look up through it, with per-lookup pruning inside the implementation);
// the extra methods let scatter-gather read the first join atom shard by
// shard and skip shards that provably cannot match. Compile detects a
// Partitioned view automatically, so plans compiled over one scatter-gather
// without a separate entry point.
type Partitioned interface {
	DBView
	// NumShards returns the number of shards.
	NumShards() int
	// CandidateShards reports which shards can contain tuples of rel whose
	// projection on cols equals vals. nil means every shard must be
	// consulted (the lookup does not bind the relation's shard key).
	CandidateShards(rel string, cols []int, vals []string) []int
	// ShardScan enumerates rel's live tuples inside shard si matching the
	// lookup (cols empty means a full scan), honoring ctx, in a
	// deterministic order that is stable across calls on an immutable view.
	// It is the one per-shard read: the seam where a shard backend fails or
	// stalls, where the fault injector sits, and where the attempt policy
	// (Resilient) wraps it.
	ShardScan(ctx context.Context, si int, rel string, cols []int, vals []string, fn func(t storage.Tuple) bool) error
}

// errStopped signals workers that another worker already aborted the
// enumeration; it never escapes to callers.
var errStopped = errors.New("eval: enumeration stopped")

// serialSink funnels frame deliveries from concurrent shard scans onto the
// single-threaded callback and latches the first error: once a delivery
// errors (recorded while still holding the mutex), the callback is never
// invoked again.
type serialSink struct {
	fn       frameFn
	mu       sync.Mutex
	stop     atomic.Bool
	errOnce  sync.Once
	firstErr error
}

// abort records the first error and raises the stop flag.
func (s *serialSink) abort(err error) {
	s.errOnce.Do(func() { s.firstErr = err })
	s.stop.Store(true)
}

// stopped reports whether workers should cease enumerating.
func (s *serialSink) stopped() bool { return s.stop.Load() }

// err returns the first recorded error, for use after all workers joined.
func (s *serialSink) err() error { return s.firstErr }

// deliver hands a frame to the callback, serialized across workers.
func (s *serialSink) deliver(frame []string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stop.Load() {
		return errStopped
	}
	if err := s.fn(frame); err != nil {
		// Record and raise stop while still holding the mutex, so no other
		// worker can deliver a frame after fn errored.
		s.abort(err)
		return err
	}
	return nil
}

// scatterLookupVals resolves the first step's constant lookup values (only
// constants can be bound at depth 0); nil when the step scans.
func (p *Plan) scatterLookupVals() []string {
	st0 := &p.steps[0]
	if len(st0.lookupCols) == 0 {
		return nil
	}
	vals := make([]string, len(st0.lookupSrc))
	for i, r := range st0.lookupSrc {
		vals[i] = p.val(r, nil)
	}
	return vals
}

// scatterFrames enumerates the plan scatter-gather: the first join atom is
// read with one ShardScan per candidate shard — pruned through
// CandidateShards when the atom binds the shard key — on up to
// Options.Parallel workers, and deeper atoms read through the union view.
// The first shard whose scan fails aborts the enumeration with an
// *UnavailableError naming it; whatever attempt policy stands behind a scan
// is the view's own (Resilient). Shard boundaries are cancellation points,
// and each shard's exec re-checks ctx between candidate tuples. When a trace
// rides the context, each shard gets a "shard" span under the current one —
// the per-shard timing breakdown Explain reports.
func (p *Plan) scatterFrames(ctx context.Context, opts Options, fn frameFn) error {
	st0 := &p.steps[0]
	vals := p.scatterLookupVals()
	cands := p.part.CandidateShards(st0.pred, st0.lookupCols, vals)
	if cands == nil {
		cands = make([]int, p.part.NumShards())
		for i := range cands {
			cands[i] = i
		}
	}
	if len(cands) == 0 {
		return nil
	}
	tr, cur := obs.FromContext(ctx)
	tr.SetInt(cur, "shards", int64(len(cands)))
	sink := &serialSink{fn: fn}
	workers := p.scatterWorkers(opts, len(cands))
	tr.SetInt(cur, "workers", int64(workers))
	run := func(si int) {
		if err := p.scanShard(ctx, sink, si, vals, tr, cur); err != nil {
			sink.abort(err)
		}
	}
	if workers <= 1 {
		for _, si := range cands {
			if sink.stopped() || ctx.Err() != nil {
				break
			}
			run(si)
		}
	} else {
		shardCh := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for si := range shardCh {
					if !sink.stopped() { // else drain the remaining shard indexes
						run(si)
					}
				}
			}()
		}
		for _, si := range cands {
			shardCh <- si
		}
		close(shardCh)
		wg.Wait()
	}
	if err := sink.err(); err != nil {
		return err
	}
	return ctx.Err()
}

// scanShard reads shard si's first-step tuples through the ShardScan seam,
// descending deeper steps through a private exec that delivers into the
// sink. A failed scan is the shard's failure, unless the consumer or ctx
// ended it first.
func (p *Plan) scanShard(ctx context.Context, sink *serialSink, si int, vals []string, tr *obs.Trace, cur obs.SpanID) error {
	if tr != nil {
		sp := tr.Start(cur, "shard")
		tr.SetInt(sp, "shard", int64(si))
		defer tr.End(sp)
		ctx, cur = obs.NewContext(ctx, tr, sp), sp
	}
	st0 := &p.steps[0]
	e := p.newExec(ctx, sink.deliver) // its iter feeds step 0
	err := p.part.ShardScan(ctx, si, st0.pred, st0.lookupCols, vals, e.iter)
	switch {
	case e.err != nil:
		return e.err
	case err == nil:
		return nil
	case ctx.Err() != nil:
		return ctx.Err()
	}
	tr.SetStr(cur, "error", err.Error())
	return &UnavailableError{Shard: si, Err: err}
}

// scatterWorkers resolves the worker count for a scatter-gather run: shards
// are the unit of partitioning, so the pool never exceeds the candidate
// shard count. Auto derives the count from the plan's largest relation —
// one worker per tuplesPerWorker tuples, so small enumerations stay on one
// worker regardless of shard count — capped at GOMAXPROCS (always one
// worker on a single core).
func (p *Plan) scatterWorkers(opts Options, cands int) int {
	w := 1
	switch {
	case opts.Parallel == Auto:
		w = runtime.GOMAXPROCS(0)
		if byCard := p.maxCard / tuplesPerWorker; byCard < w {
			w = byCard
		}
	case opts.Parallel > 1:
		w = opts.Parallel
	}
	if w > cands {
		w = cands
	}
	if w < 1 {
		w = 1
	}
	return w
}
