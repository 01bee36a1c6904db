package eval

import (
	"context"
	"runtime"
	"sync"

	"citare/internal/obs"
	"citare/internal/storage"
)

// Partitioned exposes a hash-partitioned database to the evaluator. The
// interface doubles as the union DBView across every shard (deep join atoms
// look up through it, with per-lookup pruning inside the implementation);
// the extra methods let the scatter-gather driver partition the first join
// atom by shard and skip shards that provably cannot match. Compile detects
// a Partitioned view automatically, so plans compiled over one scatter-
// gather without a separate entry point.
type Partitioned interface {
	DBView
	// NumShards returns the number of shards.
	NumShards() int
	// Shard returns the shard-local view of one partition.
	Shard(i int) DBView
	// CandidateShards reports which shards can contain tuples of rel whose
	// projection on cols equals vals. nil means every shard must be
	// consulted (the lookup does not bind the relation's shard key).
	CandidateShards(rel string, cols []int, vals []string) []int
}

// scatterWorkers resolves the worker count for a scatter-gather run: shards
// are the unit of partitioning, so the pool never exceeds the candidate
// shard count. Auto applies the same cardinality rule as the plain driver —
// small enumerations stay sequential regardless of shard count — capped at
// GOMAXPROCS (always sequential on a single core).
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

// scatterFrames enumerates the plan scatter-gather across the partitioned
// view's shards: the first step scans each candidate shard's local relation
// (pruned through CandidateShards when the step binds the shard key), and
// deeper steps run against the union view, which prunes per lookup. Shard
// boundaries are cancellation points, and each shard's exec re-checks ctx
// between candidate tuples.
func (p *Plan) scatterFrames(ctx context.Context, opts Options, fn frameFn) error {
	part := p.part
	st0 := &p.steps[0]
	var lookupVals []string
	if len(st0.lookupCols) > 0 {
		// Only constants can be bound at depth 0; they determine both the
		// in-shard lookup and the shard pruning.
		lookupVals = make([]string, len(st0.lookupSrc))
		for i, src := range st0.lookupSrc {
			lookupVals[i] = src.konst
		}
	}
	cands := part.CandidateShards(st0.pred, st0.lookupCols, lookupVals)
	if cands == nil {
		cands = make([]int, part.NumShards())
		for i := range cands {
			cands[i] = i
		}
	}
	if len(cands) == 0 {
		return nil
	}
	// When a trace rides the context, each candidate shard's enumeration
	// gets its own child span under the current one — that is the
	// per-shard timing breakdown Explain reports. tr is nil otherwise and
	// every call below is a no-op.
	tr, cur := obs.FromContext(ctx)
	tr.SetInt(cur, "shards", int64(len(cands)))

	// scanShard enumerates the first step inside one shard and descends the
	// remaining steps against the union view through e.
	scanShard := func(e *exec, si int) error {
		rel := part.Shard(si).Relation(st0.pred)
		if rel == nil {
			return nil
		}
		ssp := tr.Start(cur, "shard")
		tr.SetInt(ssp, "shard", int64(si))
		var iterErr error
		iter := func(t storage.Tuple) bool {
			if err := e.feed(0, t); err != nil {
				iterErr = err
				return false
			}
			return true
		}
		if len(st0.lookupCols) > 0 {
			rel.Lookup(st0.lookupCols, lookupVals, iter)
		} else {
			rel.Scan(iter)
		}
		tr.End(ssp)
		return iterErr
	}

	workers := p.scatterWorkers(opts, len(cands))
	tr.SetInt(cur, "workers", int64(workers))
	if workers <= 1 {
		e := p.newExec(ctx, fn)
		for _, si := range cands {
			if err := ctx.Err(); err != nil { // shard boundary
				return err
			}
			if err := scanShard(e, si); err != nil {
				return err
			}
		}
		return nil
	}

	// Concurrent scatter: one worker per candidate shard, capped at the
	// resolved worker count; deliveries are serialized through the sink so
	// the callback keeps the sequential single-threaded contract.
	sink := newSerialSink(fn)
	shardCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := p.newExec(ctx, sink.deliver)
			for si := range shardCh {
				if sink.stopped() {
					continue // drain remaining shard indexes
				}
				if err := scanShard(e, si); err != nil && err != errStopped {
					sink.abort(err)
				}
			}
		}()
	}
	for _, si := range cands {
		shardCh <- si
	}
	close(shardCh)
	wg.Wait()
	return sink.err()
}
