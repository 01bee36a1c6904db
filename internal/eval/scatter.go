package eval

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

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
	// stalls, and where the fault injector sits.
	ShardScan(ctx context.Context, si int, rel string, cols []int, vals []string, fn func(t storage.Tuple) bool) error
}

// errStopped signals workers that another worker already aborted the
// enumeration; it never escapes to callers.
var errStopped = errors.New("eval: enumeration stopped")

// serialSink funnels frame deliveries from concurrent shard scans onto the
// single-threaded callback and latches the first error: once a delivery
// errors (recorded while still holding the mutex), the callback is never
// invoked again. Its per-shard cursors count the frames each shard has
// delivered, so a re-attempt of a shard — a retry or a hedge, which replay
// the same frame sequence — skips what an earlier attempt delivered: at-least-
// once attempts, exactly-once delivery.
type serialSink struct {
	fn       frameFn
	mu       sync.Mutex
	stop     atomic.Bool
	errOnce  sync.Once
	firstErr error
	cursor   []int
}

func newSerialSink(fn frameFn, shards int) *serialSink {
	return &serialSink{fn: fn, cursor: make([]int, shards)}
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

// deliverAt hands frame number idx of shard si to the callback, serialized
// across workers and deduplicated against the shard's cursor.
func (s *serialSink) deliverAt(si, idx int, frame []string, ms []Match) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stop.Load() {
		return errStopped
	}
	if idx < s.cursor[si] {
		return nil // a previous attempt of this shard already delivered it
	}
	if err := s.fn(frame, ms); err != nil {
		// Record and raise stop while still holding the mutex, so no other
		// worker can deliver a frame after fn errored.
		s.abort(err)
		return err
	}
	s.cursor[si] = idx + 1
	return nil
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
