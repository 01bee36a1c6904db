package eval

import (
	"context"
	"fmt"

	"citare/internal/storage"
)

// Pull-iterator execution mode.
//
// Frames and Tuples turn the push-based enumeration into composable pull
// iterators with per-tuple backpressure: a producer goroutine runs the plan's
// ordinary frame enumeration — sequential, worker-pool or scatter-gather, the
// strategy is unchanged — and feeds a bounded channel of small batches that
// the consumer drains at its own pace. When the consumer stalls, the channel
// fills and the producer blocks inside the enumeration, so at most
// iterChanCap batches of work are ever in flight instead of a gathered
// buffer proportional to the result.
//
// Batches grow adaptively from 1 to maxIterBatch frames: the first tuple
// crosses the channel as soon as it is ground (low first-result latency), and
// a long steady stream amortizes channel synchronization across 64-frame
// batches. Drained batch shells are recycled through a free list, so a
// streaming consumer allocates O(batches in flight), not O(frames). A fresh
// shell starts empty and grows with what it carries — a point evaluation
// yields a tuple or two, not a 64-frame batch — and a recycled shell keeps
// the capacity it grew to.
const (
	// maxIterBatch is the largest number of frames (or tuples) one batch
	// carries between the producer and the consumer.
	maxIterBatch = 64
	// iterChanCap bounds the batches buffered between producer and consumer —
	// the backpressure window of a streaming evaluation.
	iterChanCap = 4
)

// frameBatch carries up to maxIterBatch frames flattened into one backing
// slice (n frames × width values).
type frameBatch struct {
	vals []string
	n    int
}

// FrameIterator streams the satisfying valuations of a plan. Use it as
//
//	it := plan.Frames(ctx, opts)
//	defer it.Close()
//	for it.Next() {
//	    frame := it.Frame() // aligned with plan.Vars()
//	}
//	if err := it.Err(); err != nil { ... }
//
// The iterator is single-consumer and not safe for concurrent use. Frame()
// returns a view into an internal batch that is recycled: it is valid only
// until the next call to Next or Close, so retain copies, not the slice. The
// frame's string values are immutable and safe to keep.
type FrameIterator struct {
	width  int
	cancel context.CancelFunc
	ch     chan *frameBatch
	free   chan *frameBatch

	// prodErr is written by the producer before it closes ch; the channel
	// close orders it before the consumer's read.
	prodErr error

	cur    *frameBatch
	idx    int
	err    error
	closed bool
}

// Frames starts a streaming enumeration of the plan under ctx and returns its
// iterator. The producer honors the plan's usual execution strategy
// (sequential, worker-pool per opts.Parallel, scatter-gather for partitioned
// views); frames arrive in the strategy's enumeration order, which is
// deterministic only for sequential execution. Callers must Close the
// iterator (even after exhausting it) to release the producer.
func (p *Plan) Frames(ctx context.Context, opts Options) *FrameIterator {
	pctx, cancel := context.WithCancel(ctx)
	it := &FrameIterator{
		width:  len(p.varOf),
		cancel: cancel,
		ch:     make(chan *frameBatch, iterChanCap),
		free:   make(chan *frameBatch, iterChanCap+2),
	}
	go it.produce(pctx, p, opts)
	return it
}

// Vars returns the plan's variables in slot order; every frame the iterator
// yields is aligned with this list.
func (p *Plan) Vars() []string {
	return append([]string(nil), p.varOf...)
}

func (it *FrameIterator) batch() *frameBatch {
	select {
	case b := <-it.free:
		b.vals = b.vals[:0]
		b.n = 0
		return b
	default:
		return &frameBatch{}
	}
}

// produce runs the push enumeration into the bounded channel. It always
// closes ch on exit, which is the consumer's completion signal; a Close on
// the consumer side cancels pctx, unblocking any pending send.
func (it *FrameIterator) produce(ctx context.Context, p *Plan, opts Options) {
	defer close(it.ch)
	send := func(b *frameBatch) error {
		select {
		case it.ch <- b:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	limit := 1
	cur := it.batch()
	err := p.frames(ctx, opts, func(frame []string, _ []Match) error {
		cur.vals = append(cur.vals, frame...)
		cur.n++
		if cur.n < limit {
			return nil
		}
		if err := send(cur); err != nil {
			return err
		}
		if limit < maxIterBatch {
			limit *= 2
		}
		cur = it.batch()
		return nil
	})
	if err == nil && cur.n > 0 {
		err = send(cur)
	}
	it.prodErr = err
}

// Next advances to the next frame, reporting false at the end of the stream
// (check Err to distinguish exhaustion from failure).
func (it *FrameIterator) Next() bool {
	if it.closed || it.err != nil {
		return false
	}
	if it.cur != nil {
		if it.idx+1 < it.cur.n {
			it.idx++
			return true
		}
		select {
		case it.free <- it.cur:
		default:
		}
		it.cur = nil
	}
	b, ok := <-it.ch
	if !ok {
		it.err = it.prodErr
		return false
	}
	it.cur, it.idx = b, 0
	return true
}

// Frame returns the current valuation, one value per plan variable in slot
// order. The slice is only valid until the next Next or Close call.
func (it *FrameIterator) Frame() []string {
	return it.cur.vals[it.idx*it.width : (it.idx+1)*it.width]
}

// Err returns the error that terminated the stream, or nil after a complete
// enumeration (or an early Close).
func (it *FrameIterator) Err() error { return it.err }

// Close stops the producer and releases its goroutine. It is idempotent and
// must be called even after Next returned false; closing early cancels the
// enumeration promptly.
func (it *FrameIterator) Close() {
	if it.closed {
		return
	}
	it.closed = true
	it.cancel()
	it.cur = nil
	for range it.ch { // drain until the producer closes the channel
	}
}

// tupleBatch carries up to maxIterBatch distinct head tuples and their
// collision-free keys. The tuples themselves are freshly allocated (the
// consumer retains them); only the batch shell is recycled.
type tupleBatch struct {
	tuples []storage.Tuple
	keys   []string
	n      int
}

// TupleIterator streams a plan's distinct output tuples (set semantics,
// producer-side dedup) together with their collision-free sort keys. Tuples
// arrive in first-occurrence enumeration order — deterministic only for
// sequential execution; consumers needing the canonical result order sort by
// Key. Same usage contract as FrameIterator, except Tuple and Key return
// values that are safe to retain.
type TupleIterator struct {
	cancel context.CancelFunc
	ch     chan *tupleBatch
	free   chan *tupleBatch

	prodErr error

	cur    *tupleBatch
	idx    int
	err    error
	closed bool
}

// Tuples starts a streaming set-semantics evaluation of the plan under ctx.
// Only distinct head tuples cross the channel; opts.MaxTuples is enforced
// exactly as in EvalCtx (the stream fails with ErrTupleLimit as soon as the
// bound is exceeded). Callers must Close the iterator.
func (p *Plan) Tuples(ctx context.Context, opts Options) *TupleIterator {
	pctx, cancel := context.WithCancel(ctx)
	it := &TupleIterator{
		cancel: cancel,
		ch:     make(chan *tupleBatch, iterChanCap),
		free:   make(chan *tupleBatch, iterChanCap+2),
	}
	go it.produce(pctx, p, opts)
	return it
}

func (it *TupleIterator) batch() *tupleBatch {
	select {
	case b := <-it.free:
		b.tuples = b.tuples[:0]
		b.keys = b.keys[:0]
		b.n = 0
		return b
	default:
		return &tupleBatch{}
	}
}

func (it *TupleIterator) produce(ctx context.Context, p *Plan, opts Options) {
	defer close(it.ch)
	send := func(b *tupleBatch) error {
		select {
		case it.ch <- b:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	limit := 1
	cur := it.batch()
	seen := make(map[string]bool)
	var keyBuf []byte
	produced := 0
	err := p.frames(ctx, opts, func(frame []string, _ []Match) error {
		keyBuf = keyBuf[:0]
		for _, src := range p.headSrc {
			keyBuf = appendKeyPart(keyBuf, src.value(frame))
		}
		if seen[string(keyBuf)] { // no-alloc map probe
			return nil
		}
		if opts.MaxTuples > 0 && produced >= opts.MaxTuples {
			return fmt.Errorf("%w: more than %d output tuples", ErrTupleLimit, opts.MaxTuples)
		}
		k := string(keyBuf)
		seen[k] = true
		t := make(storage.Tuple, len(p.headSrc))
		for i, src := range p.headSrc {
			t[i] = src.value(frame)
		}
		produced++
		cur.tuples = append(cur.tuples, t)
		cur.keys = append(cur.keys, k)
		cur.n++
		if cur.n < limit {
			return nil
		}
		if err := send(cur); err != nil {
			return err
		}
		if limit < maxIterBatch {
			limit *= 2
		}
		cur = it.batch()
		return nil
	})
	if err == nil && cur.n > 0 {
		err = send(cur)
	}
	it.prodErr = err
}

// Next advances to the next distinct tuple, reporting false at the end of
// the stream (check Err to distinguish exhaustion from failure).
func (it *TupleIterator) Next() bool {
	if it.closed || it.err != nil {
		return false
	}
	if it.cur != nil {
		if it.idx+1 < it.cur.n {
			it.idx++
			return true
		}
		select {
		case it.free <- it.cur:
		default:
		}
		it.cur = nil
	}
	b, ok := <-it.ch
	if !ok {
		it.err = it.prodErr
		return false
	}
	it.cur, it.idx = b, 0
	return true
}

// Tuple returns the current distinct output tuple. Safe to retain.
func (it *TupleIterator) Tuple() storage.Tuple { return it.cur.tuples[it.idx] }

// Key returns the current tuple's collision-free key, byte-identical to
// storage.Tuple.Key — sorting a gathered stream by Key reproduces the
// canonical deterministic result order.
func (it *TupleIterator) Key() string { return it.cur.keys[it.idx] }

// Err returns the error that terminated the stream, or nil after a complete
// enumeration (or an early Close).
func (it *TupleIterator) Err() error { return it.err }

// Close stops the producer and releases its goroutine; idempotent, required
// even after exhaustion.
func (it *TupleIterator) Close() {
	if it.closed {
		return
	}
	it.closed = true
	it.cancel()
	it.cur = nil
	for range it.ch {
	}
}

// SortTuplesByKey sorts tuples and their parallel key slice into the
// canonical deterministic result order — the order EvalCtx returns. It is
// the gather step for consumers that stream distinct tuples via Tuples but
// still need the materialized ordering.
func SortTuplesByKey(keys []string, tuples []storage.Tuple) {
	sortTuplesByKey(keys, tuples)
}
