package eval

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"citare/internal/cq"
	"citare/internal/obs"
	"citare/internal/storage"
)

// Auto, as an Options.Parallel value, derives the scatter worker count from
// the compiled plan's relation cardinalities and GOMAXPROCS instead of a
// fixed flag: scatters over small data visit their shards one at a time (no
// pool overhead), large ones fan out up to the core count.
const Auto = -1

const (
	// linearDedupe is how many distinct tuples EvalEach tells apart by
	// scanning their keys before it builds a map of them.
	linearDedupe = 8
	// tuplesPerWorker is the enumeration size one worker should amortize;
	// Auto adds workers only in these increments.
	tuplesPerWorker = 128
	// ctxCheckInterval is how many candidate tuples an execution feeds
	// between context checks: frequent enough that a canceled enumeration
	// stops within microseconds, rare enough that the check is free on the
	// hot path (one integer decrement per candidate).
	ctxCheckInterval = 256
)

// Src names where a runtime value comes from: a frame slot (slot >= 0) or
// a compile-time constant (slot < 0).
type Src struct {
	slot  int
	konst string
}

func constSrc(v string) Src { return Src{slot: -1, konst: v} }
func slotSrc(slot int) Src  { return Src{slot: slot} }

// Value reads the source's value off a frame of its plan.
func (s Src) Value(frame []string) string {
	if s.slot < 0 {
		return s.konst
	}
	return frame[s.slot]
}

// ref is where a plan reads a value at run time: frame slot r when r >= 0,
// else constant -1-r of the plan's constant vector. Compile decides the
// refs; Bind gives a plan another vector.
type ref int

func slotRef(slot int) ref { return ref(slot) }

// val reads a value off a frame of the plan.
func (p *Plan) val(r ref, frame []string) string {
	if r >= 0 {
		return frame[r]
	}
	return p.consts[-1-r]
}

// Bind-op kinds: write the tuple value into a slot, or check it against a
// slot bound earlier by the same atom (repeated variables).
const (
	opBind uint8 = iota
	opCheckSlot
)

// bindOp is one column action when an atom binds a candidate tuple. Lookup
// columns need no op — the hash index already guarantees equality — so only
// newly bound variables and within-atom repeats appear here.
type bindOp struct {
	col  int
	slot int
	kind uint8
}

// compiledComp is a comparison with both sides resolved to value sources; it
// is scheduled at the earliest step where both sides are bound, so it can
// never fail on an unbound variable at run time.
type compiledComp struct {
	l, r ref
	op   cq.CompOp
}

func (p *Plan) holds(c compiledComp, frame []string) bool {
	return cq.CompareValues(p.val(c.l, frame), c.op, p.val(c.r, frame))
}

// planStep is one atom of the physical join order: the resolved relation
// view, the precomputed access path (lookup columns and their value
// sources), the bind program, and the comparisons that become checkable
// once this step binds.
type planStep struct {
	pred       string
	rel        RelView
	lookupCols []int
	lookupSrc  []ref
	bufAt      int // where the step's lookup buffer starts in an execution's slab
	binds      []bindOp
	comps      []compiledComp
}

// Plan is a query compiled once against a database view into a physical
// form: variables mapped to integer slots, atoms ordered by bound-position
// score and live cardinalities, per-atom access paths with precomputed
// lookup columns, and comparisons scheduled at their earliest ground step.
// Execution enumerates bindings on a flat []string slot frame reused across
// the whole enumeration — no per-binding maps, no cloning.
//
// A Plan is immutable after Compile and safe for concurrent executions.
// Nothing Compile decides depends on the value of a constant — the join
// order reads only which positions hold one, and values sit in the plan's
// constant vector — so a plan serves every query of its shape
// (cq.Query.Shape) once Bind has given it that query's vector; core.Engine
// caches plans per epoch by shape, so citations of a known shape skip
// compilation entirely.
type Plan struct {
	*compiled
	cols []string // head column labels
	// consts are the query's constants, each value once, in the order
	// Compile met them: what the refs of a constant read.
	consts []string
}

// compiled is what every plan bound from one compiled plan shares.
type compiled struct {
	// part is the view when it is partitioned over more than one shard:
	// executions then scatter-gather; otherwise they descend sequentially.
	part Partitioned

	varOf    []string // slot -> variable name (all slots bound at full depth)
	steps    []planStep
	preComps []compiledComp // constant-only comparisons gating the enumeration
	headSrc  []ref          // head tuple construction
	// lookupWidth is the lookup buffers' total length, over every step.
	lookupWidth int

	// maxCard is the largest step cardinality at compile time; Auto derives
	// the scatter worker count from it.
	maxCard int
}

// Compile builds the physical plan of q over dbv. It validates the query and
// its atoms (unknown relations, arity mismatches) and resolves every
// relation view once, so execution touches no name maps. When dbv is an
// eval.Partitioned over more than one shard, executions scatter-gather
// across its shards.
func Compile(dbv DBView, q *cq.Query) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	n := len(q.Atoms)
	rels := make([]RelView, n)
	lens := make([]int, n)
	for i, a := range q.Atoms {
		rel := dbv.Relation(a.Pred)
		if rel == nil {
			return nil, fmt.Errorf("%w: unknown relation %s", ErrSchema, a.Pred)
		}
		if rel.Schema().Arity() != len(a.Args) {
			return nil, fmt.Errorf("%w: atom %s has %d arguments, relation has arity %d",
				ErrSchema, a.Pred, len(a.Args), rel.Schema().Arity())
		}
		rels[i] = rel
		lens[i] = rel.Len()
	}

	p := &Plan{compiled: &compiled{}, cols: headCols(q)}
	if part, ok := dbv.(Partitioned); ok && part.NumShards() > 1 {
		p.part = part
	}

	// Slot assignment: first occurrence order across atoms. Validate
	// guarantees every head and comparison variable occurs in some atom, so
	// this covers every variable of the query.
	slotOf := make(map[string]int, 8)
	for _, a := range q.Atoms {
		for _, t := range a.Args {
			if t.IsVar() {
				if _, ok := slotOf[t.Name]; !ok {
					slotOf[t.Name] = len(p.varOf)
					p.varOf = append(p.varOf, t.Name)
				}
			}
		}
	}

	// Join order: greedily pick the atom with the most bound or constant
	// argument positions, breaking ties toward the smaller live relation —
	// bound positions turn scans into hash lookups, and among equally bound
	// atoms the smaller cardinality drives fewer downstream probes.
	order := make([]int, 0, n)
	used := make([]bool, n)
	bound := make([]bool, len(p.varOf))
	for len(order) < n {
		best, bestScore, bestSize := -1, -1, 0
		for i, a := range q.Atoms {
			if used[i] {
				continue
			}
			score := 0
			for _, t := range a.Args {
				if t.IsConst || bound[slotOf[t.Name]] {
					score++
				}
			}
			if score > bestScore || (score == bestScore && lens[i] < bestSize) {
				best, bestScore, bestSize = i, score, lens[i]
			}
		}
		order = append(order, best)
		used[best] = true
		for _, t := range q.Atoms[best].Args {
			if t.IsVar() {
				bound[slotOf[t.Name]] = true
			}
		}
	}

	// Build steps along the order, scheduling each comparison at the first
	// step where both sides are ground (constant-only comparisons gate the
	// whole enumeration as preComps).
	for i := range bound {
		bound[i] = false
	}
	constRef := func(v string) ref {
		i := slices.Index(p.consts, v)
		if i < 0 {
			i, p.consts = len(p.consts), append(p.consts, v)
		}
		return ref(-1 - i)
	}
	compDone := make([]bool, len(q.Comps))
	schedule := func(st *planStep) {
		for ci, c := range q.Comps {
			if compDone[ci] {
				continue
			}
			ready := true
			var srcs [2]ref
			for j, t := range [2]cq.Term{c.L, c.R} {
				if t.IsConst {
					srcs[j] = constRef(t.Value)
					continue
				}
				slot, ok := slotOf[t.Name]
				if !ok || !bound[slot] {
					ready = false
					break
				}
				srcs[j] = slotRef(slot)
			}
			if !ready {
				continue
			}
			compDone[ci] = true
			cc := compiledComp{l: srcs[0], r: srcs[1], op: c.Op}
			if st == nil {
				p.preComps = append(p.preComps, cc)
			} else {
				st.comps = append(st.comps, cc)
			}
		}
	}
	schedule(nil)
	for _, atomIdx := range order {
		a := q.Atoms[atomIdx]
		st := planStep{pred: a.Pred, rel: rels[atomIdx]}
		var boundHere []int
		for col, t := range a.Args {
			if t.IsConst {
				st.lookupCols = append(st.lookupCols, col)
				st.lookupSrc = append(st.lookupSrc, constRef(t.Value))
				continue
			}
			slot := slotOf[t.Name]
			switch {
			case bound[slot]: // bound by an earlier step: part of the lookup key
				st.lookupCols = append(st.lookupCols, col)
				st.lookupSrc = append(st.lookupSrc, slotRef(slot))
			case sliceHas(boundHere, slot): // repeated within this atom
				st.binds = append(st.binds, bindOp{col: col, slot: slot, kind: opCheckSlot})
			default:
				st.binds = append(st.binds, bindOp{col: col, slot: slot, kind: opBind})
				boundHere = append(boundHere, slot)
			}
		}
		for _, s := range boundHere {
			bound[s] = true
		}
		st.bufAt = p.lookupWidth
		p.lookupWidth += len(st.lookupSrc)
		schedule(&st)
		p.steps = append(p.steps, st)
	}
	for ci, done := range compDone {
		if !done {
			// Unreachable after Validate (comparison variables occur in the
			// body); kept as a guard against future query-model changes.
			return nil, fmt.Errorf("eval: comparison variable in %s never bound", q.Comps[ci].String())
		}
	}

	for _, t := range q.Head {
		if t.IsConst {
			p.headSrc = append(p.headSrc, constRef(t.Value))
		} else {
			p.headSrc = append(p.headSrc, slotRef(slotOf[t.Name]))
		}
	}

	for _, l := range lens {
		if l > p.maxCard {
			p.maxCard = l
		}
	}
	return p, nil
}

func sliceHas(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Bind returns the plan of the query that differs from the compiled one by
// the given renaming of constants: a plan sharing the resolved relation
// views, the join order, the bind programs and the value refs, with its own
// constant vector and, where the head holds a constant, its own column
// labels. The identity returns p itself.
func (p *Plan) Bind(rb cq.Rebind) *Plan {
	if rb.Identity() {
		return p
	}
	b := Plan{compiled: p.compiled, cols: p.cols}
	b.consts = make([]string, len(p.consts))
	for i, v := range p.consts {
		b.consts[i] = rb.Value(v)
	}
	if slices.ContainsFunc(p.headSrc, func(r ref) bool { return r < 0 }) {
		b.cols = slices.Clone(p.cols)
		for i, r := range p.headSrc {
			if r < 0 {
				b.cols[i] = b.val(r, nil)
			}
		}
	}
	return &b
}

// Describe renders the compiled join order and access paths as a compact
// one-line string, e.g.
//
//	FamilyIntro[lookup(FID) 120r] -> Family[scan 500r]
//
// Each element is one step of the physical join order: the relation, the
// access path (an indexed lookup on the named columns, or a full scan) and
// the relation's live cardinality. EXPLAIN output and trace spans carry
// this as the "plan" attribute.
func (p *Plan) Describe() string {
	var b strings.Builder
	for i := range p.steps {
		st := &p.steps[i]
		if i > 0 {
			b.WriteString(" -> ")
		}
		b.WriteString(st.pred)
		b.WriteByte('[')
		if len(st.lookupCols) > 0 {
			b.WriteString("lookup(")
			sch := st.rel.Schema()
			for j, c := range st.lookupCols {
				if j > 0 {
					b.WriteByte(',')
				}
				if sch != nil && c < len(sch.Cols) {
					b.WriteString(sch.Cols[c].Name)
				} else {
					fmt.Fprintf(&b, "#%d", c)
				}
			}
			b.WriteByte(')')
		} else {
			b.WriteString("scan")
		}
		fmt.Fprintf(&b, " %dr]", st.rel.Len())
	}
	return b.String()
}

// frameFn receives one satisfying valuation as a slot frame. The slice is
// reused across deliveries and must not be retained.
type frameFn func(frame []string) error

// exec is one execution of a plan: a slot frame and per-step lookup
// buffers, cut from one slab and reused across the enumeration, and one
// tuple callback for every step's scan or lookup, which reads the step it
// serves off depth. Every ctxCheckInterval candidate tuples the execution
// asks ctx for its error and aborts with it; it never asks for ctx.Done(),
// which would make a cancelable context build its channel.
//
// A sequential execution is taken from execPool and put back when its
// enumeration ends: Each's frames are valid only during the callback, so
// nothing reads the slab after that.
type exec struct {
	p     *Plan
	buf   []string // the slab: frame, then the lookup buffers
	frame []string
	slab  []string // lookup buffers: step i's at p.steps[i].bufAt
	fn    frameFn

	depth int                        // the step whose candidates iter is fed
	iter  func(t storage.Tuple) bool // feeds e.depth's candidates
	err   error                      // what ended the enumeration early

	ctx      context.Context
	ctxCount int // candidates left until the next ctx check
}

// execPool holds finished sequential executions, each with its iter.
var execPool = sync.Pool{New: func() any {
	e := &exec{}
	e.iter = func(t storage.Tuple) bool {
		if err := e.feed(e.depth, t); err != nil {
			e.err = err
			return false
		}
		return true
	}
	return e
}}

func (p *Plan) newExec(ctx context.Context, fn frameFn) *exec {
	e := execPool.Get().(*exec)
	// Each depth owns its lookup buffer: a deeper recursion must not
	// clobber the values a shallower fan-out Lookup is still reading.
	n := len(p.varOf) + p.lookupWidth
	if cap(e.buf) < n {
		e.buf = make([]string, n)
	}
	slab := e.buf[:n]
	e.p, e.frame, e.slab, e.fn = p, slab[:len(p.varOf):len(p.varOf)], slab[len(p.varOf):], fn
	e.depth, e.err, e.ctx, e.ctxCount = 0, nil, ctx, ctxCheckInterval
	return e
}

// release puts a finished execution back into execPool, holding on to none
// of its plan's or its frames' values.
func (e *exec) release() {
	clear(e.buf[:cap(e.buf)])
	*e = exec{buf: e.buf, iter: e.iter}
	execPool.Put(e)
}

// checkCtx is the periodic cancellation probe: it decrements the candidate
// budget and, every ctxCheckInterval candidates, reports the context's
// error, if any.
func (e *exec) checkCtx() error {
	if e.ctxCount--; e.ctxCount > 0 {
		return nil
	}
	e.ctxCount = ctxCheckInterval
	return e.ctx.Err()
}

// feed runs one candidate tuple of step depth through the bind program and
// the step's comparisons, then descends. A failed check is not an error —
// the candidate simply yields no bindings.
func (e *exec) feed(depth int, t storage.Tuple) error {
	if err := e.checkCtx(); err != nil {
		return err
	}
	st := &e.p.steps[depth]
	for _, op := range st.binds {
		if op.kind == opBind {
			e.frame[op.slot] = t[op.col]
		} else if t[op.col] != e.frame[op.slot] {
			return nil
		}
	}
	for _, c := range st.comps {
		if !e.p.holds(c, e.frame) {
			return nil
		}
	}
	return e.run(depth + 1)
}

// run enumerates all bindings extending the frame's first `depth` steps. At
// full depth every slot is bound (each slot's binding step lies on the
// current path), so the frame is a complete valuation.
func (e *exec) run(depth int) error {
	if depth == len(e.p.steps) {
		return e.fn(e.frame)
	}
	st := &e.p.steps[depth]
	outer := e.depth
	e.depth = depth
	if len(st.lookupCols) > 0 {
		buf := e.slab[st.bufAt : st.bufAt+len(st.lookupSrc)]
		for i, r := range st.lookupSrc {
			buf[i] = e.p.val(r, e.frame)
		}
		st.rel.Lookup(st.lookupCols, buf, e.iter)
	} else {
		st.rel.Scan(e.iter)
	}
	e.depth = outer
	return e.err
}

// Each enumerates every satisfying valuation of the plan: scatter-gather
// across the shards of a partitioned view, the sequential descent otherwise.
// It is the one enumeration every consumer sits on — EvalCtx and EvalEach
// (the citation pipeline's output evaluation, which the rewritings whose
// expansion is the query renamed read their bindings off), a rewriting
// evaluated on its own, token rendering.
//
// The contract, in both strategies: fn is never invoked concurrently, and the
// enumeration waits for exactly as long as fn takes, so a slow consumer
// holds the producers back without any buffering in between. frame is
// aligned with Vars, reused across deliveries and valid only during the call
// (the string values themselves are immutable and safe to keep). The order
// of deliveries is deterministic only under sequential execution; the
// multiset of frames is the same in both. An error from fn stops every further delivery and is
// returned; ctx is re-checked at shard and frame boundaries, so a canceled
// enumeration returns ctx.Err() promptly with no goroutine left behind.
// Under context.Background() the checks cost nothing.
func (p *Plan) Each(ctx context.Context, opts Options, fn func(frame []string) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, c := range p.preComps {
		if !p.holds(c, nil) { // constant-only: never touches the frame
			return nil
		}
	}
	if tr, sp := obs.FromContext(ctx); tr != nil {
		return p.framesTraced(ctx, opts, fn, tr, sp)
	}
	return p.dispatchFrames(ctx, opts, fn)
}

// Vars returns the plan's variables in slot order; every frame Each
// delivers is aligned with this list. The list is the plan's own: callers
// only read it (it is clipped, so an append copies).
func (p *Plan) Vars() []string {
	return slices.Clip(p.varOf)
}

// TermSrc resolves a term of the compiled query to where the plan's frames
// hold its value: a constant is itself, a variable its slot. A variable the
// plan does not bind is an error.
func (p *Plan) TermSrc(t cq.Term) (Src, error) {
	if t.IsConst {
		return constSrc(t.Value), nil
	}
	slot := slices.Index(p.varOf, t.Name)
	if slot < 0 {
		return Src{}, fmt.Errorf("eval: variable %s unbound in plan", t.Name)
	}
	return slotSrc(slot), nil
}

// dispatchFrames routes the enumeration to its strategy.
func (p *Plan) dispatchFrames(ctx context.Context, opts Options, fn frameFn) error {
	if p.part != nil {
		return p.scatterFrames(ctx, opts, fn)
	}
	e := p.newExec(ctx, fn)
	err := e.run(0)
	e.release()
	return err
}

// framesTraced is the traced twin of dispatchFrames: it annotates the
// current span with the strategy chosen for this enumeration and the
// number of frames delivered. Only reached when a trace is in ctx, so the
// closure and counter cost nothing on the disabled path.
func (p *Plan) framesTraced(ctx context.Context, opts Options, fn frameFn, tr *obs.Trace, sp obs.SpanID) error {
	if p.part == nil {
		tr.SetStr(sp, "strategy", "sequential")
	} else {
		tr.SetStr(sp, "strategy", "scatter")
	}
	var frames int64
	err := p.dispatchFrames(ctx, opts, func(frame []string) error {
		frames++ // fn is never invoked concurrently, in either strategy
		return fn(frame)
	})
	tr.AddInt(sp, "frames", frames)
	return err
}

// EvalCtx runs the plan with set semantics under a context: head tuples are
// deduplicated on a reusable key buffer and deterministically sorted by key,
// so both strategies produce byte-identical results. Cancellation follows
// Each's contract. When opts.MaxTuples is set, the enumeration aborts with
// ErrTupleLimit as soon as it has produced more distinct tuples than the
// bound allows.
func (p *Plan) EvalCtx(ctx context.Context, opts Options) (*Result, error) {
	res, _, err := p.EvalEach(ctx, opts, nil)
	return res, err
}

// EvalEach is EvalCtx that also hands every frame to fn (when non-nil),
// beside the index its head tuple had among the distinct tuples in the order
// they were first seen, under Each's contract for frames. order maps each
// tuple of the sorted Result back to that index; it is nil when fn is.
func (p *Plan) EvalEach(ctx context.Context, opts Options, fn func(frame []string, tuple int) error) (res *Result, order []int, err error) {
	// The Result and what the callback keeps between frames, in one object.
	// A result of a few tuples — a point query's — is deduplicated by
	// scanning its keys; the index is built past linearDedupe of them.
	st := &struct {
		res    Result
		seen   map[string]int
		keyBuf []byte
		slab   []string // the tuples' values, cut tuple by tuple
	}{res: Result{Cols: p.cols}}
	err = p.Each(ctx, opts, func(frame []string) error {
		res := &st.res
		st.keyBuf = st.keyBuf[:0]
		for _, r := range p.headSrc {
			st.keyBuf = storage.AppendKeyPart(st.keyBuf, p.val(r, frame))
		}
		i, dup := -1, false
		if st.seen != nil {
			i, dup = st.seen[string(st.keyBuf)] // no-alloc map probe
		} else {
			for j, k := range res.Keys {
				if k == string(st.keyBuf) {
					i, dup = j, true
					break
				}
			}
		}
		if !dup {
			if opts.MaxTuples > 0 && len(res.Tuples) >= opts.MaxTuples {
				return fmt.Errorf("%w: more than %d output tuples", ErrTupleLimit, opts.MaxTuples)
			}
			i = len(res.Tuples)
			k := string(st.keyBuf)
			switch {
			case st.seen != nil:
				st.seen[k] = i
			case i == linearDedupe:
				st.seen = make(map[string]int, 2*linearDedupe)
				for j, k := range res.Keys {
					st.seen[k] = j
				}
				st.seen[k] = i
			}
			start := len(st.slab)
			for _, r := range p.headSrc {
				st.slab = append(st.slab, p.val(r, frame))
			}
			res.Tuples = append(res.Tuples, storage.Tuple(st.slab[start:len(st.slab):len(st.slab)]))
			res.Keys = append(res.Keys, k)
		}
		if fn == nil {
			return nil
		}
		return fn(frame, i)
	})
	res = &st.res
	st.seen, st.keyBuf = nil, nil // the Result keeps only what it holds
	if err != nil {
		return nil, nil, err
	}
	if fn != nil {
		order = make([]int, len(res.Tuples))
		for i := range order {
			order[i] = i
		}
	}
	if len(res.Tuples) > 1 {
		sort.Sort(&keyedTuples{keys: res.Keys, tuples: res.Tuples, order: order})
	}
	return res, order, nil
}
