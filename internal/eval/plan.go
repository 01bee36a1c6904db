package eval

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

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
	l, r Src
	op   cq.CompOp
}

func (c compiledComp) holds(frame []string) bool {
	return cq.CompareValues(c.l.Value(frame), c.op, c.r.Value(frame))
}

// planStep is one atom of the physical join order: the resolved relation
// view, the precomputed access path (lookup columns and their value
// sources), the bind program, and the comparisons that become checkable
// once this step binds.
type planStep struct {
	pred       string
	rel        RelView
	lookupCols []int
	lookupSrc  []Src
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
// order reads only which positions hold one, and values sit in Src
// fields — so a plan serves every query of its shape (cq.Query.Shape) once
// Bind has renamed its constants; core.Engine caches plans per epoch by
// shape, so citations of a known shape skip compilation entirely.
type Plan struct {
	// part is the view when it is partitioned over more than one shard:
	// executions then scatter-gather; otherwise they descend sequentially.
	part Partitioned

	varOf    []string // slot -> variable name (all slots bound at full depth)
	steps    []planStep
	preComps []compiledComp // constant-only comparisons gating the enumeration
	headSrc  []Src          // head tuple construction
	cols     []string       // head column labels

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

	p := &Plan{cols: headCols(q)}
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
	compDone := make([]bool, len(q.Comps))
	schedule := func(st *planStep) {
		for ci, c := range q.Comps {
			if compDone[ci] {
				continue
			}
			ready := true
			var srcs [2]Src
			for j, t := range [2]cq.Term{c.L, c.R} {
				if t.IsConst {
					srcs[j] = constSrc(t.Value)
					continue
				}
				slot, ok := slotOf[t.Name]
				if !ok || !bound[slot] {
					ready = false
					break
				}
				srcs[j] = slotSrc(slot)
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
				st.lookupSrc = append(st.lookupSrc, constSrc(t.Value))
				continue
			}
			slot := slotOf[t.Name]
			switch {
			case bound[slot]: // bound by an earlier step: part of the lookup key
				st.lookupCols = append(st.lookupCols, col)
				st.lookupSrc = append(st.lookupSrc, slotSrc(slot))
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
			p.headSrc = append(p.headSrc, constSrc(t.Value))
		} else {
			p.headSrc = append(p.headSrc, slotSrc(slotOf[t.Name]))
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
// the given renaming of constants: a copy sharing the resolved relation
// views, the join order and the bind programs, with every constant value
// source, and the label of every constant head column, renamed. The
// identity returns p itself.
func (p *Plan) Bind(rb cq.Rebind) *Plan {
	if rb.Identity() {
		return p
	}
	b := *p
	b.steps = make([]planStep, len(p.steps))
	for i, st := range p.steps {
		st.lookupSrc = bindSrcs(st.lookupSrc, rb)
		st.comps = bindComps(st.comps, rb)
		b.steps[i] = st
	}
	b.preComps = bindComps(p.preComps, rb)
	b.headSrc = bindSrcs(p.headSrc, rb)
	if firstConst(p.headSrc) >= 0 {
		b.cols = append([]string(nil), p.cols...)
		for i, src := range b.headSrc {
			if src.slot < 0 {
				b.cols[i] = src.konst
			}
		}
	}
	return &b
}

// firstConst returns the index of the first constant among srcs, or -1.
func firstConst(srcs []Src) int {
	for i, s := range srcs {
		if s.slot < 0 {
			return i
		}
	}
	return -1
}

// bindSrcs renames the constants among srcs; a list without one is shared.
func bindSrcs(srcs []Src, rb cq.Rebind) []Src {
	first := firstConst(srcs)
	if first < 0 {
		return srcs
	}
	out := append([]Src(nil), srcs...)
	for i := first; i < len(out); i++ {
		if out[i].slot < 0 {
			out[i].konst = rb.Value(out[i].konst)
		}
	}
	return out
}

func bindComps(comps []compiledComp, rb cq.Rebind) []compiledComp {
	if len(comps) == 0 {
		return comps
	}
	out := append([]compiledComp(nil), comps...)
	for i := range out {
		c := &out[i]
		if c.l.slot < 0 {
			c.l.konst = rb.Value(c.l.konst)
		}
		if c.r.slot < 0 {
			c.r.konst = rb.Value(c.r.konst)
		}
	}
	return out
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
// buffers, both allocated once and reused across the enumeration.
// When built with a cancellable context the execution re-checks ctx.Done()
// every ctxCheckInterval candidate tuples and aborts with the context's
// error; executions under context.Background() pay nothing.
type exec struct {
	p         *Plan
	frame     []string
	lookupBuf [][]string
	fn        frameFn

	ctx      context.Context
	done     <-chan struct{} // nil: context can never be canceled
	ctxCount int             // candidates left until the next ctx check
}

func (p *Plan) newExec(ctx context.Context, fn frameFn) *exec {
	e := &exec{
		p:     p,
		frame: make([]string, len(p.varOf)),
		fn:    fn,
		ctx:   ctx,
		done:  ctx.Done(),
	}
	e.ctxCount = ctxCheckInterval
	e.lookupBuf = make([][]string, len(p.steps))
	for i := range p.steps {
		if n := len(p.steps[i].lookupSrc); n > 0 {
			// Each depth owns its buffer: a deeper recursion must not clobber
			// the values a shallower fan-out Lookup is still reading.
			e.lookupBuf[i] = make([]string, n)
		}
	}
	return e
}

// checkCtx is the periodic cancellation probe: it decrements the candidate
// budget and, every ctxCheckInterval candidates, reports the context's error
// if the context was canceled. With no cancellable context it is a single
// branch on a nil channel.
func (e *exec) checkCtx() error {
	if e.done == nil {
		return nil
	}
	if e.ctxCount--; e.ctxCount > 0 {
		return nil
	}
	e.ctxCount = ctxCheckInterval
	select {
	case <-e.done:
		return e.ctx.Err()
	default:
		return nil
	}
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
		if !c.holds(e.frame) {
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
	var iterErr error
	iter := func(t storage.Tuple) bool {
		if err := e.feed(depth, t); err != nil {
			iterErr = err
			return false
		}
		return true
	}
	if len(st.lookupCols) > 0 {
		buf := e.lookupBuf[depth]
		for i, src := range st.lookupSrc {
			buf[i] = src.Value(e.frame)
		}
		st.rel.Lookup(st.lookupCols, buf, iter)
	} else {
		st.rel.Scan(iter)
	}
	return iterErr
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
		if !c.holds(nil) { // constant-only: never touches the frame
			return nil
		}
	}
	if tr, sp := obs.FromContext(ctx); tr != nil {
		return p.framesTraced(ctx, opts, fn, tr, sp)
	}
	return p.dispatchFrames(ctx, opts, fn)
}

// Vars returns the plan's variables in slot order; every frame Each
// delivers is aligned with this list.
func (p *Plan) Vars() []string {
	return append([]string(nil), p.varOf...)
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
	return p.newExec(ctx, fn).run(0)
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
	res = &Result{Cols: p.cols}
	seen := make(map[string]int)
	var keyBuf []byte
	err = p.Each(ctx, opts, func(frame []string) error {
		keyBuf = keyBuf[:0]
		for _, src := range p.headSrc {
			keyBuf = storage.AppendKeyPart(keyBuf, src.Value(frame))
		}
		i, dup := seen[string(keyBuf)] // no-alloc map probe
		if !dup {
			if opts.MaxTuples > 0 && len(res.Tuples) >= opts.MaxTuples {
				return fmt.Errorf("%w: more than %d output tuples", ErrTupleLimit, opts.MaxTuples)
			}
			i = len(res.Tuples)
			k := string(keyBuf)
			seen[k] = i
			t := make(storage.Tuple, len(p.headSrc))
			for j, src := range p.headSrc {
				t[j] = src.Value(frame)
			}
			res.Tuples = append(res.Tuples, t)
			res.Keys = append(res.Keys, k)
		}
		if fn == nil {
			return nil
		}
		return fn(frame, i)
	})
	if err != nil {
		return nil, nil, err
	}
	if fn != nil {
		order = make([]int, len(res.Tuples))
		for i := range order {
			order[i] = i
		}
	}
	sort.Sort(&keyedTuples{keys: res.Keys, tuples: res.Tuples, order: order})
	return res, order, nil
}
