package core

import (
	"slices"
	"strconv"
	"sync"

	"citare/internal/cq"
	"citare/internal/rewrite"
)

// logicalPlanCacheSize bounds the engine-lifetime logical-plan cache
// (sharded LRU, entries): one entry per query shape.
const logicalPlanCacheSize = 512

// compiledQuery is the engine-lifetime logical plan of one query *shape*
// (cq.Query.Shape): the minimized form of the first query of the shape the
// engine saw, the lifted constants of that query, and — compiled on the
// first citation rather than the first lookup, since the citation cache and
// batch grouping need only the minimized form — its certified rewritings,
// already preference-pruned under the policy and unfolded for evaluation. It
// depends only on the query, the engine's views, the schema and the policy,
// never on the data, so it survives Reset. Everything is read-only once set
// and shared across concurrent calls; a later query of the shape carries its
// own constants as a vector beside it (Prepared) and binds what it reads.
type compiledQuery struct {
	params  []string
	min     *cq.Query
	columns []string // HeadColumns(min)
	// out is min's physical shape: every query of the shape evaluates the
	// plan compiled for it, bound to its own constants.
	out physShape

	// The canonical template of min (cq.Query.CanonicalTemplate over
	// params), spelled on the first cache or batch key of the shape.
	canonOnce  sync.Once
	canonTmpl  string
	canonSlots []int
	canonOK    bool

	compile    sync.Once
	rewritings []*unfolded
	rws        []*rewrite.Rewriting // rewritings' r, in order
	err        error                // a rewriting that cannot be unfolded: a bug, reported per request
}

// Prepared is a valid query resolved against the engine's logical-plan
// cache: normalized, lifted to its shape and tied to the compiled plan of
// that shape, its own constants carried as a vector — the renaming rb from
// the plan's constants to the query's. It is what the citation cache and
// batch grouping key on (AppendCanonical) and what CitePrepared cites, so
// that one request normalizes and looks its plan up once however many layers
// need the result; no layer rebuilds the query to find its constants again.
// Like the plan it is tied to, it depends on nothing but the query, the
// views and the policy and is read-only once made: it outlives Reset and may
// be cited from many goroutines at once — by this engine only, whose plan
// cache it points into.
type Prepared struct {
	norm *cq.Query      // the normalized query, kept only when it is unsatisfiable
	plan *compiledQuery // nil: the query is unsatisfiable
	rb   cq.Rebind      // the plan's constants → the query's

	minOnce sync.Once
	min     *cq.Query // plan.min under rb, made for the first caller that reads it

	canonOnce sync.Once
	canon     string // CanonicalKey of the minimized query, where the shape has no template
}

// Satisfiable reports whether the query can have answers at all; an
// unsatisfiable one equates two distinct constants or fails a ground
// comparison.
func (p *Prepared) Satisfiable() bool { return p.plan != nil }

// Min returns the normalized, minimized query (nil when unsatisfiable): the
// shape's minimized query with the query's own constants, made on first
// demand.
func (p *Prepared) Min() *cq.Query {
	if p.plan == nil {
		return nil
	}
	if p.rb.Identity() {
		return p.plan.min
	}
	p.minOnce.Do(func() { p.min = p.rb.Query(p.plan.min) })
	return p.min
}

// Columns labels the minimized query's output columns (HeadColumns): the
// shape's labels, unless a constant of the head is one of the query's own.
func (p *Prepared) Columns() []string {
	for _, t := range p.plan.min.Head {
		if t.IsConst && p.rb.Value(t.Value) != t.Value {
			return HeadColumns(p.Min())
		}
	}
	return p.plan.columns
}

// AppendCanonical appends the canonical identity of a satisfiable query —
// which equivalent queries share, and the citation cache and batch grouping
// key on — to dst: the canonical template of its shape, spelled once per
// shape, then the query's own values of the template's placeholders, every
// part length-framed. Two queries share it only if their minimized queries
// have one cq.Query.CanonicalKey; a shape without a template
// (cq.Query.CanonicalTemplate's ok false) spells that key itself, computed
// once per prepared query. The two spellings carry distinct tags, so neither
// can pass for the other.
func (p *Prepared) AppendCanonical(dst []byte) []byte {
	pl := p.plan
	pl.canonOnce.Do(func() {
		pl.canonTmpl, pl.canonSlots, pl.canonOK = pl.min.CanonicalTemplate(pl.params)
	})
	if !pl.canonOK {
		p.canonOnce.Do(func() { p.canon = p.Min().CanonicalKey() })
		return append(append(dst, 'k'), p.canon...)
	}
	dst = appendFramed(append(dst, 't'), pl.canonTmpl)
	for _, i := range pl.canonSlots {
		dst = appendFramed(dst, p.rb.Value(pl.params[i]))
	}
	return dst
}

// appendFramed appends s preceded by its length.
func appendFramed(dst []byte, s string) []byte {
	dst = strconv.AppendInt(dst, int64(len(s)), 10)
	return append(append(dst, ':'), s...)
}

// Prepare resolves a query the caller has validated (cq.Query.Validate; the
// facade's request parsing does) to the logical plan of its shape. It takes
// q over: the query is normalized in place (the caller must not use q
// again), then every constant that the plan can only see through equality is
// lifted out (liftRules); what remains keys an engine-lifetime LRU. The
// first query of a shape is minimized as it stands and becomes the shape's
// plan; every later one keeps its constants as the renaming from the plan's,
// and nothing of the plan is copied until a caller reads it. Concurrent first
// lookups of one shape share a single minimization.
func (e *Engine) Prepare(q *cq.Query) *Prepared {
	norm := q
	if !norm.NormalizeInPlace() {
		return &Prepared{norm: norm}
	}
	key, params := norm.Shape(e.lift.literalFor(norm))
	// Nothing here can fail: the error result exists for GetOrCompute only.
	plan, _, _ := e.plans.GetOrCompute(key, func() (*compiledQuery, error) {
		min := cq.Minimize(norm)
		return &compiledQuery{params: params, min: min, columns: HeadColumns(min), out: shapeOf(min)}, nil
	})
	return &Prepared{plan: plan, rb: cq.NewRebind(plan.params, params)}
}

// rewritingsFor returns the prepared query's certified rewritings in
// Enumerate's order, unfolded and as they are (rws), compiling the shape's
// on first use. hit reports that this call did not compile, which is what
// LogicalPlanStats counts.
func (e *Engine) rewritingsFor(p *Prepared) (us []*unfolded, rws []*rewrite.Rewriting, hit bool, err error) {
	hit = true
	p.plan.compile.Do(func() {
		hit = false
		rws := e.viewSet.Enumerate(p.plan.min, rewrite.Options{
			AllowPartial:  e.policy.AllowPartial,
			MaxRewritings: e.policy.MaxRewritings,
		})
		if e.policy.PreferredRewritings {
			rws = preferRewritings(rws)
		}
		us := make([]*unfolded, len(rws))
		canon := canonicalNames(p.plan.min)
		for i, r := range rws {
			if us[i], p.plan.err = e.unfold(r, p.plan.min, canon); p.plan.err != nil {
				return
			}
		}
		p.plan.rewritings, p.plan.rws = us, rws
	})
	if hit {
		e.logicalHits.Add(1)
	} else {
		e.logicalMisses.Add(1)
	}
	us, rws = p.plan.rewritings, p.plan.rws
	if p.rb.Identity() || len(us) < 2 || p.plan.err != nil {
		return us, rws, hit, p.plan.err
	}
	// Truncation at MaxRewritings and preference pruning count subgoals and
	// constants, which a renaming preserves; the order is by a key that
	// spells the constants, which it does not. The rewritings themselves are
	// the shape's: every reader renames their constants by p.rb.
	us = slices.Clone(us)
	rewrite.SortBound(us, func(u *unfolded) *rewrite.Rewriting { return u.r }, p.Min(), p.rb)
	rws = make([]*rewrite.Rewriting, len(us))
	for i, u := range us {
		rws[i] = u.r
	}
	return us, rws, hit, nil
}

// LogicalPlanStats reports the logical-plan counters: misses are citations
// that compiled their shape's rewritings (one enumeration each), hits are
// citations served by a plan compiled earlier, under whichever constants.
func (e *Engine) LogicalPlanStats() (hits, misses uint64) {
	return e.logicalHits.Load(), e.logicalMisses.Load()
}

// argPos is one argument position of a relation.
type argPos struct {
	pred string
	col  int
}

// liftRules decide which constants of a query the logical plan may treat as
// parameters. Minimization and Definition 2.2 work by homomorphisms, which
// compare constants for equality only — with two exceptions, and a constant
// either can reach keeps its value in the shape key:
//
//   - cq.Homomorphisms, which finds rewrite's view candidates, matches a
//     view definition's constant against the query's by value, so every
//     constant occurring in a view definition is literal;
//   - cq.ComparisonsImplied and NormalizeConstants evaluate a comparison
//     whose sides have both become constants, reading their values. That
//     happens to a constant written in a comparison, and to one a
//     homomorphism maps a comparison variable onto — which it can only do
//     at an argument position (relation, column) where that variable
//     occurs, in the query or in a view. So the constants of the query's
//     comparisons are literal, and so is every constant at a position that
//     a comparison variable of the query or of any view also occupies.
//
// Equality comparisons are gone by then (NormalizeConstants chased them
// into the atoms); "comparison" means the remaining !=, <, <=, >, >=.
type liftRules struct {
	viewConsts  map[string]bool
	viewCompPos map[argPos]bool
	// isViewConst is the whole rule for a query without comparisons when no
	// view has one either — the common case, so it is built once.
	isViewConst func(string) bool
}

func newLiftRules(views []*CitationView) liftRules {
	consts := make(map[string]bool)
	lr := liftRules{viewConsts: consts, viewCompPos: make(map[argPos]bool)}
	lr.isViewConst = func(v string) bool { return consts[v] }
	for _, v := range views {
		// Normalized, as rewrite.PrepareViews matches it; an unsatisfiable
		// definition is dropped there and constrains nothing here.
		def, sat := v.Def.Normalize()
		if !sat {
			continue
		}
		eachConst(def, func(val string) { lr.viewConsts[val] = true })
		compPositions(def, lr.viewCompPos)
	}
	return lr
}

// literalFor returns the predicate cq.Query.Shape lifts norm's constants
// under.
func (lr *liftRules) literalFor(norm *cq.Query) func(string) bool {
	if len(norm.Comps) == 0 && len(lr.viewCompPos) == 0 {
		return lr.isViewConst
	}
	pos := make(map[argPos]bool, len(lr.viewCompPos))
	for p := range lr.viewCompPos {
		pos[p] = true
	}
	compPositions(norm, pos)
	lit := make(map[string]bool)
	for _, c := range norm.Comps {
		for _, t := range [2]cq.Term{c.L, c.R} {
			if t.IsConst {
				lit[t.Value] = true
			}
		}
	}
	for _, a := range norm.Atoms {
		for col, t := range a.Args {
			if t.IsConst && pos[argPos{a.Pred, col}] {
				lit[t.Value] = true
			}
		}
	}
	return func(v string) bool { return lr.viewConsts[v] || lit[v] }
}

// compPositions adds to pos every argument position at which a variable of
// one of q's comparisons occurs in q's atoms.
func compPositions(q *cq.Query, pos map[argPos]bool) {
	if len(q.Comps) == 0 {
		return
	}
	vars := make(map[string]bool)
	for _, c := range q.Comps {
		for _, t := range [2]cq.Term{c.L, c.R} {
			if t.IsVar() {
				vars[t.Name] = true
			}
		}
	}
	for _, a := range q.Atoms {
		for col, t := range a.Args {
			if t.IsVar() && vars[t.Name] {
				pos[argPos{a.Pred, col}] = true
			}
		}
	}
}

// eachConst calls fn for every constant of q: head, atoms and comparisons.
func eachConst(q *cq.Query, fn func(string)) {
	visit := func(t cq.Term) {
		if t.IsConst {
			fn(t.Value)
		}
	}
	for _, t := range q.Head {
		visit(t)
	}
	for _, a := range q.Atoms {
		for _, t := range a.Args {
			visit(t)
		}
	}
	for _, c := range q.Comps {
		visit(c.L)
		visit(c.R)
	}
}
