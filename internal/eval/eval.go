// Package eval evaluates conjunctive queries over the storage engine.
//
// Besides plain set-semantics evaluation it exposes full *binding
// enumeration* — every valuation of the query's variables that derives an
// output tuple. Binding enumeration is the operational core of the citation
// model: Definition 3.1 of the paper attaches a citation to a single
// binding, Definition 3.2 sums (+) over all bindings yielding a tuple.
//
// # Compiled plans
//
// Evaluation is two-phase. Compile turns a query into a Plan — a physical
// form with variables mapped to integer slots, atoms ordered by
// bound-position score and live relation cardinalities, per-atom access
// paths (lookup columns and their value sources precomputed), and
// comparison predicates scheduled at the earliest step where both sides are
// ground. Execution then enumerates bindings on a flat []string slot frame
// reused across the whole enumeration: no per-binding maps, no cloning, no
// name lookups.
//
// Plans drive two strategies with identical binding multisets and
// byte-identical sorted results: the sequential descent over an
// unpartitioned view, and scatter-gather across the shards of an
// eval.Partitioned one — the first join atom read shard by shard, on up to
// Options.Parallel workers (Auto derives the count from plan
// cardinalities). A shard's attempt policy is not an option of the
// evaluation: it is a view of its own (Resilient) around the Partitioned
// one. Citations are plan-independent (the paper's
// note after Example 3.3), so the strategies differ only in speed; an
// unpartitioned plan never starts a goroutine.
//
// # Entry points
//
// Plan.Each is the enumeration: it pushes every satisfying valuation, as a
// slot frame aligned with Plan.Vars, into a callback. The callback is
// serialised (never invoked concurrently, whatever the strategy), the
// enumeration waits while it runs, the frame is valid only during the call,
// and the delivery order is unspecified unless execution is sequential.
// Plan.EvalCtx is Each with set semantics — distinct head tuples, sorted;
// Plan.EvalEach is EvalCtx handing every frame on beside its tuple's index.
// EvalOpts compiles and evaluates a storage database in one call.
//
// # Cancellation
//
// Each runs under a context: both strategies ask it for its error at least
// every ctxCheckInterval candidate tuples, and scatter-gather also at shard
// boundaries, so a canceled enumeration returns the context's error promptly
// instead of finishing a join nobody is waiting for. Between the checks an
// execution pays one decrement per candidate.
package eval

import (
	"context"
	"errors"

	"citare/internal/cq"
	"citare/internal/storage"
)

// ErrSchema tags compile-time schema mismatches — unknown relations and
// arity mismatches between a query atom and its relation. Compile wraps
// these so callers can classify them with errors.Is without string matching.
var ErrSchema = errors.New("eval: schema mismatch")

// ErrTupleLimit is returned by EvalCtx when Options.MaxTuples is set and the
// enumeration produces more distinct output tuples than allowed. The
// enumeration aborts promptly in both execution strategies.
var ErrTupleLimit = errors.New("eval: tuple limit exceeded")

// Result is the set-semantics output of a query.
type Result struct {
	// Cols labels the output columns: the head variable name, or the
	// constant's value for constant head terms.
	Cols   []string
	Tuples []storage.Tuple
	// Keys holds each tuple's collision-free key (storage.Tuple.Key),
	// parallel to Tuples; evaluation sorts both by it. Empty on a hand-built
	// Result.
	Keys []string
}

// keyedTuples sorts tuples (and their parallel key slice, and order when
// set) by key — the same deterministic order both evaluation strategies
// produce.
type keyedTuples struct {
	keys   []string
	tuples []storage.Tuple
	order  []int
}

func (s *keyedTuples) Len() int           { return len(s.keys) }
func (s *keyedTuples) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *keyedTuples) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.tuples[i], s.tuples[j] = s.tuples[j], s.tuples[i]
	if s.order != nil {
		s.order[i], s.order[j] = s.order[j], s.order[i]
	}
}

// RelView is the read surface the evaluator needs from a relation.
// *storage.Relation satisfies it directly; internal/shard provides a
// fan-out implementation spanning every shard of a partitioned relation.
type RelView interface {
	Schema() *storage.RelSchema
	Len() int
	Scan(fn func(t storage.Tuple) bool)
	Lookup(cols []int, vals []string, fn func(t storage.Tuple) bool)
}

// DBView is the read surface the evaluator needs from a database: relation
// lookup by name (nil for unknown relations).
type DBView interface {
	Relation(name string) RelView
}

// dbView adapts *storage.DB to DBView.
type dbView struct{ db *storage.DB }

func (d dbView) Relation(name string) RelView {
	// Return an untyped nil for missing relations so callers' nil checks work.
	if r := d.db.Relation(name); r != nil {
		return r
	}
	return nil
}

// DBViewOf adapts a storage database to the evaluator's DBView interface.
func DBViewOf(db *storage.DB) DBView { return dbView{db} }

// Options tunes an evaluation.
type Options struct {
	// Parallel caps the workers a scatter-gather enumeration reads its
	// candidate shards on:
	//
	//   - Auto derives the count from the compiled plan's relation
	//     cardinalities (one worker on small data or a single core);
	//   - values > 1 fix the cap;
	//   - 0 and 1 read the shards one at a time.
	//
	// Each's callback is never invoked concurrently, but the order in which
	// bindings arrive is unspecified; the binding multiset is identical to
	// the sequential evaluation's. EvalCtx output is deterministic
	// regardless. Unpartitioned and single-shard views ignore it: they
	// always evaluate sequentially.
	Parallel int

	// MaxTuples, when > 0, bounds the number of distinct output tuples a
	// set-semantics EvalCtx may produce: the enumeration aborts with
	// ErrTupleLimit as soon as the bound is exceeded, in both execution
	// strategies. It has no effect on binding enumeration.
	MaxTuples int
}

// EvalOpts evaluates q over db with set semantics: the query is compiled and
// the plan executed once. Output tuples are deterministically sorted.
// Callers evaluating the same query repeatedly should Compile once and reuse
// the Plan.
func EvalOpts(db *storage.DB, q *cq.Query, opts Options) (*Result, error) {
	p, err := Compile(DBViewOf(db), q)
	if err != nil {
		return nil, err
	}
	return p.EvalCtx(context.Background(), opts)
}

func headCols(q *cq.Query) []string {
	cols := make([]string, len(q.Head))
	for i, t := range q.Head {
		if t.IsVar() {
			cols[i] = t.Name
		} else {
			cols[i] = t.Value
		}
	}
	return cols
}
