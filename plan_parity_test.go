package citare

// Property tests for the compiled-plan evaluator: plan-based evaluation —
// the sequential descent, and scatter-gather across shard counts and worker
// caps — must yield binding multisets and sorted results byte-identical to a
// reference evaluator written in the pre-plan style (per-binding maps, no
// indexes, no join-order heuristics), on the paper's gtopdb workload and
// the advisor example workload.

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"
	"testing"

	"citare/internal/cq"
	"citare/internal/datalog"
	"citare/internal/eval"
	"citare/internal/gtopdb"
	"citare/internal/shard"
	"citare/internal/sqlfe"
	"citare/internal/storage"
)

// refEvalBindings is an independent oracle for binding enumeration: atoms
// evaluate by full scan in the query's own order, bindings are cloned
// name→value maps, and comparison predicates are checked only on complete
// valuations. It shares no code with the plan compiler, so any scheduling,
// slot or access-path bug in the compiled evaluator diverges from it.
func refEvalBindings(dbv eval.DBView, q *cq.Query, fn func(b map[string]string) error) error {
	if err := q.Validate(); err != nil {
		return err
	}
	for _, a := range q.Atoms {
		rel := dbv.Relation(a.Pred)
		if rel == nil {
			return fmt.Errorf("ref: unknown relation %s", a.Pred)
		}
		if rel.Schema().Arity() != len(a.Args) {
			return fmt.Errorf("ref: atom %s arity mismatch", a.Pred)
		}
	}
	ground := func(b map[string]string, t cq.Term) (string, error) {
		if t.IsConst {
			return t.Value, nil
		}
		v, ok := b[t.Name]
		if !ok {
			return "", fmt.Errorf("ref: unbound comparison variable %s", t.Name)
		}
		return v, nil
	}
	var rec func(i int, b map[string]string) error
	rec = func(i int, b map[string]string) error {
		if i == len(q.Atoms) {
			for _, c := range q.Comps {
				l, err := ground(b, c.L)
				if err != nil {
					return err
				}
				r, err := ground(b, c.R)
				if err != nil {
					return err
				}
				if !cq.CompareValues(l, c.Op, r) {
					return nil
				}
			}
			return fn(b)
		}
		a := q.Atoms[i]
		var iterErr error
		dbv.Relation(a.Pred).Scan(func(t storage.Tuple) bool {
			b2 := maps.Clone(b)
			ok := true
			for col, tm := range a.Args {
				if tm.IsConst {
					if t[col] != tm.Value {
						ok = false
						break
					}
					continue
				}
				if v, bnd := b2[tm.Name]; bnd {
					if t[col] != v {
						ok = false
						break
					}
					continue
				}
				b2[tm.Name] = t[col]
			}
			if ok {
				if err := rec(i+1, b2); err != nil {
					iterErr = err
					return false
				}
			}
			return true
		})
		return iterErr
	}
	return rec(0, map[string]string{})
}

// refEval gathers the oracle's bindings with set semantics: head tuples
// deduplicated and sorted by their collision-free key — the contract both
// plan execution strategies must reproduce byte for byte.
func refEval(dbv eval.DBView, q *cq.Query) (cols []string, tuples []storage.Tuple, err error) {
	for _, t := range q.Head {
		if t.IsVar() {
			cols = append(cols, t.Name)
		} else {
			cols = append(cols, t.Value)
		}
	}
	seen := map[string]bool{}
	err = refEvalBindings(dbv, q, func(b map[string]string) error {
		out := make(storage.Tuple, len(q.Head))
		for i, t := range q.Head {
			if t.IsConst {
				out[i] = t.Value
				continue
			}
			v, ok := b[t.Name]
			if !ok {
				return fmt.Errorf("ref: unbound head variable %s", t.Name)
			}
			out[i] = v
		}
		if k := out.Key(); !seen[k] {
			seen[k] = true
			tuples = append(tuples, out)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	sort.Slice(tuples, func(i, j int) bool { return tuples[i].Key() < tuples[j].Key() })
	return cols, tuples, nil
}

// refMultiset counts the oracle's valuations, each spelled as a frame
// aligned with vars — the plan's Vars, which name every variable the oracle
// binds.
func refMultiset(t *testing.T, dbv eval.DBView, q *cq.Query, vars []string) map[string]int {
	t.Helper()
	out := map[string]int{}
	if err := refEvalBindings(dbv, q, func(b map[string]string) error {
		if len(b) != len(vars) {
			return fmt.Errorf("ref: valuation %v, plan variables %v", b, vars)
		}
		frame := make([]string, len(vars))
		for i, v := range vars {
			frame[i] = b[v]
		}
		out[fmt.Sprintf("%q", frame)]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// planMultiset compiles q over dbv and counts the frames its enumeration
// delivers, which must be aligned with vars.
func planMultiset(t *testing.T, dbv eval.DBView, q *cq.Query, opts eval.Options, vars []string) map[string]int {
	t.Helper()
	pl, err := eval.Compile(dbv, q)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(pl.Vars(), vars) {
		t.Fatalf("plan variables %v, want %v", pl.Vars(), vars)
	}
	out := map[string]int{}
	if err := pl.Each(context.Background(), opts, func(frame []string) error {
		out[fmt.Sprintf("%q", frame)]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// evalQueries parses the CQ forms of the gtopdb and advisor workloads.
func evalQueries(t *testing.T, schema *storage.Schema) map[string][]*cq.Query {
	t.Helper()
	parse := func(qs []mixedQuery) []*cq.Query {
		var out []*cq.Query
		for _, mq := range qs {
			var (
				q   *cq.Query
				err error
			)
			if mq.sql {
				q, err = sqlfe.Parse(schema, mq.src)
			} else {
				q, err = datalog.ParseQuery(mq.src)
			}
			if err != nil {
				t.Fatalf("parse %s: %v", mq.src, err)
			}
			out = append(out, q)
		}
		return out
	}
	return map[string][]*cq.Query{
		"gtopdb":  parse(gtopdbWorkload()),
		"advisor": parse(advisorWorkload()),
	}
}

// TestPlanEvaluatorParity: on the gtopdb and advisor workloads, both
// compiled-plan execution strategies — the sequential descent, and
// scatter-gather across shard counts under fixed and adaptive (Auto) worker
// caps — produce the reference evaluator's binding multiset exactly and its
// sorted tuple list byte for byte.
func TestPlanEvaluatorParity(t *testing.T) {
	dbs := []struct {
		name string
		db   *storage.DB
	}{
		{"paper", gtopdb.PaperInstance()},
		{"generated", func() *storage.DB {
			cfg := gtopdb.DefaultConfig()
			cfg.Families = 120
			return gtopdb.Generate(cfg)
		}()},
	}
	shardCounts := []int{1, 2, 3, 5}
	for _, d := range dbs {
		workloads := evalQueries(t, d.db.Schema())
		for wl, queries := range workloads {
			for qi, q := range queries {
				dbv := eval.DBViewOf(d.db)
				pl, err := eval.Compile(dbv, q)
				if err != nil {
					t.Fatalf("%s/%s[%d]: compile: %v", d.name, wl, qi, err)
				}
				vars := pl.Vars()
				wantMS := refMultiset(t, dbv, q, vars)
				wantCols, wantTuples, err := refEval(dbv, q)
				if err != nil {
					t.Fatalf("%s/%s[%d]: ref: %v", d.name, wl, qi, err)
				}
				check := func(label string, ms map[string]int, res *eval.Result, err error) {
					t.Helper()
					if err != nil {
						t.Fatalf("%s/%s[%d] %s: %v", d.name, wl, qi, label, err)
					}
					if len(ms) != len(wantMS) {
						t.Fatalf("%s/%s[%d] %s: %d distinct bindings, want %d", d.name, wl, qi, label, len(ms), len(wantMS))
					}
					for k, n := range wantMS {
						if ms[k] != n {
							t.Fatalf("%s/%s[%d] %s: multiset diverges on %s (%d vs %d)", d.name, wl, qi, label, k, ms[k], n)
						}
					}
					if fmt.Sprint(res.Cols) != fmt.Sprint(wantCols) || fmt.Sprint(res.Tuples) != fmt.Sprint(wantTuples) {
						t.Fatalf("%s/%s[%d] %s: result diverges\n got %v %v\nwant %v %v",
							d.name, wl, qi, label, res.Cols, res.Tuples, wantCols, wantTuples)
					}
				}
				ms := planMultiset(t, dbv, q, eval.Options{}, vars)
				res, err := eval.EvalOpts(d.db, q, eval.Options{})
				check("sequential", ms, res, err)
				for _, shards := range shardCounts {
					sdb, err := shard.FromDB(d.db, shards)
					if err != nil {
						t.Fatal(err)
					}
					for _, par := range []int{0, 2, 4, eval.Auto} {
						opts := eval.Options{Parallel: par}
						ms := planMultiset(t, sdb, q, opts, vars)
						spl, err := eval.Compile(sdb, q)
						if err != nil {
							t.Fatal(err)
						}
						res, err := spl.EvalCtx(context.Background(), opts)
						check(fmt.Sprintf("shards=%d parallel=%d", shards, par), ms, res, err)
					}
				}
			}
		}
	}
}

// TestPlanCachedEngineParity: the engine's two compilation caches (logical
// rewriting plans and per-epoch physical plans) must not change citation
// output: repeated citations of the same workload — including after a Reset
// with new data — are byte-identical to a fresh engine's.
func TestPlanCachedEngineParity(t *testing.T) {
	db := gtopdb.PaperInstance()
	c, err := NewFromProgram(db, gtopdb.ViewsProgram, WithNeutralCitation(gtopdb.DatabaseCitation()))
	if err != nil {
		t.Fatal(err)
	}
	queries := append(gtopdbWorkload(), advisorWorkload()...)
	first := make([]string, len(queries))
	for i, q := range queries {
		res, err := cite(c, q)
		if err != nil {
			t.Fatalf("%s: %v", q.src, err)
		}
		first[i] = citationFingerprint(t, res)
	}
	// Second pass hits both caches; output must be identical.
	for i, q := range queries {
		res, err := cite(c, q)
		if err != nil {
			t.Fatalf("cached %s: %v", q.src, err)
		}
		if fp := citationFingerprint(t, res); fp != first[i] {
			t.Fatalf("cached citation diverges for %s:\n got %s\nwant %s", q.src, fp, first[i])
		}
	}
	// After a Reset with new data, a fresh engine must agree again — the
	// logical cache survives Reset, the physical plans must not.
	db.MustInsert("Family", "901", "PlanFam", "gpcr")
	db.MustInsert("FamilyIntro", "901", "plan intro")
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewFromProgram(db, gtopdb.ViewsProgram, WithNeutralCitation(gtopdb.DatabaseCitation()))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		got, err := cite(c, q)
		if err != nil {
			t.Fatalf("post-reset %s: %v", q.src, err)
		}
		want, err := cite(fresh, q)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := citationFingerprint(t, got), citationFingerprint(t, want); g != w {
			t.Fatalf("post-reset citation diverges for %s:\n got %s\nwant %s", q.src, g, w)
		}
	}
}
