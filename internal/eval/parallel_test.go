package eval

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"citare/internal/cq"
	"citare/internal/storage"
)

// bindingKey canonically encodes a binding plus its matches so multisets can
// be compared across evaluation strategies.
func bindingKey(b Binding, ms []Match) string {
	vars := make([]string, 0, len(b))
	for v := range b {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	key := ""
	for _, v := range vars {
		key += fmt.Sprintf("%s=%q;", v, b[v])
	}
	parts := make([]string, len(ms))
	for i, m := range ms {
		parts[i] = fmt.Sprintf("%d:%s:%s", m.AtomIndex, m.Rel, m.Tuple.Key())
	}
	sort.Strings(parts) // matches arrive in join order, which may differ per strategy
	for _, p := range parts {
		key += p + "|"
	}
	return key
}

func bindingMultiset(t *testing.T, db *storage.DB, q *cq.Query, opts Options) map[string]int {
	t.Helper()
	out := make(map[string]int)
	err := EachBinding(DBViewOf(db), q, opts, func(b Binding, ms []Match) error {
		out[bindingKey(b, ms)]++
		return nil
	})
	if err != nil {
		t.Fatalf("EachBinding(%+v): %v", opts, err)
	}
	return out
}

// randomFactDB builds a database with binary predicates R, S, T over a small
// constant pool, so random queries join with real fan-out.
func randomFactDB(r *rand.Rand) *storage.DB {
	consts := []string{"a", "b", "c", "d", "k"}
	var facts []cq.Atom
	for _, pred := range []string{"R", "S", "T"} {
		n := 5 + r.Intn(40)
		for i := 0; i < n; i++ {
			facts = append(facts, cq.NewAtom(pred,
				cq.Const(consts[r.Intn(len(consts))]),
				cq.Const(consts[r.Intn(len(consts))])))
		}
	}
	db, err := DBFromFacts(facts)
	if err != nil {
		panic(err)
	}
	return db
}

// randomJoinQuery draws a 1–4 atom CQ over R, S, T with shared variables,
// occasional constants, repeated variables and comparisons.
func randomJoinQuery(r *rand.Rand) *cq.Query {
	preds := []string{"R", "S", "T"}
	vars := []string{"X", "Y", "Z", "W"}
	consts := []string{"a", "b", "k"}
	term := func() cq.Term {
		if r.Intn(5) == 0 {
			return cq.Const(consts[r.Intn(len(consts))])
		}
		return cq.Var(vars[r.Intn(len(vars))])
	}
	n := 1 + r.Intn(4)
	q := &cq.Query{Name: "Q"}
	for i := 0; i < n; i++ {
		q.Atoms = append(q.Atoms, cq.NewAtom(preds[r.Intn(len(preds))], term(), term()))
	}
	// Head: every variable used, so distinct bindings yield distinct tuples.
	seen := map[string]bool{}
	for _, a := range q.Atoms {
		for _, tm := range a.Args {
			if tm.IsVar() && !seen[tm.Name] {
				seen[tm.Name] = true
				q.Head = append(q.Head, tm)
			}
		}
	}
	if len(q.Head) == 0 {
		q.Head = []cq.Term{cq.Const("k")}
	}
	// Occasionally constrain with a comparison over bound variables.
	if len(seen) > 0 && r.Intn(3) == 0 {
		var names []string
		for v := range seen {
			names = append(names, v)
		}
		sort.Strings(names)
		ops := []cq.CompOp{cq.OpEq, cq.OpNe, cq.OpLt, cq.OpLe}
		l := cq.Var(names[r.Intn(len(names))])
		var rt cq.Term
		if r.Intn(2) == 0 {
			rt = cq.Var(names[r.Intn(len(names))])
		} else {
			rt = cq.Const(consts[r.Intn(len(consts))])
		}
		q.Comps = append(q.Comps, cq.Comparison{L: l, Op: ops[r.Intn(len(ops))], R: rt})
	}
	return q
}

// TestPropParallelMatchesSequential: on random databases and queries,
// parallel enumeration yields exactly the sequential binding multiset and
// EvalOpts exactly the sequential tuple list.
func TestPropParallelMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	f := func() bool {
		db := randomFactDB(r)
		q := randomJoinQuery(r)
		seq := bindingMultiset(t, db, q, Options{})
		for _, workers := range []int{2, 4, 8} {
			par := bindingMultiset(t, db, q, Options{Parallel: workers})
			if !reflect.DeepEqual(seq, par) {
				t.Logf("query %s: sequential %d distinct bindings, parallel(%d) %d", q, len(seq), workers, len(par))
				return false
			}
		}
		seqRes, err := EvalOpts(db, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4} {
			parRes, err := EvalOpts(db, q, Options{Parallel: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seqRes.Cols, parRes.Cols) || !reflect.DeepEqual(seqRes.Tuples, parRes.Tuples) {
				t.Logf("query %s: tuple lists diverge", q)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelAgainstSnapshot checks the parallel evaluator over a frozen
// snapshot — the configuration the citation engine actually runs.
func TestParallelAgainstSnapshot(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	db := randomFactDB(r)
	snap := db.Snapshot()
	q := &cq.Query{Name: "Q",
		Head:  []cq.Term{cq.Var("X"), cq.Var("Z")},
		Atoms: []cq.Atom{cq.NewAtom("R", cq.Var("X"), cq.Var("Y")), cq.NewAtom("S", cq.Var("Y"), cq.Var("Z"))}}
	seq, err := EvalOpts(snap, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := EvalOpts(snap, q, Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Tuples, par.Tuples) {
		t.Fatalf("snapshot eval diverges: %v vs %v", seq.Tuples, par.Tuples)
	}
}

// TestParallelCallbackErrorAborts: the first error returned by fn is the
// error the enumeration reports, and enumeration stops promptly.
func TestParallelCallbackErrorAborts(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	db := randomFactDB(r)
	q := &cq.Query{Name: "Q",
		Head:  []cq.Term{cq.Var("X")},
		Atoms: []cq.Atom{cq.NewAtom("R", cq.Var("X"), cq.Var("Y"))}}
	boom := errors.New("boom")
	calls := 0
	err := EachBinding(DBViewOf(db), q, Options{Parallel: 4}, func(Binding, []Match) error {
		calls++
		if calls == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err %v, want boom", err)
	}
	// The sequential abort contract holds under parallelism: fn is never
	// invoked again after it returns an error.
	if calls != 3 {
		t.Fatalf("fn called %d times after erroring on call 3", calls)
	}
}

// TestParallelCallbackNotConcurrent: fn must never run concurrently even
// with many workers.
func TestParallelCallbackNotConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	db := randomFactDB(r)
	q := &cq.Query{Name: "Q",
		Head:  []cq.Term{cq.Var("X"), cq.Var("Z")},
		Atoms: []cq.Atom{cq.NewAtom("R", cq.Var("X"), cq.Var("Y")), cq.NewAtom("S", cq.Var("Y"), cq.Var("Z"))}}
	inFn := 0
	err := EachBinding(DBViewOf(db), q, Options{Parallel: 8}, func(Binding, []Match) error {
		inFn++
		if inFn != 1 {
			t.Error("fn invoked concurrently")
		}
		inFn--
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
