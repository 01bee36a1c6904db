package eval

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"citare/internal/cq"
	"citare/internal/storage"
)

// TestPropAutoMatchesSequential: a scatter under Auto (worker count derived
// from plan cardinalities) yields exactly the sequential binding multiset
// and tuple list on random databases and queries.
func TestPropAutoMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	f := func() bool {
		db := randomFactDB(r)
		q := randomJoinQuery(r)
		view := partition(t, db, 3)
		seq := bindingMultiset(t, DBViewOf(db), q, Options{})
		auto := bindingMultiset(t, view, q, Options{Parallel: Auto})
		if !reflect.DeepEqual(seq, auto) {
			t.Logf("query %s: auto multiset diverges", q)
			return false
		}
		seqRes, err := EvalOpts(db, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		autoRes, err := evalOn(view, q, Options{Parallel: Auto})
		if err != nil {
			t.Fatal(err)
		}
		return reflect.DeepEqual(seqRes.Cols, autoRes.Cols) && reflect.DeepEqual(seqRes.Tuples, autoRes.Tuples)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// expansionDB builds a join whose first atom is far too small to spread
// across shards while the deeper atoms carry the fan-out: most shards scan
// nothing, and the few that do expand through the union view.
func expansionDB(t *testing.T) (*storage.DB, *cq.Query) {
	t.Helper()
	var facts []cq.Atom
	for i := 0; i < 2; i++ { // tiny first relation
		facts = append(facts, cq.NewAtom("R", cq.Const(fmt.Sprint(i)), cq.Const(fmt.Sprint(i%2))))
	}
	for i := 0; i < 60; i++ {
		facts = append(facts, cq.NewAtom("S", cq.Const(fmt.Sprint(i%2)), cq.Const(fmt.Sprint(i))))
		facts = append(facts, cq.NewAtom("T", cq.Const(fmt.Sprint(i)), cq.Const(fmt.Sprint(i%7))))
	}
	db, err := dbFromFacts(facts)
	if err != nil {
		t.Fatal(err)
	}
	q := &cq.Query{Name: "Q",
		Head: []cq.Term{cq.Var("X"), cq.Var("W")},
		Atoms: []cq.Atom{
			cq.NewAtom("R", cq.Var("X"), cq.Var("Y")),
			cq.NewAtom("S", cq.Var("Y"), cq.Var("Z")),
			cq.NewAtom("T", cq.Var("Z"), cq.Var("W")),
		}}
	return db, q
}

// TestParallelDeepPartitioning: with a 2-tuple first atom scattered over
// 2 to 8 shards, one worker each, the shards that hold no first-atom tuple
// contribute nothing and the deep atoms carry the whole fan-out; the binding
// multiset and result stay identical to the sequential evaluation.
func TestParallelDeepPartitioning(t *testing.T) {
	db, q := expansionDB(t)
	seq := bindingMultiset(t, DBViewOf(db), q, Options{})
	for _, workers := range []int{2, 4, 8} {
		par := bindingMultiset(t, partition(t, db, workers), q, Options{Parallel: workers})
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d: expanded multiset diverges (%d vs %d distinct)", workers, len(seq), len(par))
		}
	}
	seqRes, err := EvalOpts(db, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := evalOn(partition(t, db, 4), q, Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqRes.Tuples, parRes.Tuples) {
		t.Fatalf("expanded tuples diverge: %v vs %v", seqRes.Tuples, parRes.Tuples)
	}
}

// TestExpandedCallbackErrorAborts: the abort contract holds when the frames
// come from the deep atoms of a scatter too — after fn errors it is never
// invoked again.
func TestExpandedCallbackErrorAborts(t *testing.T) {
	db, q := expansionDB(t)
	boom := fmt.Errorf("boom")
	calls := 0
	p, err := Compile(partition(t, db, 4), q)
	if err != nil {
		t.Fatal(err)
	}
	err = p.Each(context.Background(), Options{Parallel: 4}, func([]string) error {
		calls++
		if calls == 2 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("err %v, want boom", err)
	}
	if calls != 2 {
		t.Fatalf("fn called %d times after erroring on call 2", calls)
	}
}

// TestPlanConcurrentReuse: one compiled plan is safe for concurrent
// executions — each run owns its frames — and every execution returns the
// same sorted result, whatever its scatter worker cap. Run with -race (CI
// does).
func TestPlanConcurrentReuse(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	db := randomFactDB(r)
	q := &cq.Query{Name: "Q",
		Head: []cq.Term{cq.Var("X"), cq.Var("Z")},
		Atoms: []cq.Atom{
			cq.NewAtom("R", cq.Var("X"), cq.Var("Y")),
			cq.NewAtom("S", cq.Var("Y"), cq.Var("Z")),
		}}
	p, err := Compile(partition(t, db, 3).snapshot(db), q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.EvalCtx(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			opts := Options{Parallel: []int{0, 2, Auto}[g%3]}
			got, err := p.EvalCtx(context.Background(), opts)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(got.Tuples, want.Tuples) {
				t.Errorf("concurrent plan reuse diverged")
			}
			n := 0
			if err := p.Each(context.Background(), opts, func([]string) error {
				n++
				return nil
			}); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
}

// TestPlanResultContains: an evaluated result contains exactly its distinct
// tuples, each beside its Tuple.Key, in key order.
func TestPlanResultContains(t *testing.T) {
	db := familyDB(t)
	q := &cq.Query{Name: "Q", Head: []cq.Term{cq.Var("F")},
		Atoms: []cq.Atom{cq.NewAtom("FC", cq.Var("F"), cq.Var("P"))}}
	res, err := EvalOpts(db, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Keys) != len(res.Tuples) {
		t.Fatalf("%d keys for %d tuples", len(res.Keys), len(res.Tuples))
	}
	for i, tu := range res.Tuples {
		if res.Keys[i] != tu.Key() || i > 0 && res.Keys[i-1] >= res.Keys[i] {
			t.Fatalf("keys %q for tuples %v: want each tuple's key, strictly ascending", res.Keys, res.Tuples)
		}
	}
	if !slices.Contains(res.Keys, storage.Tuple{"11"}.Key()) || slices.Contains(res.Keys, storage.Tuple{"999"}.Key()) {
		t.Fatalf("evaluated-result membership wrong: %v", res.Tuples)
	}
}

// TestCompileErrors: compilation surfaces the same validation errors the
// evaluator always reported.
func TestCompileErrors(t *testing.T) {
	db := familyDB(t)
	if _, err := Compile(DBViewOf(db), &cq.Query{Head: []cq.Term{cq.Var("X")},
		Atoms: []cq.Atom{cq.NewAtom("Nope", cq.Var("X"))}}); err == nil {
		t.Fatal("unknown relation accepted")
	}
	if _, err := Compile(DBViewOf(db), &cq.Query{Head: []cq.Term{cq.Var("X")},
		Atoms: []cq.Atom{cq.NewAtom("Family", cq.Var("X"))}}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

// TestPropBindEqualsCompile: a plan compiled for one query and bound to the
// constants of another query of its shape evaluates — columns, tuples and
// the binding multiset, sequentially and scatter-gather — exactly as the
// plan compiled for that other query; the source plan is unchanged. (The
// root package's TestShardedPointLookupsBindConstants covers shard pruning
// on bound keys.)
func TestPropBindEqualsCompile(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	pool := []string{"a", "b", "c", "d", "k", "zz"}
	for i := 0; i < 150; i++ {
		db := randomFactDB(r)
		q := randomJoinQuery(r)
		if r.Intn(2) == 0 { // a constant head column: its label is the constant
			q.Head = append(q.Head, cq.Const(pool[r.Intn(len(pool))]))
		}
		key, from := q.Shape(nil)
		to := make([]string, len(from))
		for j, k := range r.Perm(len(pool))[:len(from)] { // distinct, as Shape guarantees
			to[j] = pool[k]
		}
		rb := cq.NewRebind(from, to)
		q2 := rb.Query(q)
		if k2, p2 := q2.Shape(nil); k2 != key || !slices.Equal(p2, to) {
			t.Fatalf("rebound %s is not of the shape of %s", q2, q)
		}
		view := DBViewOf(db)
		src, err := Compile(view, q)
		if err != nil {
			t.Fatal(err)
		}
		before, err := src.EvalCtx(context.Background(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []DBView{view, partition(t, db, 3)} {
			src, err := Compile(v, q)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := Compile(v, q2)
			if err != nil {
				t.Fatal(err)
			}
			bound := src.Bind(rb)
			opts := Options{Parallel: 3}
			want, err := direct.EvalCtx(context.Background(), opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := bound.EvalCtx(context.Background(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Cols, want.Cols) || !reflect.DeepEqual(got.Tuples, want.Tuples) {
				t.Fatalf("%s bound from %s: %v %v, compiled directly: %v %v", q2, q, got.Cols, got.Tuples, want.Cols, want.Tuples)
			}
			if !reflect.DeepEqual(planMultiset(t, bound, Options{}), planMultiset(t, direct, Options{})) {
				t.Fatalf("%s bound from %s: binding multiset diverges", q2, q)
			}
		}
		after, err := src.EvalCtx(context.Background(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(before, after) {
			t.Fatalf("Bind changed the plan of %s", q)
		}
	}
}
