package eval

import (
	"context"
	"errors"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"citare/internal/cq"
	"citare/internal/storage"
)

// partitionedDB is a stand-in for internal/shard, which imports eval: every
// relation's tuples split across the parts by the hash of their first value,
// the union view the unsplit database, no pruning.
type partitionedDB struct {
	DBView
	parts []*storage.DB
}

func partition(t testing.TB, db *storage.DB, n int) *partitionedDB {
	t.Helper()
	p := &partitionedDB{DBView: DBViewOf(db), parts: make([]*storage.DB, n)}
	for i := range p.parts {
		p.parts[i] = storage.NewDB(db.Schema())
	}
	for _, rs := range db.Schema().Relations() {
		db.Relation(rs.Name).Scan(func(tu storage.Tuple) bool {
			h := fnv.New32a()
			h.Write([]byte(tu[0]))
			if err := p.parts[h.Sum32()%uint32(n)].Insert(rs.Name, tu...); err != nil {
				t.Fatal(err)
			}
			return true
		})
	}
	return p
}

// snapshot returns the partitioned database frozen, parts and union alike —
// what the citation engine reads.
func (p *partitionedDB) snapshot(db *storage.DB) *partitionedDB {
	out := &partitionedDB{DBView: DBViewOf(db.Snapshot()), parts: make([]*storage.DB, len(p.parts))}
	for i, part := range p.parts {
		out.parts[i] = part.Snapshot()
	}
	return out
}

func (p *partitionedDB) NumShards() int { return len(p.parts) }

func (p *partitionedDB) CandidateShards(string, []int, []string) []int { return nil }

func (p *partitionedDB) ShardScan(ctx context.Context, si int, rel string, cols []int, vals []string, fn func(storage.Tuple) bool) error {
	if r := p.parts[si].Relation(rel); len(cols) > 0 {
		r.Lookup(cols, vals, fn)
	} else {
		r.Scan(fn)
	}
	return ctx.Err()
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
	db, err := dbFromFacts(facts)
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

// TestPropParallelMatchesSequential: on random databases and queries, the
// concurrent scatter — one worker per shard, 2 to 8 of them — yields exactly
// the sequential binding multiset, and its set-semantics evaluation exactly
// the sequential tuple list.
func TestPropParallelMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	f := func() bool {
		db := randomFactDB(r)
		q := randomJoinQuery(r)
		seq := bindingMultiset(t, DBViewOf(db), q, Options{})
		for _, workers := range []int{2, 4, 8} {
			par := bindingMultiset(t, partition(t, db, workers), q, Options{Parallel: workers})
			if !reflect.DeepEqual(seq, par) {
				t.Logf("query %s: sequential %d distinct bindings, scatter(%d) %d", q, len(seq), workers, len(par))
				return false
			}
		}
		seqRes, err := EvalOpts(db, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4} {
			parRes, err := evalOn(partition(t, db, workers), q, Options{Parallel: workers})
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

// TestParallelAgainstSnapshot checks the concurrent scatter over frozen
// snapshots — the configuration the citation engine actually runs.
func TestParallelAgainstSnapshot(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	db := randomFactDB(r)
	snap := partition(t, db, 4).snapshot(db)
	q := &cq.Query{Name: "Q",
		Head:  []cq.Term{cq.Var("X"), cq.Var("Z")},
		Atoms: []cq.Atom{cq.NewAtom("R", cq.Var("X"), cq.Var("Y")), cq.NewAtom("S", cq.Var("Y"), cq.Var("Z"))}}
	seq, err := EvalOpts(db.Snapshot(), q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := evalOn(snap, q, Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Tuples, par.Tuples) {
		t.Fatalf("snapshot eval diverges: %v vs %v", seq.Tuples, par.Tuples)
	}
}

// TestParallelCallbackErrorAborts: under the concurrent scatter, the first
// error returned by fn is the error the enumeration reports, and fn is never
// invoked again.
func TestParallelCallbackErrorAborts(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	db := randomFactDB(r)
	q := &cq.Query{Name: "Q",
		Head:  []cq.Term{cq.Var("X")},
		Atoms: []cq.Atom{cq.NewAtom("R", cq.Var("X"), cq.Var("Y"))}}
	boom := errors.New("boom")
	calls := 0
	p, err := Compile(partition(t, db, 4), q)
	if err != nil {
		t.Fatal(err)
	}
	err = p.Each(context.Background(), Options{Parallel: 4}, func([]string) error {
		calls++
		if calls == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err %v, want boom", err)
	}
	// The sequential abort contract holds under concurrency: fn is never
	// invoked again after it returns an error.
	if calls != 3 {
		t.Fatalf("fn called %d times after erroring on call 3", calls)
	}
}

// TestParallelCallbackNotConcurrent: fn must never run concurrently, even
// with one worker per shard of eight.
func TestParallelCallbackNotConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	db := randomFactDB(r)
	q := &cq.Query{Name: "Q",
		Head:  []cq.Term{cq.Var("X"), cq.Var("Z")},
		Atoms: []cq.Atom{cq.NewAtom("R", cq.Var("X"), cq.Var("Y")), cq.NewAtom("S", cq.Var("Y"), cq.Var("Z"))}}
	inFn := 0
	p, err := Compile(partition(t, db, 8), q)
	if err != nil {
		t.Fatal(err)
	}
	err = p.Each(context.Background(), Options{Parallel: 8}, func([]string) error {
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
