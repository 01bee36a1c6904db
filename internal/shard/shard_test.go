package shard_test

// Unit and property tests for the hash-partitioned storage engine: routing,
// shard pruning, snapshot isolation, and scatter-gather evaluation parity
// against the unsharded evaluator.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"citare/internal/cq"
	"citare/internal/eval"
	"citare/internal/gtopdb"
	"citare/internal/shard"
	"citare/internal/storage"
	"citare/internal/workload"
)

var shardCounts = []int{1, 2, 3, 8}

// evalOn compiles q over view and evaluates it with set semantics.
func evalOn(view eval.DBView, q *cq.Query, opts eval.Options) (*eval.Result, error) {
	pl, err := eval.Compile(view, q)
	if err != nil {
		return nil, err
	}
	return pl.EvalCtx(context.Background(), opts)
}

// resultKey canonically encodes an eval result for byte-identity checks.
func resultKey(r *eval.Result) string {
	s := fmt.Sprintf("%v|", r.Cols)
	for _, t := range r.Tuples {
		s += t.Key() + ";"
	}
	return s
}

func TestRoutingPartitionsEveryTuple(t *testing.T) {
	db := gtopdb.Generate(gtopdb.DefaultConfig())
	for _, n := range shardCounts {
		sdb, err := shard.FromDB(db, n)
		if err != nil {
			t.Fatal(err)
		}
		if sdb.NumShards() != n {
			t.Fatalf("NumShards = %d, want %d", sdb.NumShards(), n)
		}
		for _, rs := range db.Schema().Relations() {
			want := db.Relation(rs.Name).Len()
			if got := sdb.Len(rs.Name); got != want {
				t.Fatalf("shards=%d %s: %d tuples, want %d", n, rs.Name, got, want)
			}
			// Every tuple lives on exactly the shard its key hashes to.
			ki := rs.ShardKeyIndex()
			for i := 0; i < n; i++ {
				sdb.Part(i).Relation(rs.Name).Scan(func(tp storage.Tuple) bool {
					if home := sdb.ShardFor(rs.Name, tp[ki]); home != i {
						t.Errorf("%s%v on shard %d, hashes to %d", rs.Name, tp, i, home)
					}
					return true
				})
			}
		}
	}
}

func TestUnionViewMatchesUnsharded(t *testing.T) {
	db := gtopdb.Generate(gtopdb.DefaultConfig())
	sdb, err := shard.FromDB(db, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range db.Schema().Relations() {
		fan := sdb.Relation(rs.Name)
		if fan.Len() != db.Relation(rs.Name).Len() {
			t.Fatalf("%s: union Len %d != %d", rs.Name, fan.Len(), db.Relation(rs.Name).Len())
		}
		// Scan yields the same tuple set.
		want := make(map[string]bool)
		db.Relation(rs.Name).Scan(func(tp storage.Tuple) bool { want[tp.Key()] = true; return true })
		got := make(map[string]bool)
		fan.Scan(func(tp storage.Tuple) bool { got[tp.Key()] = true; return true })
		if len(got) != len(want) {
			t.Fatalf("%s: scan yields %d tuples, want %d", rs.Name, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("%s: union scan missing tuple %q", rs.Name, k)
			}
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	db := gtopdb.Generate(gtopdb.DefaultConfig())
	sdb, err := shard.FromDB(db, 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	sdb.Relation("Family").Scan(func(storage.Tuple) bool {
		seen++
		return seen < 3
	})
	if seen != 3 {
		t.Fatalf("scan visited %d tuples after early stop, want 3", seen)
	}
}

func TestShardPruning(t *testing.T) {
	db := gtopdb.PaperInstance()
	sdb, err := shard.FromDB(db, 4)
	if err != nil {
		t.Fatal(err)
	}
	rs := db.Schema().Relation("Family")
	ki := rs.ShardKeyIndex()

	// A lookup binding the shard key names exactly one candidate shard.
	cands := sdb.CandidateShards("Family", []int{ki}, []string{"11"})
	if len(cands) != 1 || cands[0] != sdb.ShardFor("Family", "11") {
		t.Fatalf("CandidateShards on shard key = %v, want [%d]", cands, sdb.ShardFor("Family", "11"))
	}
	// A lookup on other columns cannot prune.
	if cands := sdb.CandidateShards("Family", []int{2}, []string{"gpcr"}); cands != nil {
		t.Fatalf("CandidateShards off the shard key = %v, want nil", cands)
	}
	// Pruned lookup still finds the tuple.
	found := 0
	sdb.Relation("Family").Lookup([]int{ki}, []string{"11"}, func(tp storage.Tuple) bool {
		found++
		return true
	})
	if found != 1 {
		t.Fatalf("pruned lookup found %d tuples, want 1", found)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	db := gtopdb.PaperInstance()
	sdb, err := shard.FromDB(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	snap := sdb.Snapshot()
	if !snap.Frozen() {
		t.Fatal("snapshot not frozen")
	}
	before := snap.Len("Family")
	sdb.MustInsert("Family", "999", "NewFam", "gpcr")
	if _, err := sdb.Delete("Family", "11", "Calcitonin", "gpcr"); err != nil {
		t.Fatal(err)
	}
	if got := snap.Len("Family"); got != before {
		t.Fatalf("snapshot Len changed to %d after writes, want %d", got, before)
	}
	// Writes against the snapshot itself are rejected.
	if err := snap.Insert("Family", "1000", "X", "gpcr"); err == nil {
		t.Fatal("insert into frozen snapshot succeeded")
	}
	// The live database sees both writes.
	if got, want := sdb.Len("Family"), before; got != want {
		t.Fatalf("live Len = %d, want %d", got, want)
	}
}

func TestStatsDistribution(t *testing.T) {
	cfg := gtopdb.DefaultConfig()
	db := gtopdb.Generate(cfg)
	sdb, err := shard.FromDB(db, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range sdb.Stats() {
		sum := 0
		for _, n := range st.PerShard {
			sum += n
		}
		if sum != st.Rows {
			t.Fatalf("%s: per-shard sum %d != total %d", st.Name, sum, st.Rows)
		}
		if st.Rows != db.Relation(st.Name).Len() {
			t.Fatalf("%s: total %d != unsharded %d", st.Name, st.Rows, db.Relation(st.Name).Len())
		}
	}
	// With enough rows the hash should touch more than one shard.
	for _, st := range sdb.Stats() {
		if st.Name != "Family" || st.Rows < 50 {
			continue
		}
		nonEmpty := 0
		for _, n := range st.PerShard {
			if n > 0 {
				nonEmpty++
			}
		}
		if nonEmpty < 2 {
			t.Fatalf("Family rows all landed on one shard: %v", st.PerShard)
		}
	}
}

// TestEvalShardedParity is the core property: scatter-gather evaluation is
// byte-identical to unsharded evaluation, for every query of the gtopdb
// workload, every shard count, and both sequential and parallel gathers.
func TestEvalShardedParity(t *testing.T) {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 120
	db := gtopdb.Generate(cfg)
	queries := workload.GtoPdbQueries()
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 12; i++ {
		queries = append(queries, workload.RandomGtoPdbQuery(r, 3))
	}

	for _, q := range queries {
		want, err := eval.EvalOpts(db, q, eval.Options{})
		if err != nil {
			t.Fatal(err)
		}
		wantKey := resultKey(want)
		for _, n := range shardCounts {
			sdb, err := shard.FromDB(db, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{0, 4} {
				got, err := evalOn(sdb, q, eval.Options{Parallel: par})
				if err != nil {
					t.Fatalf("%s shards=%d parallel=%d: %v", q.Name, n, par, err)
				}
				if gotKey := resultKey(got); gotKey != wantKey {
					t.Fatalf("%s shards=%d parallel=%d:\n got %s\nwant %s", q.Name, n, par, gotKey, wantKey)
				}
			}
		}
	}
}

// TestEvalShardedChainParity checks scatter-gather on the chain-join
// workload, where every atom scan fans out across shards.
func TestEvalShardedChainParity(t *testing.T) {
	db := workload.ChainDB(3, 400, 32, 11)
	q := workload.ChainQuery(3)
	want, err := eval.EvalOpts(db, q, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range shardCounts {
		sdb, err := shard.FromDB(db, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{0, 8} {
			got, err := evalOn(sdb, q, eval.Options{Parallel: par})
			if err != nil {
				t.Fatal(err)
			}
			if resultKey(got) != resultKey(want) {
				t.Fatalf("chain parity broken at shards=%d parallel=%d", n, par)
			}
		}
	}
}

// TestEachBindingShardedMultiset checks the binding multiset (not just the
// deduplicated result) matches the sequential enumeration.
func TestEachBindingShardedMultiset(t *testing.T) {
	db := workload.ChainDB(2, 200, 16, 3)
	q := workload.ChainQuery(2)

	// Frames are aligned with Vars, which follows the query's atoms and so
	// is the same over every view.
	collect := func(view eval.DBView, opts eval.Options) map[string]int {
		pl, err := eval.Compile(view, q)
		if err != nil {
			t.Fatal(err)
		}
		vars := pl.Vars()
		ms := make(map[string]int)
		err = pl.Each(context.Background(), opts, func(frame []string) error {
			key := ""
			for i, v := range vars {
				key += v + "=" + frame[i] + ";"
			}
			ms[key]++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}

	want := collect(eval.DBViewOf(db), eval.Options{})
	for _, n := range shardCounts {
		sdb, err := shard.FromDB(db, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{0, 4} {
			got := collect(sdb, eval.Options{Parallel: par})
			if len(got) != len(want) {
				t.Fatalf("shards=%d parallel=%d: %d distinct bindings, want %d", n, par, len(got), len(want))
			}
			for k, c := range want {
				if got[k] != c {
					t.Fatalf("shards=%d parallel=%d: binding %q count %d, want %d", n, par, k, got[k], c)
				}
			}
		}
	}
}

// TestEvalShardedAbort checks callback errors abort the scatter and surface
// to the caller, in both sequential and parallel gathers.
func TestEvalShardedAbort(t *testing.T) {
	db := workload.ChainDB(2, 100, 16, 5)
	sdb, err := shard.FromDB(db, 4)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := eval.Compile(sdb, workload.ChainQuery(2))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	for _, par := range []int{0, 4} {
		calls := 0
		err := pl.Each(context.Background(), eval.Options{Parallel: par}, func([]string) error {
			calls++
			if calls == 3 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("parallel=%d: err = %v, want boom", par, err)
		}
	}
}

// TestEvalShardedUnknownRelation checks validation errors match the
// unsharded path.
func TestEvalShardedUnknownRelation(t *testing.T) {
	db := gtopdb.PaperInstance()
	sdb, err := shard.FromDB(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := &cq.Query{Name: "Q", Head: []cq.Term{cq.Var("X")},
		Atoms: []cq.Atom{cq.NewAtom("Nope", cq.Var("X"))}}
	if _, err := evalOn(sdb, q, eval.Options{}); err == nil {
		t.Fatal("expected unknown-relation error")
	}
}

// TestDeclaredShardKey checks routing honors a schema-declared shard key
// that is not the first column.
func TestDeclaredShardKey(t *testing.T) {
	s := storage.NewSchema()
	s.MustAddRelation(&storage.RelSchema{
		Name:     "Edge",
		Cols:     []storage.Column{{Name: "A"}, {Name: "B"}},
		ShardKey: "B",
	})
	sdb := shard.New(s, 4)
	sdb.MustInsert("Edge", "x", "k1")
	sdb.MustInsert("Edge", "y", "k1")
	home := sdb.ShardFor("Edge", "k1")
	if got := sdb.Part(home).Relation("Edge").Len(); got != 2 {
		t.Fatalf("declared shard key: %d tuples on home shard, want 2", got)
	}
	// Pruning follows the declared column (position 1), not column 0.
	if cands := sdb.CandidateShards("Edge", []int{1}, []string{"k1"}); len(cands) != 1 || cands[0] != home {
		t.Fatalf("CandidateShards = %v, want [%d]", cands, home)
	}
	if cands := sdb.CandidateShards("Edge", []int{0}, []string{"x"}); cands != nil {
		t.Fatalf("CandidateShards on non-key column = %v, want nil", cands)
	}
}
