package citare

// Race and stress tests for the concurrent citation engine: many goroutines
// issuing Engine.Cite through both front-ends against one shared engine
// while the epoch's plan and token caches fill, plus Reset racing in-flight
// citations.
// Run with -race (CI does).

import (
	"fmt"
	"sync"
	"testing"

	"citare/internal/gtopdb"
)

// mixedQueries pairs each query with the front-end that issues it. All are
// answerable over the paper instance.
type mixedQuery struct {
	sql bool
	src string
}

func mixedWorkload() []mixedQuery {
	return []mixedQuery{
		{false, `Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)`},
		{false, `Q(N) :- Family(F, N, Ty), Ty = "lgic"`},
		{false, `Q(N, Pn) :- Family(F, N, Ty), FC(F, P), Person(P, Pn, A)`},
		{true, `SELECT f.FName FROM Family f, FamilyIntro i WHERE f.FID = i.FID AND f.Type = 'gpcr'`},
		{true, `SELECT f.FName FROM Family f WHERE f.Type = 'lgic'`},
		{true, `SELECT p.PName FROM FC c, Person p, Family f WHERE c.PID = p.PID AND c.FID = f.FID`},
	}
}

func cite(c *Citer, q mixedQuery) (*Citation, error) {
	if q.sql {
		return c.CiteSQL(q.src)
	}
	return c.CiteDatalog(q.src)
}

// TestConcurrentCiteMixedFrontends issues N goroutines of mixed SQL and
// datalog citations against a single fresh engine (so first compilations and
// first token renderings happen under contention) and checks every result
// against a sequentially computed baseline. parallel=N is the engine's
// scatter fan-out: 0 an unsharded engine, N a store of N shards.
func TestConcurrentCiteMixedFrontends(t *testing.T) {
	queries := mixedWorkload()

	// Sequential baseline from an independent engine.
	baseline := make([]string, len(queries))
	neutral := WithNeutralCitation(gtopdb.DatabaseCitation())
	seq := newPaperCiter(t, neutral)
	for i, q := range queries {
		res, err := cite(seq, q)
		if err != nil {
			t.Fatalf("%s: %v", q.src, err)
		}
		baseline[i] = res.CitationJSON()
	}

	for _, parallel := range []int{0, 4} {
		t.Run(fmt.Sprintf("parallel=%d", parallel), func(t *testing.T) {
			var shared *Citer
			if parallel == 0 {
				shared = newPaperCiter(t, neutral)
			} else { // with the same neutral citation
				shared = shardedPaperCiter(t, gtopdb.PaperInstance(), parallel)
			}
			const goroutines = 24
			const rounds = 8
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						i := (g + r) % len(queries)
						res, err := cite(shared, queries[i])
						if err != nil {
							t.Errorf("goroutine %d, %s: %v", g, queries[i].src, err)
							return
						}
						if got := res.CitationJSON(); got != baseline[i] {
							t.Errorf("goroutine %d, %s: citation diverged from sequential baseline", g, queries[i].src)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// TestConcurrentCiteWithReset races Cite calls against Reset plus live
// database writes. Every call must succeed and return either the old or the
// new answer set, never a torn mixture (tuple counts are checked against
// the two legal values).
func TestConcurrentCiteWithReset(t *testing.T) {
	db := gtopdb.PaperInstance()
	c, err := NewFromProgram(db, gtopdb.ViewsProgram)
	if err != nil {
		t.Fatal(err)
	}
	const query = `Q(N) :- Family(F, N, Ty), Ty = "gpcr"`
	before, err := c.CiteDatalog(query)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{before.NumTuples(): true, before.NumTuples() + 3: true}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := c.CiteDatalog(query)
				if err != nil {
					t.Errorf("cite during reset: %v", err)
					return
				}
				if n := res.NumTuples(); n != before.NumTuples() && n < before.NumTuples() {
					t.Errorf("torn result: %d tuples", n)
					return
				}
			}
		}()
	}
	for i := 0; i < 3; i++ {
		db.MustInsert("Family", fmt.Sprintf("9%d", i), fmt.Sprintf("Fresh%d", i), "gpcr")
		if err := c.Reset(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	after, err := c.CiteDatalog(query)
	if err != nil {
		t.Fatal(err)
	}
	if !want[after.NumTuples()] {
		t.Fatalf("after reset: %d tuples, want %d", after.NumTuples(), before.NumTuples()+3)
	}
}

// TestConcurrentCachedCiterStress hammers the cached citer with a rotating
// query mix across both front-ends; accounting must balance and answers
// must match the uncached engine.
func TestConcurrentCachedCiterStress(t *testing.T) {
	queries := mixedWorkload()
	seq := newPaperCiter(t)
	baseline := make([]string, len(queries))
	for i, q := range queries {
		res, err := cite(seq, q)
		if err != nil {
			t.Fatal(err)
		}
		baseline[i] = res.CitationJSON()
	}

	cc := NewCached(newPaperCiter(t))
	const goroutines = 16
	const rounds = 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g*3 + r) % len(queries)
				q := queries[i]
				var (
					res *Citation
					err error
				)
				if q.sql {
					res, err = cc.CiteSQL(q.src)
				} else {
					res, err = cc.CiteDatalog(q.src)
				}
				if err != nil {
					t.Errorf("%s: %v", q.src, err)
					return
				}
				if res.CitationJSON() != baseline[i] {
					t.Errorf("%s: cached citation diverged", q.src)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	hits, misses := cc.Stats()
	if hits+misses != goroutines*rounds {
		t.Fatalf("accounting: %d hits + %d misses != %d", hits, misses, goroutines*rounds)
	}
	// The SQL and datalog variants of the gpcr query share one entry, so
	// distinct entries number at most len(queries)-1.
	if misses < 2 || misses > len(queries)-1 {
		t.Fatalf("misses %d outside [2,%d]", misses, len(queries)-1)
	}
}
