package core_test

// Epoch-stability tests: a citation computed at epoch E reads the snapshot
// taken at E and is unchanged by any later write — to the live database
// (until Reset) or to the versioned store whose committed version the
// engine is pinned to. An epoch is a snapshot and a plan cache and nothing
// else: Reset costs O(relations), and requests of one epoch share no lock.

import (
	"context"
	"fmt"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"citare/internal/backend"
	"citare/internal/core"
	"citare/internal/datalog"
	"citare/internal/eval"
	"citare/internal/gtopdb"
	"citare/internal/lsm"
	"citare/internal/shard"
	"citare/internal/storage"
)

// citeJSON cites a datalog query and renders the aggregated citation.
func citeJSON(t *testing.T, e *core.Engine, src string) (rows int, citation string) {
	t.Helper()
	res, err := e.CiteQuery(context.Background(), mustQuery(t, src), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return len(res.Tuples), res.Citation.JSON()
}

// TestEpochUnchangedByLaterWrites: reads at the engine's current epoch are
// fixed until Reset publishes a new snapshot — for the plain and the
// sharded engine alike.
func TestEpochUnchangedByLaterWrites(t *testing.T) {
	const q = `Q(N) :- Family(F, N, Ty), Ty = "gpcr"`
	insert := map[string]func(vals ...string){}

	engines := map[string]*core.Engine{}
	{
		db := gtopdb.PaperInstance()
		e, err := core.NewEngine(core.DBSource{DB: db}, gtopdb.MustPaperViews(), core.DefaultPolicy())
		if err != nil {
			t.Fatal(err)
		}
		engines["plain"] = e
		insert["plain"] = func(vals ...string) { db.MustInsert("Family", vals...) }
	}
	{
		sdb, err := shard.FromDB(gtopdb.PaperInstance(), 3)
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.NewEngine(core.ShardSource{DB: sdb}, gtopdb.MustPaperViews(), core.DefaultPolicy())
		if err != nil {
			t.Fatal(err)
		}
		engines["sharded"] = e
		insert["sharded"] = func(vals ...string) { sdb.MustInsert("Family", vals...) }
	}

	for name, e := range engines {
		t.Run(name, func(t *testing.T) {
			rows0, cite0 := citeJSON(t, e, q)
			insert[name]("901", "EpochFam", "gpcr")
			rows1, cite1 := citeJSON(t, e, q)
			if rows1 != rows0 || cite1 != cite0 {
				t.Fatalf("epoch read changed before Reset: rows %d→%d", rows0, rows1)
			}
			if err := e.Reset(); err != nil {
				t.Fatal(err)
			}
			rows2, _ := citeJSON(t, e, q)
			if rows2 != rows0+1 {
				t.Fatalf("Reset did not publish the write: %d rows, want %d", rows2, rows0+1)
			}
		})
	}
}

// TestVersionedEpochsAcrossEngines pins one engine per committed version of
// an LSM store and checks each keeps citing its own version's data — across
// a Reset, too — while the store keeps evolving: the paper's §4 fixity
// requirement carried through the engine's epoch machinery.
func TestVersionedEpochsAcrossEngines(t *testing.T) {
	b, err := backend.OpenLSM(t.TempDir(), gtopdb.Schema(), lsm.Options{DisableBackgroundCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	insert := func(rel string, vals ...string) {
		t.Helper()
		if err := b.Insert(rel, vals...); err != nil {
			t.Fatal(err)
		}
	}
	commit := func(label string) uint64 {
		t.Helper()
		v, err := b.Commit(label)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	insert("Family", "11", "Calcitonin", "gpcr")
	insert("FamilyIntro", "11", "intro-v1")
	ver1 := commit("release-1")
	insert("Family", "12", "Calcium", "gpcr")
	insert("FamilyIntro", "12", "intro-v2")
	ver2 := commit("release-2")

	const q = `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "gpcr"`
	want := map[uint64]int{ver1: 1, ver2: 2}
	engines := map[uint64]*core.Engine{}
	for _, ver := range []uint64{ver1, ver2} {
		e, err := core.NewEngine(backend.At(b, ver), gtopdb.MustPaperViews(), core.DefaultPolicy())
		if err != nil {
			t.Fatal(err)
		}
		engines[ver] = e
	}

	baseline := map[uint64]string{}
	for ver, e := range engines {
		rows, cite := citeJSON(t, e, q)
		if rows != want[ver] {
			t.Fatalf("version %d: %d rows, want %d", ver, rows, want[ver])
		}
		baseline[ver] = cite
	}

	// The store keeps evolving after the epochs were pinned.
	for i := 0; i < 3; i++ {
		insert("Family", fmt.Sprint(100+i), "Later", "gpcr")
		insert("FamilyIntro", fmt.Sprint(100+i), "later-intro")
		commit("")
	}

	for ver, e := range engines {
		if err := e.Reset(); err != nil { // a new epoch of a pinned source reads the same version
			t.Fatal(err)
		}
		rows, cite := citeJSON(t, e, q)
		if rows != want[ver] || cite != baseline[ver] {
			t.Fatalf("version %d drifted after later commits: %d rows", ver, rows)
		}
	}
}

// TestResetAllocsDoNotGrowWithInstance: Reset takes a copy-on-write snapshot
// and an empty plan cache — no tuple is read or copied — so what it
// allocates is the same for a thousand tuples and for a hundred thousand.
func TestResetAllocsDoNotGrowWithInstance(t *testing.T) {
	views := oracleWorldViews(t)
	instance := func(n int) *storage.DB {
		db := storage.NewDB(oracleSchema())
		for i := 0; i < n/2; i++ {
			db.MustInsert("R", strconv.Itoa(i), strconv.Itoa(i%7))
			db.MustInsert("S", strconv.Itoa(i), strconv.Itoa(i%5))
		}
		return db
	}
	engines := map[string]func(*storage.DB) (*core.Engine, error){
		"mem": func(db *storage.DB) (*core.Engine, error) {
			return core.NewEngine(core.DBSource{DB: db}, views, core.DefaultPolicy())
		},
		"shards=4": func(db *storage.DB) (*core.Engine, error) {
			sdb, err := shard.FromDB(db, 4)
			if err != nil {
				return nil, err
			}
			return core.NewEngine(core.ShardSource{DB: sdb}, views, core.DefaultPolicy())
		},
	}
	for name, build := range engines {
		t.Run(name, func(t *testing.T) {
			allocs := func(n int) float64 {
				e, err := build(instance(n))
				if err != nil {
					t.Fatal(err)
				}
				return testing.AllocsPerRun(10, func() {
					if err := e.Reset(); err != nil {
						t.Fatal(err)
					}
				})
			}
			small, large := allocs(1_000), allocs(100_000)
			if large > small {
				t.Fatalf("Reset allocates %.0f objects over 1k tuples and %.0f over 100k: it must not grow with the instance", small, large)
			}
		})
	}
}

// TestResetAllocsDoNotGrowWithCachedTokens: Reset leaves the token cache as
// it is — no purge, no walk over the entries — so what it allocates is the
// same with five cached tokens and with five hundred, over an in-memory
// database and over the head of a persistent backend, whose tokens outlive
// it.
func TestResetAllocsDoNotGrowWithCachedTokens(t *testing.T) {
	views := oracleWorldViews(t)
	const q = `Q(A) :- R(A, B)` // a VE token per value of R.a
	load := func(insert func(rel string, vals ...string) error, n int) {
		for i := 0; i < n; i++ {
			if err := insert("R", strconv.Itoa(i), strconv.Itoa(i%7)); err != nil {
				t.Fatal(err)
			}
		}
	}
	engines := map[string]func(n int) core.SnapshotSource{
		"mem": func(n int) core.SnapshotSource {
			db := storage.NewDB(oracleSchema())
			load(db.Insert, n)
			return core.DBSource{DB: db}
		},
		"lsm": func(n int) core.SnapshotSource {
			b, err := backend.OpenLSM(t.TempDir(), oracleSchema(), lsm.Options{DisableBackgroundCompaction: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { b.Close() })
			load(b.Insert, n)
			return backend.Head(b)
		},
	}
	for name, source := range engines {
		t.Run(name, func(t *testing.T) {
			allocs := func(tokens int) float64 {
				e, err := core.NewEngine(source(tokens), views, core.DefaultPolicy())
				if err != nil {
					t.Fatal(err)
				}
				citeJSON(t, e, q)
				if n := e.TokenCacheStats().Misses; n < uint64(tokens) {
					t.Fatalf("%d tokens rendered, want ≥ %d cached", n, tokens)
				}
				return testing.AllocsPerRun(10, func() {
					if err := e.Reset(); err != nil {
						t.Fatal(err)
					}
				})
			}
			few, many := allocs(5), allocs(500)
			if many > few {
				t.Fatalf("Reset allocates %.0f objects with 5 cached tokens and %.0f with 500: it must not grow with the cache", few, many)
			}
		})
	}
}

// gatedSource is a SnapshotSource over a live database whose snapshots can
// stall the reads of one relation: after close(pass), the next pass reads of
// it go through and every later one blocks, announcing itself on entered
// with its goroutine's stack, until open.
type gatedSource struct {
	db  *storage.DB
	rel string

	mu      sync.Mutex
	pass    int
	gate    chan struct{} // nil: open
	entered chan string
}

func newGatedSource(db *storage.DB, rel string) *gatedSource {
	// One slot is enough: the tests wait for the first blocked read only.
	return &gatedSource{db: db, rel: rel, entered: make(chan string, 1)}
}

func (g *gatedSource) close(pass int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.pass, g.gate = pass, make(chan struct{})
}

func (g *gatedSource) open() {
	g.mu.Lock()
	defer g.mu.Unlock()
	close(g.gate)
	g.gate = nil
}

func (g *gatedSource) read() {
	g.mu.Lock()
	gate := g.gate
	if gate != nil && g.pass > 0 {
		g.pass--
		gate = nil
	}
	g.mu.Unlock()
	if gate == nil {
		return
	}
	select {
	case g.entered <- string(debug.Stack()):
	default:
	}
	<-gate
}

// awaitStalled returns once a read is blocked at the gate, with the stack of
// the goroutine that made it.
func (g *gatedSource) awaitStalled(t *testing.T) string {
	t.Helper()
	select {
	case stack := <-g.entered:
		return stack
	case <-time.After(20 * time.Second):
		t.Fatal("no read reached the closed gate")
		return ""
	}
}

// stalledIn fails the test unless the stalled read's stack passes through
// the engine's function fn.
func stalledIn(t *testing.T, stack, fn string) {
	t.Helper()
	if !strings.Contains(stack, "core.(*Engine)."+fn+"(") && !strings.Contains(stack, "core.(*CitationView)."+fn+"(") {
		t.Fatalf("the read stalled outside %s:\n%s", fn, stack)
	}
}

func (g *gatedSource) Schema() *storage.Schema { return g.db.Schema() }

func (g *gatedSource) Snapshot() (eval.DBView, error) {
	return gatedView{eval.DBViewOf(g.db.Snapshot()), g}, nil
}

type gatedView struct {
	eval.DBView
	g *gatedSource
}

func (v gatedView) Relation(name string) eval.RelView {
	r := v.DBView.Relation(name)
	if r == nil || name != v.g.rel {
		return r
	}
	return gatedRel{r, v.g}
}

type gatedRel struct {
	eval.RelView
	g *gatedSource
}

func (r gatedRel) Scan(fn func(storage.Tuple) bool) {
	r.g.read()
	r.RelView.Scan(fn)
}

func (r gatedRel) Lookup(cols []int, vals []string, fn func(storage.Tuple) bool) {
	r.g.read()
	r.RelView.Lookup(cols, vals, fn)
}

// citeAsync cites src on its own goroutine; the result is the aggregated
// citation's JSON after the row count, or the error.
func citeAsync(t *testing.T, e *core.Engine, src string) <-chan string {
	q := mustQuery(t, src)
	out := make(chan string, 1)
	go func() {
		res, err := e.CiteQuery(context.Background(), q, 0, nil)
		if err != nil {
			out <- "error: " + err.Error()
			return
		}
		out <- fmt.Sprintf("%d rows %s", len(res.Tuples), res.Citation.JSON())
	}()
	return out
}

func await(t *testing.T, what string, ch <-chan string) string {
	t.Helper()
	select {
	case s := <-ch:
		return s
	case <-time.After(20 * time.Second):
		t.Fatalf("%s did not finish", what)
		return ""
	}
}

// The gated tests read R through one request and S through another; both
// queries have rewritings (VE, VS), so both evaluate views on first use.
// Under gatedViews the R query has a second one, VN, whose expansion
// R(A, B), R(A, C) is not the query renamed: it is enumerated on its own,
// after the output evaluation's one read of R and before token rendering.
const (
	gatedQuery = `Q(A) :- R(A, B)`
	otherQuery = `Q(A, C) :- S(A, C)`
)

// gatedViews are oracleViews plus VN.
func gatedViews(t *testing.T) []*core.CitationView {
	t.Helper()
	prog, err := datalog.ParseProgram(oracleViews + `
view λA. VN(A) :- R(A, B), R(A, C).
cite VN λA. CVN(A) :- R(A, B).
`)
	if err != nil {
		t.Fatal(err)
	}
	views, err := core.FromProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	return views
}

// TestCiteInFlightAcrossReset: a citation that captured epoch E finishes on
// E — its rewriting evaluation and its token rendering included — although
// Reset published E+1 with new data while it was stalled mid-pipeline.
func TestCiteInFlightAcrossReset(t *testing.T) {
	db := storage.NewDB(oracleSchema())
	db.MustInsert("R", "a", "b")
	db.MustInsert("R", "c", "b")
	src := newGatedSource(db, "R")
	e, err := core.NewEngine(src, gatedViews(t), core.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	before := await(t, "warm cite", citeAsync(t, e, gatedQuery))
	if err := e.Reset(); err != nil { // drop the warm tokens: the stalled cite must render its own
		t.Fatal(err)
	}
	src.close(1) // the output evaluation reads R; VN's evaluation stalls
	inFlight := citeAsync(t, e, gatedQuery)
	stalledIn(t, src.awaitStalled(t), "gatherRewriting")
	db.MustInsert("R", "z", "b")
	if err := e.Reset(); err != nil {
		t.Fatal(err)
	}
	src.open()
	if got := await(t, "in-flight cite", inFlight); got != before {
		t.Fatalf("in-flight cite left its epoch:\n got %s\nwant %s", got, before)
	}
	after := await(t, "cite after Reset", citeAsync(t, e, gatedQuery))
	if after == before {
		t.Fatalf("Reset did not publish the write: %s", after)
	}
}

// TestFirstReadsAfterResetShareNoLock: after Reset, the first citation
// returns the bytes it returned before, and two first citations do not wait
// for one another — one stalled in its output evaluation, in the evaluation
// of a rewriting enumerated on its own (VN: a scan of R and a lookup) or in
// token rendering holds nothing the other needs.
func TestFirstReadsAfterResetShareNoLock(t *testing.T) {
	views := gatedViews(t)
	for _, stage := range []struct {
		name string
		pass int    // reads of R that go through first
		fn   string // where the next one stalls
	}{
		{"output evaluation", 0, "evalOutput"},
		{"rewriting evaluation", 1, "gatherRewriting"},
		{"token rendering", 3, "renderTokenCtx"},
	} {
		t.Run(stage.name, func(t *testing.T) {
			db := storage.NewDB(oracleSchema())
			db.MustInsert("R", "a", "b")
			db.MustInsert("S", "a", "c")
			src := newGatedSource(db, "R")
			e, err := core.NewEngine(src, views, core.DefaultPolicy())
			if err != nil {
				t.Fatal(err)
			}
			wantGated := await(t, "warm cite", citeAsync(t, e, gatedQuery))
			wantOther := await(t, "warm cite", citeAsync(t, e, otherQuery))
			if err := e.Reset(); err != nil {
				t.Fatal(err)
			}
			src.close(stage.pass)
			stalled := citeAsync(t, e, gatedQuery)
			stalledIn(t, src.awaitStalled(t), stage.fn)
			if got := await(t, "the citation beside the stalled one", citeAsync(t, e, otherQuery)); got != wantOther {
				t.Fatalf("first cite after Reset changed:\n got %s\nwant %s", got, wantOther)
			}
			src.open()
			if got := await(t, "the stalled citation", stalled); got != wantGated {
				t.Fatalf("first cite after Reset changed:\n got %s\nwant %s", got, wantGated)
			}
		})
	}
}
