package core_test

// Delta-maintained tokens: over a persistent backend the engine's token cache
// outlives Reset, and a later snapshot brings a cached token forward — kept
// when nothing its citation query reads moved, extended by the delta rule
// when rows were only inserted, rendered afresh after a delete. These tests
// hold the tokens a head citation uses against a naive reference written
// from Definition 2.1 and against a cold engine pinned to the same version.

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"

	"citare/internal/backend"
	"citare/internal/citegraph"
	"citare/internal/core"
	"citare/internal/cq"
	"citare/internal/eval"
	"citare/internal/format"
	"citare/internal/gtopdb"
	"citare/internal/lsm"
	"citare/internal/provenance"
	"citare/internal/storage"
)

// naiveToken renders a view token as Definition 2.1 states it, with no plan,
// cache, index or delta: C_V instantiated at the token's λ-values is
// evaluated by nested loops over the rows each relation's Scan returns at
// the view's version, a column per variable and λ-parameter; the rows are
// put in citation order (format.Rows.Sort by the instantiated head) and F_V
// is applied.
func naiveToken(view eval.DBView, v *core.CitationView, tok core.Token) (string, error) {
	obj, err := naiveRecord(view, v, tok)
	if err != nil {
		return "", err
	}
	return obj.JSON(), nil
}

// naiveRecord is naiveToken's record before it is spelled.
func naiveRecord(view eval.DBView, v *core.CitationView, tok core.Token) (*format.Object, error) {
	q, err := v.InstantiatedCiteQ(tok.Params)
	if err != nil {
		return nil, err
	}
	var cols []string
	for _, a := range q.Atoms {
		for _, t := range a.Args {
			if t.IsVar() && !slices.Contains(cols, t.Name) {
				cols = append(cols, t.Name)
			}
		}
	}
	vars := len(cols)
	for _, p := range v.CiteQ.Params {
		if !slices.Contains(cols, p) {
			cols = append(cols, p)
		}
	}
	scans := make([][]storage.Tuple, len(q.Atoms))
	for i, a := range q.Atoms {
		view.Relation(a.Pred).Scan(func(t storage.Tuple) bool { scans[i] = append(scans[i], t); return true })
	}
	rows := format.NewRows(cols...)
	binding := map[string]string{}
	value := func(t cq.Term) string {
		if t.IsConst {
			return t.Value
		}
		return binding[t.Name]
	}
	var walk func(i int)
	walk = func(i int) {
		if i == len(q.Atoms) {
			for _, c := range q.Comps {
				if !cq.CompareValues(value(c.L), c.Op, value(c.R)) {
					return
				}
			}
			row := make([]string, len(cols))
			for j, name := range cols[:vars] {
				row[j] = binding[name]
			}
			for j, p := range v.CiteQ.Params {
				if k := slices.Index(cols, p); k >= vars {
					row[k] = tok.Params[j]
				}
			}
			rows.Append(row...)
			return
		}
		for _, t := range scans[i] {
			var bound []string
			ok := true
			for j, arg := range q.Atoms[i].Args {
				if _, has := binding[arg.Name]; arg.IsConst || has {
					ok = ok && t[j] == value(arg)
					continue
				}
				binding[arg.Name] = t[j]
				bound = append(bound, arg.Name)
			}
			if ok {
				walk(i + 1)
			}
			for _, name := range bound {
				delete(binding, name)
			}
		}
	}
	walk(0)
	lead := make([]format.KeyPart, len(q.Head))
	for i, t := range q.Head {
		lead[i] = format.KeyPart{Col: -1, Lit: t.Value}
		if t.IsVar() {
			lead[i].Col = rows.Col(t.Name)
		}
	}
	rows.Sort(lead)
	if v.Fn != nil {
		return v.Fn(rows)
	}
	return v.Spec.Render(rows)
}

// deltaWorld is a schema with its views, the queries whose head citations
// the property reads, and a generator of the tuples a history writes: few
// keys per relation, so writes join into the tokens already cached. A keyed
// relation's other values are a function of its key, so re-inserting a live
// tuple is a no-op, never a key clash.
type deltaWorld struct {
	name    string
	schema  *storage.Schema
	views   []*core.CitationView
	queries []string
	tuple   func(r *rand.Rand) (rel string, vals []string)
}

func deltaWorlds() []deltaWorld {
	id := func(prefix string, i int) string { return prefix + strconv.Itoa(i) }
	return []deltaWorld{{
		name:   "citegraph",
		schema: citegraph.Schema(citegraph.ScaleSmall()),
		views:  citegraph.MustViews(),
		queries: []string{
			`Q(W, T, Y) :- Work(W, T, V, Y)`,
			`Q(G, C) :- Cites(G, C)`,
			`Q(A, T) :- Wrote(A, W), Work(W, T, V, Y)`,
			`Q(Pn, T) :- Author(A, Pn, Af), Wrote(A, W), Cites(W, C), Work(C, T, V, Y)`,
			`Q(Vn, T) :- Venue(V, Vn, Fd), Work(W, T, V, Y)`,
		},
		tuple: func(r *rand.Rand) (string, []string) {
			w, a, v := r.Intn(8), r.Intn(5), r.Intn(3)
			switch r.Intn(8) {
			case 0, 1:
				return "Work", []string{id("W", w), id("T", w), id("V", w%3), id("200", w%2)}
			case 2:
				return "Author", []string{id("A", a), id("N", a), id("I", a%2)}
			case 3:
				return "Venue", []string{id("V", v), id("Vn", v), id("F", v%2)}
			case 4, 5:
				return "Wrote", []string{id("A", a), id("W", w)}
			default:
				return "Cites", []string{id("W", w), id("W", r.Intn(8))}
			}
		},
	}, {
		name:   "gtopdb",
		schema: gtopdb.Schema(),
		views:  gtopdb.MustPaperViews(),
		queries: []string{
			`Q(F, N, Ty) :- Family(F, N, Ty)`,
			`Q(F, Tx) :- FamilyIntro(F, Tx)`,
			`Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)`,
		},
		tuple: func(r *rand.Rand) (string, []string) {
			f, p := r.Intn(6), r.Intn(5)
			switch r.Intn(8) {
			case 0:
				return "Family", []string{id("", f), id("Fam", f), []string{"gpcr", "lgic"}[f%2]}
			case 1:
				return "FamilyIntro", []string{id("", f), id("Intro", f)}
			case 2:
				return "Person", []string{id("P", p), id("Name", p), "Aff"}
			case 3, 4:
				return "FC", []string{id("", f), id("P", p)}
			case 5, 6:
				return "FIC", []string{id("", f), id("P", p)}
			default:
				kind := []string{"Owner", "URL"}[r.Intn(2)]
				return "MetaData", []string{kind, kind + "-value"}
			}
		},
	}}
}

// citationTokens lists the distinct tokens of a result's per-rewriting
// polynomials.
func citationTokens(res *core.Result) []provenance.Token {
	seen := map[provenance.Token]bool{}
	for _, tc := range res.Tuples {
		for _, rc := range tc.PerRewriting {
			for _, term := range rc.Poly.Terms() {
				for _, pt := range term.Mono.Support() {
					seen[pt] = true
				}
			}
		}
	}
	return slices.Sorted(maps.Keys(seen))
}

// TestDeltaTokensProperty drives seeded random histories of inserts,
// deletes, commits and flushes through an LSM store, on the citegraph views
// and the paper's views. After a commit the head engine is Reset and cites
// every query of its world — bringing its cached tokens forward across one
// commit or several — and then every citation must equal a cold engine's at
// that version, and every token a citation uses must equal, byte for byte,
// the cold engine's record and the naive reference's.
func TestDeltaTokensProperty(t *testing.T) {
	seeds := int64(12)
	if testing.Short() {
		seeds = 4
	}
	for _, w := range deltaWorlds() {
		t.Run(w.name, func(t *testing.T) {
			var forwarded, applied uint64
			for seed := int64(1); seed <= seeds; seed++ {
				st := runDeltaHistory(t, w, seed)
				forwarded += st.Revalidated
				applied += st.DeltaApplied
			}
			// The property is only as strong as the paths it took.
			if forwarded == applied || applied == 0 {
				t.Fatalf("histories brought %d tokens forward, %d by the delta rule: both paths must be taken", forwarded, applied)
			}
			t.Logf("%d seeds: %d tokens brought forward, %d of them by the delta rule", seeds, forwarded, applied)
		})
	}
}

// runDeltaHistory runs one history and returns the head engine's token
// cache counters.
func runDeltaHistory(t *testing.T, w deltaWorld, seed int64) core.TokenCacheStats {
	t.Helper()
	b, err := backend.OpenLSM(t.TempDir(), w.schema, lsm.Options{DisableBackgroundCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	head, err := core.NewEngine(backend.Head(b), w.views, core.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	var queries []*cq.Query
	for _, src := range w.queries {
		queries = append(queries, mustQuery(t, src))
	}
	r := rand.New(rand.NewSource(seed))
	live := map[string]storage.Tuple{} // the live tuples written, relation first
	for commit := 0; commit < 10; commit++ {
		for n := 1 + r.Intn(10); n > 0; n-- {
			if r.Intn(8) == 0 && len(live) > 0 {
				keys := slices.Sorted(maps.Keys(live))
				k := keys[r.Intn(len(keys))]
				if _, err := b.Delete(live[k][0], live[k][1:]...); err != nil {
					t.Fatal(err)
				}
				delete(live, k)
				continue
			}
			rel, vals := w.tuple(r)
			if err := b.Insert(rel, vals...); err != nil {
				t.Fatal(err)
			}
			tu := append(storage.Tuple{rel}, vals...)
			live[tu.Key()] = tu
		}
		if r.Intn(4) == 0 {
			if err := b.Store().Flush(); err != nil {
				t.Fatal(err)
			}
		}
		ver, err := b.Commit("")
		if err != nil {
			t.Fatal(err)
		}
		if err := head.Reset(); err != nil {
			t.Fatal(err)
		}
		if r.Intn(4) == 0 {
			continue // the next check brings tokens forward across two commits
		}
		checkDeltaTokens(t, fmt.Sprintf("seed %d version %d", seed, ver), b, w, head, ver, queries)
	}
	return head.TokenCacheStats()
}

// checkDeltaTokens holds the head engine at a just-committed version against
// a cold engine pinned to it and against the naive reference.
func checkDeltaTokens(t *testing.T, stage string, b *backend.LSM, w deltaWorld, head *core.Engine, ver uint64, queries []*cq.Query) {
	t.Helper()
	cold, err := core.NewEngine(backend.At(b, ver), w.views, core.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	view, err := b.AsOf(ver)
	if err != nil {
		t.Fatal(err)
	}
	defer view.Release()
	byName := map[string]*core.CitationView{}
	for _, v := range w.views {
		byName[v.Name()] = v
	}
	seen := map[provenance.Token]bool{}
	for i, q := range queries {
		warm, err := head.Cite(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cold.Cite(q)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := warm.Citation.JSON(), want.Citation.JSON(); got != want {
			t.Fatalf("%s: %s: citation\n got %s\nwant %s (cold engine)", stage, w.queries[i], got, want)
		}
		for _, pt := range citationTokens(warm) {
			if seen[pt] {
				continue
			}
			seen[pt] = true
			got, err := head.TokenRecord(pt)
			if err != nil {
				t.Fatal(err)
			}
			coldObj, err := cold.TokenRecord(pt)
			if err != nil {
				t.Fatal(err)
			}
			if got.JSON() != coldObj.JSON() {
				t.Fatalf("%s: token %s\n got %s\nwant %s (cold engine)", stage, pt, got.JSON(), coldObj.JSON())
			}
			tok, err := core.DecodeToken(pt)
			if err != nil || tok.Kind != core.ViewToken {
				continue
			}
			naive, err := naiveToken(view, byName[tok.Name], tok)
			if err != nil {
				t.Fatal(err)
			}
			if got.JSON() != naive {
				t.Fatalf("%s: token %s\n got %s\nwant %s (naive reference)", stage, pt, got.JSON(), naive)
			}
		}
	}
}

// paperStore opens an LSM store holding the paper's instance, committed as
// version 1.
func paperStore(t *testing.T) *backend.LSM {
	t.Helper()
	b, err := backend.OpenLSM(t.TempDir(), gtopdb.Schema(), lsm.Options{DisableBackgroundCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	db := gtopdb.PaperInstance()
	for _, rs := range db.Schema().Relations() {
		for _, tu := range db.Relation(rs.Name).Tuples() {
			if err := b.Insert(rs.Name, tu...); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := b.Commit("paper"); err != nil {
		t.Fatal(err)
	}
	return b
}

// insertAll writes tuples given relation first.
func insertAll(t *testing.T, b backend.Backend, tuples ...[]string) {
	t.Helper()
	for _, tu := range tuples {
		if err := b.Insert(tu[0], tu[1:]...); err != nil {
			t.Fatal(err)
		}
	}
}

// committeeQuery's citation reads every family's committee: its V1 and V4
// tokens join Family, FC and Person.
const committeeQuery = `Q(N, Pn) :- Family(F, N, Ty), FC(F, P), Person(P, Pn, A)`

// TestPinnedEngineSeesNoHeadDeltas: an engine pinned to a committed version
// keeps citing it, byte for byte, across commits that change the tokens it
// holds and across its own Resets — and never brings a token forward, while
// the head engine beside it does.
func TestPinnedEngineSeesNoHeadDeltas(t *testing.T) {
	b := paperStore(t)
	views := gtopdb.MustPaperViews()
	pinned, err := core.NewEngine(backend.At(b, 1), views, core.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	head, err := core.NewEngine(backend.Head(b), views, core.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	_, before := citeJSON(t, pinned, committeeQuery)
	_, headBefore := citeJSON(t, head, committeeQuery)
	for i := 0; i < 3; i++ {
		pid := "900" + strconv.Itoa(i)
		insertAll(t, b, []string{"Person", pid, "Later " + pid, "Somewhere"}, []string{"FC", "11", pid})
		if _, err := b.Commit(""); err != nil {
			t.Fatal(err)
		}
		for _, e := range []*core.Engine{pinned, head} {
			if err := e.Reset(); err != nil {
				t.Fatal(err)
			}
		}
		if _, got := citeJSON(t, pinned, committeeQuery); got != before {
			t.Fatalf("commit %d: the pinned engine's citation moved:\n got %s\nwant %s", i, got, before)
		}
		citeJSON(t, head, committeeQuery)
	}
	if st := pinned.TokenCacheStats(); st.Revalidated != 0 || st.DeltaApplied != 0 {
		t.Fatalf("the pinned engine brought tokens forward: %+v", st)
	}
	if _, got := citeJSON(t, head, committeeQuery); got == headBefore {
		t.Fatal("the head citation did not see the commits")
	}
	if st := head.TokenCacheStats(); st.DeltaApplied == 0 {
		t.Fatalf("the head engine applied no delta: %+v", st)
	}
}

// firstGated is the head source of a backend whose first snapshot — the one
// the engine takes at construction — reads one relation through a gate.
type firstGated struct {
	backend.Source
	g     *gatedSource
	mu    sync.Mutex
	taken int
}

func (s *firstGated) Snapshot() (eval.DBView, error) {
	v, err := s.Source.Snapshot()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.taken++; s.taken == 1 {
		return gatedView{v, s.g}, nil
	}
	return v, nil
}

func (s *firstGated) Position(v eval.DBView) (uint64, bool) {
	if gv, ok := v.(gatedView); ok {
		v = gv.DBView
	}
	return s.Source.Position(v)
}

// TestLateRenderKeepsNewerEntry: a token render at an older snapshot that
// finishes after a newer snapshot's render of the same token must not
// replace its entry. The late citation is its own version's, and the newer
// entry goes on serving the newer snapshot as a plain hit.
func TestLateRenderKeepsNewerEntry(t *testing.T) {
	b := paperStore(t)
	views := gtopdb.MustPaperViews()
	const q = `Q(F, N, Ty) :- Family(F, N, Ty), F = "11"` // the query and its rewritings read Family only
	g := newGatedSource(nil, "Person")
	g.close(0)
	e, err := core.NewEngine(&firstGated{Source: backend.Head(b), g: g}, views, core.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	late := citeAsync(t, e, q)
	g.awaitStalled(t) // rendering a committee token at version 1

	insertAll(t, b, []string{"Person", "9001", "Late", "Somewhere"}, []string{"FC", "11", "9001"})
	if _, err := b.Commit(""); err != nil {
		t.Fatal(err)
	}
	if err := e.Reset(); err != nil {
		t.Fatal(err)
	}
	newer := await(t, "cite at version 2", citeAsync(t, e, q))
	g.open()
	cold := func(ver uint64) string {
		c, err := core.NewEngine(backend.At(b, ver), views, core.DefaultPolicy())
		if err != nil {
			t.Fatal(err)
		}
		return await(t, "cold cite", citeAsync(t, c, q))
	}
	if got, want := await(t, "the stalled cite", late), cold(1); got != want {
		t.Fatalf("the stalled cite left version 1:\n got %s\nwant %s", got, want)
	}
	if want := cold(2); newer != want {
		t.Fatalf("cite at version 2:\n got %s\nwant %s", newer, want)
	}
	st := e.TokenCacheStats()
	if got := await(t, "cite after the late render", citeAsync(t, e, q)); got != newer {
		t.Fatalf("cite after the late render:\n got %s\nwant %s", got, newer)
	}
	if after := e.TokenCacheStats(); after.Misses != st.Misses || after.Revalidated != st.Revalidated {
		t.Fatalf("the late render replaced a newer entry: token cache %+v → %+v", st, after)
	}
}

// TestCiteRacingResetServesOneSnapshot: citations running while a writer
// commits and Resets over and over each read one snapshot — every citation
// is some committed version's, never a mix of tokens from two.
func TestCiteRacingResetServesOneSnapshot(t *testing.T) {
	b := paperStore(t)
	views := gtopdb.MustPaperViews()
	e, err := core.NewEngine(backend.Head(b), views, core.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	q := mustQuery(t, committeeQuery)
	done := make(chan struct{})
	var mu sync.Mutex
	var seen []string
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				res, err := e.Cite(q)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				seen = append(seen, res.Citation.JSON())
				mu.Unlock()
			}
		}()
	}
	versions := []uint64{1}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 24; i++ {
		pid, fam := "800"+strconv.Itoa(i), []string{"11", "12", "13", "14"}[r.Intn(4)]
		insertAll(t, b, []string{"Person", pid, "Racer " + pid, "Here"}, []string{"FC", fam, pid})
		if i%5 == 4 { // a delete: the next snapshot renders afresh
			if _, err := b.Delete("FC", fam, pid); err != nil {
				t.Fatal(err)
			}
		}
		ver, err := b.Commit("")
		if err != nil {
			t.Fatal(err)
		}
		versions = append(versions, ver)
		if err := e.Reset(); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	want := map[string]bool{}
	for _, ver := range versions {
		c, err := core.NewEngine(backend.At(b, ver), views, core.DefaultPolicy())
		if err != nil {
			t.Fatal(err)
		}
		_, cite := citeJSON(t, c, committeeQuery)
		want[cite] = true
	}
	if len(seen) == 0 {
		t.Fatal("no citation ran beside the writer")
	}
	for _, got := range seen {
		if !want[got] {
			t.Fatalf("a citation racing Reset is no committed version's:\n%s", got)
		}
	}
}
