package citare

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"slices"
	"sync"
	"testing"

	"citare/internal/core"
	"citare/internal/cq"
	"citare/internal/format"
	"citare/internal/gtopdb"
	"citare/internal/provenance"
	"citare/internal/rewrite"
	"citare/internal/storage"
)

// wireOracle is the /v1/cite response object as it was made before
// AppendWire: the citation's public accessors into a struct of citesrv's
// citeResponse shape, through encoding/json.
func wireOracle(t testing.TB, ct *Citation) string {
	t.Helper()
	type response struct {
		Columns     []string   `json:"columns"`
		Rows        [][]string `json:"rows"`
		Rewritings  []string   `json:"rewritings"`
		Polynomials []string   `json:"polynomials"`
		Citation    string     `json:"citation"`
		Format      string     `json:"format"`
		Explain     *Explain   `json:"explain,omitempty"`
	}
	rendered, err := ct.Rendered()
	if err != nil {
		t.Fatal(err)
	}
	resp := response{
		Columns:    ct.Columns(),
		Rows:       ct.Rows(),
		Rewritings: ct.Rewritings(),
		Citation:   rendered,
		Format:     ct.Format(),
		Explain:    ct.Explain(),
	}
	for i := 0; i < ct.NumTuples(); i++ {
		p, err := ct.TuplePolynomialAt(i)
		if err != nil {
			t.Fatal(err)
		}
		resp.Polynomials = append(resp.Polynomials, p)
	}
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// assertWire holds AppendWire to the oracle, appending to a non-empty dst.
func assertWire(t testing.TB, what string, ct *Citation) {
	t.Helper()
	got, err := ct.AppendWire([]byte("x"))
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if want := wireOracle(t, ct); string(got[1:]) != want {
		t.Fatalf("%s:\n got %s\nwant %s", what, got[1:], want)
	}
}

var wireFormats = []string{"", "json", "json-compact", "xml", "bibtex", "text", "BibTeX"}

// nastyInstance is the paper instance plus a family whose name holds what
// encoding/json escapes: HTML characters, quotes, a backslash, U+2028, a tab.
func nastyInstance() *storage.DB {
	db := gtopdb.PaperInstance()
	db.MustInsert("Family", "30", `<b>"R&D"</b> caf\u00e9`+"\u2028\t", "gpcr")
	db.MustInsert("FC", "30", "p1")
	db.MustInsert("FamilyIntro", "30", "intro <&> \x01\x7f \xff")
	return db
}

// TestAppendWireMatchesEncodingJSON pins the response encoder to the bytes
// encoding/json made of the same citation: uncached, and served from the
// cache with its bytes memoized — answers with and without tuples, an
// unsatisfiable query, every render format, explain and coverage present.
func TestAppendWireMatchesEncodingJSON(t *testing.T) {
	citer, err := NewFromProgram(nastyInstance(), gtopdb.ViewsProgram, WithNeutralCitation(gtopdb.DatabaseCitation()))
	if err != nil {
		t.Fatal(err)
	}
	cached := NewCached(citer)
	ctx := context.Background()
	for _, q := range []Request{
		{Datalog: `Q(N, Pn) :- Family(F, N, Ty), Ty = "gpcr", FC(F, P), Person(P, Pn, A)`},
		{Datalog: `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)`},
		{SQL: `SELECT f.FName FROM Family f, FamilyIntro i WHERE f.FID = i.FID AND f.Type = 'gpcr'`},
		{Datalog: `Q(N) :- Family(F, N, Ty), F = "no such family"`},       // no tuples: "rows":[] beside "polynomials":null
		{Datalog: `Q(N) :- Family(F, N, Ty), Ty = "a", Ty = "b"`},         // unsatisfiable: "columns":null
		{Datalog: `Q("<k>", N) :- Family(F, N, Ty), Ty = "gpcr"`},         // a constant column label
		{Datalog: `Q(N) :- Family(F, N, Ty), Ty = "gpcr"`, Explain: true}, // "explain" present
	} {
		for _, f := range wireFormats {
			req := q
			req.Format = f
			ct, err := citer.Cite(ctx, req)
			if err != nil {
				t.Fatalf("%+v: %v", req, err)
			}
			assertWire(t, "uncached", ct)
			if req.Explain {
				continue // bypasses the cache
			}
			for i, what := range []string{"miss", "first hit", "second hit"} {
				ct, err := cached.Cite(ctx, req)
				if err != nil {
					t.Fatalf("%+v: %v", req, err)
				}
				if memoized := ct.wire != nil && ct.wire.hit.Load(); ct.NumTuples() > 0 && memoized != (i > 0 || f != "") {
					// Only the very first request of a query is a miss; the
					// other formats hit its entry.
					t.Fatalf("%+v, %s: memoized = %v", req, what, memoized)
				}
				assertWire(t, what, ct)
			}
		}
	}
	if builds, n := cached.WireStats(); builds == 0 || n == 0 {
		t.Fatalf("no memo was built: %d builds, %d bytes", builds, n)
	}
}

// fuzzCitation builds a citation whose every string — column labels, tuple
// values, a rewriting, the polynomials' parameters, the citation record's
// keys and values — comes from the fuzzer.
func fuzzCitation(s, k string, n uint8) *Citation {
	res := core.NewResult([]*rewrite.Rewriting{{Query: &cq.Query{Name: k}, Head: []cq.Term{{IsConst: true, Value: s}, {Name: k}}}})
	res.Citation = format.O(format.NewObject().
		Set(k, format.S(s)).
		Set("list", format.L(format.S(s), format.O(format.NewObject().Set(s, format.L())))).
		Set("empty", format.O(format.NewObject())))
	if n&1 != 0 {
		res.Columns = []string{k, s}
	}
	for i := 0; i < int(n>>4); i++ {
		tc := core.TupleCitation{Combined: provenance.PolyFromMonomial(provenance.NewMonomial(
			core.NewViewToken("V", s).Encode(), core.NewViewToken("W", k, s).Encode()))}
		if i%3 != 2 { // every third tuple has no columns, as a boolean query's
			tc.Tuple = storage.Tuple{s, k, "plain"}
		}
		res.Tuples = append(res.Tuples, tc)
	}
	ct := &Citation{res: res, format: wireFormats[int(n>>1)%len(wireFormats)]}
	if n&2 != 0 {
		ct.explain = &Explain{Stages: []*ExplainStage{{Name: s, DurationNs: int64(n), Attrs: map[string]any{k: s, "n": int64(n)}}}}
	}
	return ct
}

// FuzzCiteResponse holds the appended response object to encoding/json for
// arbitrary strings — <, >, &, quotes, backslashes, control bytes,
// U+2028/2029, bytes that are not UTF-8 — built directly and from the memo,
// which must hand every request its own columns and format.
func FuzzCiteResponse(f *testing.F) {
	for i, s := range []string{
		"", "plain", `q"uo\te`, "<script>&amp;</script>", "line\nbreak\ttab\r", "\x00\x01\a\b\f\v\x1f\x7f",
		"\xff\xfe invalid", "caf\u00e9 \u00b7 \u2028\u2029", "\U0001F600 \U000E0001", "\u0080\ufeff\xc0\xaf",
	} {
		f.Add(s, "Key", uint8(16*i+i))
		f.Add("v", s, uint8(255-i))
	}
	f.Fuzz(func(t *testing.T, s, k string, n uint8) {
		ct := fuzzCitation(s, k, n)
		assertWire(t, "direct", ct)

		ct.wire = &wireMemo{stats: new(wireStats)}
		ct.wire.markHit()
		assertWire(t, "memo, built", ct)
		assertWire(t, "memo, copied", ct)
		own := *ct // another request's view of the same cached citation
		own.columns, own.format = []string{s}, "xml"
		assertWire(t, "memo, other request", &own)
		if builds := ct.wire.stats.builds.Load(); builds != 1 {
			t.Fatalf("memo built %d times", builds)
		}
	})
}

// TestSharedEntryConcurrentResponses: a datalog query, its SQL twin with
// other column names and two render formats all read one cached citation at
// once. Every response must carry its own request's columns and format around
// the shared rest, and the shared bytes are built once — the answer's part
// once, the citation string once per format. Runs under -race.
func TestSharedEntryConcurrentResponses(t *testing.T) {
	citer, err := NewFromProgram(nastyInstance(), gtopdb.ViewsProgram, WithNeutralCitation(gtopdb.DatabaseCitation()))
	if err != nil {
		t.Fatal(err)
	}
	plain := []Request{
		{Datalog: `Q(Name) :- Family(F, Name, Ty), Ty = "gpcr", FamilyIntro(F, Tx)`},
		{SQL: "SELECT f.FName FROM Family f, FamilyIntro i WHERE f.FID = i.FID AND f.Type = 'gpcr'", Format: "bibtex"},
		{Datalog: `Q(Name) :- Family(F, Name, Ty), Ty = "gpcr", FamilyIntro(F, Tx)`, Format: "bibtex"},
		{SQL: "SELECT f.FName FROM Family f, FamilyIntro i WHERE f.FID = i.FID AND f.Type = 'gpcr'"},
	}
	// What each request must receive: the answer, rewritings and polynomials
	// of the entry's first request (a reference cache filled in the same
	// order, read through the accessors), under its own columns and format.
	ref := NewCached(citer)
	want := make([]string, len(plain))
	for i, req := range plain {
		own, err := citer.Cite(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := ref.Cite(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ct.Columns(), own.Columns()) || ct.Format() != own.Format() {
			t.Fatalf("request %d served as %v/%s, want its own %v/%s", i, ct.Columns(), ct.Format(), own.Columns(), own.Format())
		}
		want[i] = wireOracle(t, ct)
	}
	if want[0] == want[3] || want[0] == want[2] {
		t.Fatal("the requests should differ in columns and in format")
	}

	cached := NewCached(citer)
	if _, err := cached.Cite(context.Background(), plain[0]); err != nil { // the entry all of them hit
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				i := (g + round) % len(plain)
				ct, err := cached.Cite(context.Background(), plain[i])
				if err != nil {
					t.Error(err)
					return
				}
				got, err := ct.AppendWire(nil)
				if err != nil || string(got) != want[i] {
					t.Errorf("request %d: %v\n got %s\nwant %s", i, err, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	if misses := cached.CacheStats().Misses; misses != 1 {
		t.Fatalf("%d cache misses, want the one entry", misses)
	}
	ct, err := cached.Cite(context.Background(), plain[0])
	if err != nil {
		t.Fatal(err)
	}
	m := ct.wire
	if len(m.citations) != 2 {
		t.Fatalf("memo holds %d citation strings, want one per format asked for (2)", len(m.citations))
	}
	kept := len(m.answer) + len(m.citations[0].json) + len(m.citations[1].json)
	if builds, n := cached.WireStats(); builds != 1 || int(n) != kept {
		t.Fatalf("memo: %d builds, %d bytes counted, want 1 build and the %d bytes it holds", builds, n, kept)
	}
	if !bytes.Contains(m.answer, []byte(`"rewritings":[`)) {
		t.Fatalf("memoized answer part: %s", m.answer)
	}
}

// TestSharedEntryConcurrentStreams: many goroutines stream and cite one cached
// citation at once — a datalog query and its SQL twin — from the very first
// replay on, so the text forms of its per-tuple citations (made on demand,
// once per distinct citation) are made under contention. Every stream must
// deliver the cold stream's lines. Runs under -race: with a bare nil check in
// sharedCitation.encode this is a data race.
func TestSharedEntryConcurrentStreams(t *testing.T) {
	citer, err := NewFromProgram(nastyInstance(), gtopdb.ViewsProgram, WithNeutralCitation(gtopdb.DatabaseCitation()))
	if err != nil {
		t.Fatal(err)
	}
	reqs := []Request{
		{Datalog: `Q(Name, Pn) :- Family(F, Name, Ty), FC(F, P), Person(P, Pn, A)`},
		{SQL: "SELECT f.FName, p.PName FROM Family f, FC c, Person p WHERE f.FID = c.FID AND c.PID = p.PID", Format: "bibtex"},
	}
	want, _, err := collectStream(citer.CiteEach, reqs[0])
	if err != nil || len(want) < 8 {
		t.Fatalf("cold stream: %d lines, %v", len(want), err)
	}
	cached := NewCached(citer)
	first, err := cached.Cite(context.Background(), reqs[0]) // the entry all of them read
	if err != nil {
		t.Fatal(err)
	}
	wantBody := wireOracle(t, first)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				req := reqs[(g+round)%len(reqs)]
				got, evaluated, err := collectStream(cached.CiteEach, req)
				if err == nil && evaluated {
					err = errors.New("the stream was evaluated, not replayed")
				}
				if err == nil {
					err = sameLines(got, want)
				}
				if err != nil {
					t.Errorf("goroutine %d, round %d: %v", g, round, err)
					return
				}
				ct, err := cached.Cite(context.Background(), reqs[0])
				if err != nil {
					t.Error(err)
					return
				}
				if body, err := ct.AppendWire(nil); err != nil || string(body) != wantBody {
					t.Errorf("goroutine %d, round %d: response beside the streams: %v\n got %s\nwant %s", g, round, err, body, wantBody)
					return
				}
			}
		}()
	}
	wg.Wait()
	if misses := cached.CacheStats().Misses; misses != 1 {
		t.Fatalf("%d cache misses, want the one entry", misses)
	}
}
