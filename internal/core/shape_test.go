package core_test

// The binding contract of the shape-keyed plan caches: a citation served by
// binding a plan compiled for *other* constants is, byte for byte, the
// citation a fresh engine computes by compiling the query directly.

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"citare/internal/core"
	"citare/internal/cq"
	"citare/internal/datalog"
	"citare/internal/format"
	"citare/internal/gtopdb"
	"citare/internal/storage"
)

// fingerprint spells everything of a citation outcome the binding contract
// covers: the minimized query's key, the column labels, the rewritings in
// order, every tuple with its polynomial and record, and the aggregated
// citation in the spaced, indented and wire spellings.
func fingerprint(res *core.Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "min %q\ncolumns %q\n", res.Query().Key(), res.Columns)
	for _, r := range res.BoundRewritings() {
		fmt.Fprintf(&sb, "rewriting %s\n", r)
	}
	for _, tc := range res.Tuples {
		fmt.Fprintf(&sb, "tuple %q %s %s\n", []string(tc.Tuple), core.PolyString(tc.Combined), tc.Rendered.JSON())
	}
	for _, spelling := range []int{format.Spaced, 2, format.Wire} {
		sb.Write(format.AppendJSON(nil, res.Citation, spelling))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// world is one random instance: a schema, data, citation views.
type world struct {
	db    *storage.DB
	views []*core.CitationView
	arity map[string]int
	rels  []string
}

// valuePool is what data cells and query constants are drawn from: short
// words, numbers (the comparisons order numerically when both sides parse),
// the constant the generated views mention, and strings that spell the
// shape key's own framing.
var valuePool = []string{"a", "b", "c", "1", "2", "3", "10", "k", "p0", "p0,", "c1:a", "v1:X", "0"}

func (w *world) engine(t testing.TB, pol core.Policy) *core.Engine {
	t.Helper()
	e, err := core.NewEngine(core.DBSource{DB: w.db}, w.views, pol)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func randomWorld(t testing.TB, r *rand.Rand) *world {
	t.Helper()
	w := &world{arity: map[string]int{}}
	schema := storage.NewSchema()
	for i := 0; i < 2+r.Intn(2); i++ {
		name := "R" + strconv.Itoa(i)
		ar := 2 + r.Intn(2)
		cols := make([]storage.Column, ar)
		for c := range cols {
			cols[c] = storage.Column{Name: "c" + strconv.Itoa(c)}
		}
		schema.MustAddRelation(&storage.RelSchema{Name: name, Cols: cols})
		w.arity[name] = ar
		w.rels = append(w.rels, name)
	}
	w.db = storage.NewDB(schema)
	for _, rel := range w.rels {
		for i := 0; i < 12; i++ {
			vals := make([]string, w.arity[rel])
			for c := range vals {
				vals[c] = valuePool[r.Intn(len(valuePool))]
			}
			w.db.MustInsert(rel, vals...)
		}
	}
	// Views: one or two atoms, every variable in the head, sometimes a
	// λ-parameter, sometimes the constant "k" in the body, sometimes an
	// order comparison — the two things that make a query constant literal.
	var prog strings.Builder
	for i := 0; i < 2+r.Intn(3); i++ {
		var atoms, vars []string
		for a := 0; a < 1+r.Intn(2); a++ {
			rel := w.rels[r.Intn(len(w.rels))]
			args := make([]string, w.arity[rel])
			for c := range args {
				switch {
				case r.Intn(8) == 0:
					args[c] = `"k"`
				case len(vars) > 0 && r.Intn(3) == 0:
					args[c] = vars[r.Intn(len(vars))]
				default:
					v := fmt.Sprintf("X%d", len(vars))
					vars = append(vars, v)
					args[c] = v
				}
			}
			atoms = append(atoms, rel+"("+strings.Join(args, ", ")+")")
		}
		if len(vars) == 0 {
			continue
		}
		body := strings.Join(atoms, ", ")
		if r.Intn(6) == 0 {
			body += fmt.Sprintf(", %s < \"3\"", vars[r.Intn(len(vars))])
		}
		lambda := ""
		if r.Intn(2) == 0 {
			lambda = "λ" + vars[0] + ". "
		}
		head := strings.Join(vars, ", ")
		fmt.Fprintf(&prog, "view %sV%d(%s) :- %s.\ncite V%d %sCV%d(%s) :- %s.\n", lambda, i, head, body, i, lambda, i, head, body)
	}
	p, err := datalog.ParseProgram(prog.String())
	if err != nil {
		t.Fatalf("generated views do not parse: %v\n%s", err, prog.String())
	}
	if w.views, err = core.FromProgram(p); err != nil {
		t.Fatalf("generated views: %v\n%s", err, prog.String())
	}
	return w
}

// queryTemplate is a query with numbered holes where constants go.
type queryTemplate struct {
	text  string // datalog with %[n]s verbs for the holes
	holes int
}

func (qt queryTemplate) fill(vals []string) string {
	args := make([]any, len(vals))
	for i, v := range vals {
		args[i] = strconv.Quote(v)
	}
	return fmt.Sprintf(qt.text, args...)
}

func randomTemplate(r *rand.Rand, w *world) queryTemplate {
	var qt queryTemplate
	hole := func() string {
		// Reusing a hole puts one constant in two places.
		if qt.holes > 0 && r.Intn(4) == 0 {
			return fmt.Sprintf("%%[%d]s", 1+r.Intn(qt.holes))
		}
		qt.holes++
		return fmt.Sprintf("%%[%d]s", qt.holes)
	}
	var vars, lits []string
	for a := 0; a < 1+r.Intn(3); a++ {
		rel := w.rels[r.Intn(len(w.rels))]
		args := make([]string, w.arity[rel])
		for c := range args {
			switch {
			case len(vars) > 0 && r.Intn(4) == 0: // the first argument is a variable: the head needs one
				args[c] = hole()
			case len(vars) > 0 && r.Intn(2) == 0:
				args[c] = vars[r.Intn(len(vars))]
			default:
				v := fmt.Sprintf("Y%d", len(vars))
				vars = append(vars, v)
				args[c] = v
			}
		}
		lits = append(lits, rel+"("+strings.Join(args, ", ")+")")
	}
	for n := r.Intn(3); n > 0; n-- {
		v := vars[r.Intn(len(vars))]
		op := []string{"=", "=", "<", ">=", "!="}[r.Intn(5)]
		lits = append(lits, v+" "+op+" "+hole())
	}
	head := []string{vars[r.Intn(len(vars))]}
	if r.Intn(2) == 0 {
		head = append(head, vars[r.Intn(len(vars))])
	}
	if r.Intn(8) == 0 {
		head = append(head, hole())
	}
	qt.text = "Q(" + strings.Join(head, ", ") + ") :- " + strings.Join(lits, ", ")
	return qt
}

func randomFill(r *rand.Rand, n int) []string {
	vals := make([]string, n)
	for i := range vals {
		vals[i] = valuePool[r.Intn(len(valuePool))]
	}
	return vals
}

// TestPropBoundPlanEqualsDirectCompile: over random schemas, views and
// query templates, a query cited on an engine that has compiled its shape
// for other constants — equal to a view constant or not, one constant
// twice, two swapped, under <, >= and !=, equated into unsatisfiability,
// spelling the shape key's own placeholders — equals the same query cited
// on a fresh engine, which compiles it directly.
func TestPropBoundPlanEqualsDirectCompile(t *testing.T) {
	bounded := core.DefaultPolicy()
	bounded.PreferredRewritings = false
	bounded.MaxRewritings = 2
	policies := []struct {
		name string
		pol  core.Policy
	}{{"default", core.DefaultPolicy()}, {"plain", plainPolicy()}, {"bounded", bounded}}

	ctx := context.Background()
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		w := randomWorld(t, r)
		for _, p := range policies {
			name, pol := p.name, p.pol
			warm := w.engine(t, pol) // keeps every shape it meets
			for ti := 0; ti < 25; ti++ {
				qt := randomTemplate(r, w)
				fills := [][]string{randomFill(r, qt.holes), randomFill(r, qt.holes)}
				if qt.holes >= 2 { // the first fill again with two constants swapped
					sw := append([]string(nil), fills[0]...)
					sw[0], sw[1] = sw[1], sw[0]
					fills = append(fills, sw)
				}
				fills = append(fills, fills[0]) // and once more, now surely bound
				for _, vals := range fills {
					src := qt.fill(vals)
					q, err := datalog.ParseQuery(src)
					if err != nil {
						t.Fatalf("seed %d: generated query does not parse: %v\n%s", seed, err, src)
					}
					if q.Validate() != nil {
						continue
					}
					got := fingerprint(warm.CiteQuery(ctx, q, 0, nil))
					want := fingerprint(w.engine(t, pol).CiteQuery(ctx, q, 0, nil))
					if got != want {
						t.Fatalf("seed %d policy %s: bound plan diverged from direct compile for\n%s\n--- bound\n%s--- direct\n%s", seed, name, src, got, want)
					}
					if p := warm.Prepare(q.Clone()); p.Satisfiable() {
						if fresh := w.engine(t, pol).Prepare(q.Clone()); p.Min().Key() != fresh.Min().Key() {
							t.Fatalf("seed %d: bound minimized query %q, direct %q", seed, p.Min().Key(), fresh.Min().Key())
						}
					}
				}
			}
			if hits, _ := warm.LogicalPlanStats(); hits == 0 {
				t.Fatalf("seed %d policy %s: no citation was served by a bound plan — the property checked nothing", seed, name)
			}
		}
	}
}

// TestOrderComparisonConstantsStayLiteral pins the two cases where a plan
// does read a constant's value. R(X, Z) is redundant exactly when the
// constant that X can be mapped onto satisfies X's comparison: that depends
// on the comparison's own constant, and on a constant that appears in no
// comparison at all — it only shares an argument position with X.
func TestOrderComparisonConstantsStayLiteral(t *testing.T) {
	schema := storage.NewSchema()
	schema.MustAddRelation(&storage.RelSchema{Name: "R", Cols: []storage.Column{{Name: "a"}, {Name: "b"}}})
	schema.MustAddRelation(&storage.RelSchema{Name: "S", Cols: []storage.Column{{Name: "a"}}})
	db := storage.NewDB(schema)
	for _, v := range []string{"5", "9"} {
		db.MustInsert("R", v, "w"+v)
		db.MustInsert("S", v)
	}
	w := &world{db: db}
	warm := w.engine(t, core.DefaultPolicy())
	ctx := context.Background()
	var atoms []int
	for _, c := range []struct{ key, bound string }{{"5", "7"}, {"9", "7"}, {"5", "3"}} {
		q := mustQuery(t, fmt.Sprintf(`Q(W) :- R(X, Z), S(X), R(%q, W), S(%q), X < %q`, c.key, c.key, c.bound))
		res, err := warm.CiteQuery(ctx, q, 0, nil)
		got, want := fingerprint(res, err), fingerprint(w.engine(t, core.DefaultPolicy()).CiteQuery(ctx, q, 0, nil))
		if got != want {
			t.Fatalf("%v: bound\n%s\ndirect\n%s", c, got, want)
		}
		atoms = append(atoms, len(res.Query().Atoms))
	}
	if atoms[0] >= atoms[1] || atoms[0] >= atoms[2] {
		t.Fatalf("minimized atom counts %v: the test no longer separates the constants", atoms)
	}
}

// TestBoundRewritingsAreResorted: Enumerate orders rewritings by a key that
// spells constants, so swapping two constants reorders them; a bound plan
// must come out in the order a direct compile gives.
func TestBoundRewritingsAreResorted(t *testing.T) {
	schema := storage.NewSchema()
	schema.MustAddRelation(&storage.RelSchema{Name: "R", Cols: []storage.Column{{Name: "a"}, {Name: "b"}}})
	db := storage.NewDB(schema)
	db.MustInsert("R", "a", "1")
	db.MustInsert("R", "b", "2")
	p, err := datalog.ParseProgram(`
view V0(A, B) :- R(A, B).
cite V0 CV0(A, B) :- R(A, B).
view V1(A, B) :- R(A, B).
cite V1 CV1(A, B) :- R(A, B).
`)
	if err != nil {
		t.Fatal(err)
	}
	views, err := core.FromProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	w := &world{db: db, views: views}
	warm := w.engine(t, plainPolicy())
	ctx := context.Background()
	var orders []string
	for _, c := range [][2]string{{"a", "b"}, {"b", "a"}} {
		q := mustQuery(t, fmt.Sprintf(`Q(X, Y) :- R(%q, X), R(%q, Y)`, c[0], c[1]))
		res, err := warm.CiteQuery(ctx, q, 0, nil)
		got, want := fingerprint(res, err), fingerprint(w.engine(t, plainPolicy()).CiteQuery(ctx, q, 0, nil))
		if got != want {
			t.Fatalf("%v: bound\n%s\ndirect\n%s", c, got, want)
		}
		var views []string
		for _, r := range res.BoundRewritings() {
			views = append(views, r.ViewAtoms[0].View.Name)
		}
		orders = append(orders, strings.Join(views, ","))
	}
	if orders[0] == orders[1] {
		t.Fatalf("rewriting order %q under both constant orders: the test no longer needs the re-sort", orders[0])
	}
}

// FuzzShape drives the same oracle from the datalog surface over the paper
// instance: whatever query parses, cite it on an engine warmed with a
// constant-renamed twin and on a fresh engine; the two must agree.
func FuzzShape(f *testing.F) {
	f.Add(`Q(N) :- Family(F, N, Ty), F = "11"`, "13", "gpcr")
	f.Add(`Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)`, "vgic", "11")
	f.Add(`Q(N, Pn) :- Family(F, N, Ty), F = "11", FC(F, P), Person(P, Pn, A)`, "p0", "p0,")
	f.Add(`Q(N, "x") :- Family(F, N, Ty), F >= "12", Ty != "lgic"`, "11", "2:ab")
	f.Add(`Q(N) :- Family(F, N, Ty), F = "11", F = "12"`, "11", "11")
	f.Add(`Q(A, B) :- Family(A, N, "gpcr"), Family(B, M, "vgic"), A < B`, "vgic", "gpcr")
	db, views := gtopdb.PaperInstance(), gtopdb.MustPaperViews()
	engine := func(t *testing.T) *core.Engine {
		e, err := core.NewEngine(core.DBSource{DB: db}, views, core.DefaultPolicy())
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	var warm *core.Engine
	var once sync.Once
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, src, c1, c2 string) {
		once.Do(func() { warm = engine(t) })
		q, err := datalog.ParseQuery(src)
		if err != nil || q.Validate() != nil || len(q.Atoms) > 4 {
			return
		}
		// The twin: the query's first two distinct constants renamed to c1
		// and c2. When that leaves the shape alone the query below is served
		// by binding; when it does not, both are compiled — either way the
		// warm engine must answer as a fresh one does.
		var seen []string
		twin := q.Clone()
		rename := func(tm cq.Term) cq.Term {
			if !tm.IsConst {
				return tm
			}
			i := 0
			for i < len(seen) && seen[i] != tm.Value {
				i++
			}
			if i == len(seen) {
				seen = append(seen, tm.Value)
			}
			switch i {
			case 0:
				return cq.Const(c1)
			case 1:
				return cq.Const(c2)
			}
			return tm
		}
		for i := range twin.Head {
			twin.Head[i] = rename(twin.Head[i])
		}
		for _, a := range twin.Atoms {
			for i := range a.Args {
				a.Args[i] = rename(a.Args[i])
			}
		}
		for i, c := range twin.Comps {
			twin.Comps[i] = cq.Comparison{L: rename(c.L), Op: c.Op, R: rename(c.R)}
		}
		for _, first := range []*cq.Query{twin, q} {
			got := fingerprint(warm.CiteQuery(ctx, first, 0, nil))
			want := fingerprint(engine(t).CiteQuery(ctx, first, 0, nil))
			if got != want {
				t.Fatalf("bound plan diverged from direct compile for %s\n--- bound\n%s--- direct\n%s", first, got, want)
			}
		}
	})
}

// TestShapeFirstCompileRace: goroutines racing the first compilation of one
// shape, each with its own constant, each get their own constant's answer.
func TestShapeFirstCompileRace(t *testing.T) {
	ctx := context.Background()
	fids := []string{"11", "12", "13", "11", "12", "13"}
	want := make([]string, len(fids))
	for i, fid := range fids {
		q := mustQuery(t, fmt.Sprintf(`Q(N, Pn) :- Family(F, N, Ty), F = %q, FC(F, P), Person(P, Pn, A)`, fid))
		want[i] = fingerprint(paperEngine(t, core.DefaultPolicy()).CiteQuery(ctx, q, 0, nil))
	}
	for round := 0; round < 20; round++ {
		e := paperEngine(t, core.DefaultPolicy())
		got := make([]string, len(fids))
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i, fid := range fids {
			wg.Add(1)
			go func(i int, fid string) {
				defer wg.Done()
				q, err := datalog.ParseQuery(fmt.Sprintf(`Q(N, Pn) :- Family(F, N, Ty), F = %q, FC(F, P), Person(P, Pn, A)`, fid))
				if err != nil {
					t.Error(err)
					return
				}
				<-start
				got[i] = fingerprint(e.CiteQuery(ctx, q, 0, nil))
			}(i, fid)
		}
		close(start)
		wg.Wait()
		for i := range fids {
			if got[i] != want[i] {
				t.Fatalf("round %d, F = %s: racing first compile returned\n%s\nwant\n%s", round, fids[i], got[i], want[i])
			}
		}
		if _, misses := e.LogicalPlanStats(); misses != 1 {
			t.Fatalf("round %d: %d rewriting enumerations for one shape, want 1", round, misses)
		}
	}
}

// TestPlanCachesEvict: both plan caches are LRUs, not maps that stop taking
// entries at a cap — after 600 one-off shapes a shape that keeps coming back
// is still served from them.
func TestPlanCachesEvict(t *testing.T) {
	e := paperEngine(t, core.DefaultPolicy())
	ctx := context.Background()
	cite := func(src string) {
		t.Helper()
		if _, err := e.CiteQuery(ctx, mustQuery(t, src), 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 600; i++ {
		cite(fmt.Sprintf(`Q(N%d) :- Family(F, N%d, Ty), F = "11"`, i, i)) // a shape of its own: variable names are part of it
	}
	repeated := `Q(N) :- Family(F, N, Ty), F = "12"`
	cite(repeated)
	lh, lm := e.LogicalPlanStats()
	ph, pm := e.PhysicalPlanStats()
	cite(repeated)
	lh2, lm2 := e.LogicalPlanStats()
	ph2, pm2 := e.PhysicalPlanStats()
	if lm2 != lm || lh2 != lh+1 {
		t.Fatalf("logical plans: repeat after 600 one-off shapes went %d/%d -> %d/%d hits/misses, want one more hit", lh, lm, lh2, lm2)
	}
	if pm2 != pm || ph2 <= ph {
		t.Fatalf("physical plans: repeat after 600 one-off shapes went %d/%d -> %d/%d hits/misses, want hits only", ph, pm, ph2, pm2)
	}
}
