package core_test

// The reference citer: Definitions 2.2 and 3.1–3.4 of the paper, as the paper
// states them, with no plans, caches, shapes, unfolding or rewriting
// enumerator — held against every engine and every entry point of the citare
// facade over seeded random worlds and the paper's own examples.
//
//   - Rewritings (Definition 2.2) by brute force: every set of at most |Q|
//     subgoals — view atoms over the query's terms, and the query's own atoms
//     when partial rewritings are allowed — whose expansion is equivalent to
//     Q (homomorphisms both ways), from which no subgoal can be dropped and
//     in which no set of base subgoals can be traded for one view atom.
//   - §2.3's preference: fewer base subgoals, fewer residual constants, fewer
//     views, Pareto-wise.
//   - Definition 3.2 by nested loops over *materialized* views: a tuple's
//     polynomial under one rewriting sums, over the distinct assignments of
//     the rewriting's variables, the product of its view tokens (and C_R
//     markers); Definition 3.3's +R keeps the §3.4-maximal polynomials;
//     Definition 3.4 aggregates the records with the neutral citations.
//
// Where the paper leaves a choice open the reference takes the engine's
// documented conventions, so that the comparison can be byte for byte: ties
// under a preference order keep the first operand — monomials in the order of
// their token spelling, rewritings in rewrite.Rewriting.Key order — a C_R
// token's record is {"UncitedRelation": R}, and answers come in
// storage.Tuple.Key order.

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"citare"
	"citare/internal/backend"
	"citare/internal/core"
	"citare/internal/cq"
	"citare/internal/datalog"
	"citare/internal/eval"
	"citare/internal/format"
	"citare/internal/gtopdb"
	"citare/internal/lsm"
	"citare/internal/rewrite"
	"citare/internal/shard"
	"citare/internal/storage"
)

// refCiter cites by the definitions over one database, view set and policy.
type refCiter struct {
	db    *storage.DB
	views []*core.CitationView
	pol   core.Policy
	mat   map[*core.CitationView][]storage.Tuple // each view's extension: a set
	recs  map[string]format.Value                // token spelling → record
}

// refAnswer is what the reference and an engine are compared on: the answer
// in result order, each tuple's polynomial in the paper's notation and its
// record, and the aggregated citation (none for a stream).
type refAnswer struct {
	rows    [][]string
	polys   []string
	records []string
	agg     string
}

// refGoal is a subgoal of a rewriting: a view atom V(args) over the query's
// terms, or (view nil) one of the query's own atoms.
type refGoal struct {
	view *core.CitationView
	atom cq.Atom
}

// refTerm is a term of a polynomial in ℕ[X]: a monomial — distinct tokens in
// spelling order, each with its exponent — and its coefficient.
type refTerm struct {
	toks  []string
	exps  []int
	coeff int
}

func (m refTerm) key() string {
	parts := make([]string, len(m.toks))
	for i, tok := range m.toks {
		parts[i] = tok + "^" + strconv.Itoa(m.exps[i])
	}
	return strings.Join(parts, "·")
}

// refPoly is a polynomial: monomial key → term.
type refPoly map[string]refTerm

func (p refPoly) add(m refTerm) {
	k := m.key()
	if old, ok := p[k]; ok {
		m.coeff += old.coeff
	}
	p[k] = m
}

// terms lists the polynomial's terms in key order.
func (p refPoly) terms() []refTerm {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]refTerm, len(keys))
	for i, k := range keys {
		out[i] = p[k]
	}
	return out
}

func newRefCiter(db *storage.DB, views []*core.CitationView, pol core.Policy) *refCiter {
	rc := &refCiter{db: db, views: views, pol: pol, mat: map[*core.CitationView][]storage.Tuple{}, recs: map[string]format.Value{}}
	for _, v := range views {
		seen := map[string]bool{}
		rc.eachBinding(v.Def.Atoms, nil, func(b map[string]string) {
			t := storage.Tuple(headValues(v.Def.Head, b))
			if !seen[t.Key()] {
				seen[t.Key()] = true
				rc.mat[v] = append(rc.mat[v], t)
			}
		})
	}
	return rc
}

// eachBinding enumerates by nested loops the assignments of the atoms'
// variables under which every atom's instance is a tuple of its relation —
// the relation itself, or, for an atom of goals, the view's extension.
func (rc *refCiter) eachBinding(atoms []cq.Atom, goals []refGoal, fn func(b map[string]string)) {
	b := map[string]string{}
	var walk func(i int)
	walk = func(i int) {
		if i == len(atoms) {
			fn(b)
			return
		}
		var rows []storage.Tuple
		if goals != nil && goals[i].view != nil {
			rows = rc.mat[goals[i].view]
		} else {
			rows = rc.db.Relation(atoms[i].Pred).Tuples()
		}
		for _, t := range rows {
			var bound []string
			ok := len(t) == len(atoms[i].Args)
			for j, a := range atoms[i].Args {
				v, has := b[a.Name]
				switch {
				case !ok:
				case a.IsConst:
					ok = t[j] == a.Value
				case has:
					ok = t[j] == v
				default:
					b[a.Name] = t[j]
					bound = append(bound, a.Name)
				}
			}
			if ok {
				walk(i + 1)
			}
			for _, name := range bound {
				delete(b, name)
			}
		}
	}
	walk(0)
}

func headValues(head []cq.Term, b map[string]string) []string {
	vals := make([]string, len(head))
	for i, t := range head {
		if vals[i] = t.Value; t.IsVar() {
			vals[i] = b[t.Name]
		}
	}
	return vals
}

// homomorphic reports a homomorphism from a into b: a's head onto b's head
// position by position, every atom of a onto an atom of b.
func homomorphic(a, b *cq.Query) bool {
	s := map[string]cq.Term{}
	if !mapTerms(s, a.Head, b.Head, nil) {
		return false
	}
	var walk func(i int) bool
	walk = func(i int) bool {
		if i == len(a.Atoms) {
			return true
		}
		for _, to := range b.Atoms {
			if to.Pred != a.Atoms[i].Pred {
				continue
			}
			var added []string
			if mapTerms(s, a.Atoms[i].Args, to.Args, &added) && walk(i+1) {
				return true
			}
			for _, name := range added {
				delete(s, name)
			}
		}
		return false
	}
	return walk(0)
}

func mapTerms(s map[string]cq.Term, from, to []cq.Term, added *[]string) bool {
	if len(from) != len(to) {
		return false
	}
	for i, f := range from {
		img, has := s[f.Name]
		switch {
		case f.IsConst:
			if !to[i].IsConst || to[i].Value != f.Value {
				return false
			}
		case has:
			if !img.Equal(to[i]) {
				return false
			}
		default:
			s[f.Name] = to[i]
			if added != nil {
				*added = append(*added, f.Name)
			}
		}
	}
	return true
}

func equivalent(a, b *cq.Query) bool { return homomorphic(a, b) && homomorphic(b, a) }

// expand is a rewriting's meaning over base relations: each view subgoal
// becomes the view's body, its head bound to the subgoal's arguments and its
// other variables renamed apart.
func expand(head []cq.Term, goals []refGoal) *cq.Query {
	q := &cq.Query{Head: head}
	for k, g := range goals {
		if g.view == nil {
			q.Atoms = append(q.Atoms, g.atom)
			continue
		}
		s := map[string]cq.Term{}
		for i, h := range g.view.Def.Head {
			s[h.Name] = g.atom.Args[i]
		}
		for _, a := range g.view.Def.Atoms {
			out := cq.Atom{Pred: a.Pred}
			for _, t := range a.Args {
				if img, ok := s[t.Name]; t.IsVar() && ok {
					t = img
				} else if t.IsVar() {
					t = cq.Var(fmt.Sprintf("%s#%d", t.Name, k))
				}
				out.Args = append(out.Args, t)
			}
			q.Atoms = append(q.Atoms, out)
		}
	}
	return q
}

// normalize chases X = "c" into the query, as the paper's queries write
// selections; the reference supports no other comparison.
func normalize(q *cq.Query) (*cq.Query, error) {
	s := cq.Subst{}
	for _, c := range q.Comps {
		switch {
		case c.Op == cq.OpEq && c.L.IsVar() && c.R.IsConst:
			s[c.L.Name] = c.R
		case c.Op == cq.OpEq && c.R.IsVar() && c.L.IsConst:
			s[c.R.Name] = c.L
		default:
			return nil, fmt.Errorf("reference citer: unsupported comparison %s", c)
		}
	}
	out := q.Apply(s)
	out.Comps = nil
	return out, nil
}

// minimal reports that no atom of q can be dropped without changing it.
func minimal(q *cq.Query) bool {
	for i := range q.Atoms {
		rest := &cq.Query{Head: q.Head, Atoms: slices.Delete(slices.Clone(q.Atoms), i, i+1)}
		if homomorphic(q, rest) {
			return false
		}
	}
	return true
}

// rewritings enumerates Definition 2.2's rewritings of q, §2.3-preferred when
// the policy asks, in Key order.
func (rc *refCiter) rewritings(q *cq.Query) [][]refGoal {
	var terms []cq.Term
	for _, a := range q.Atoms {
		for _, t := range a.Args {
			if !slices.ContainsFunc(terms, t.Equal) {
				terms = append(terms, t)
			}
		}
	}
	// View atoms over q's terms whose body maps into q: an expansion that
	// maps into q can use no other.
	var pool []refGoal
	for _, v := range rc.views {
		var vars []string
		for _, h := range v.Def.Head {
			if h.IsVar() && !slices.Contains(vars, h.Name) {
				vars = append(vars, h.Name)
			}
		}
		pick := make([]int, len(vars))
		for {
			s := cq.Subst{}
			for i, name := range vars {
				s[name] = terms[pick[i]]
			}
			g := refGoal{view: v, atom: cq.Atom{Pred: v.Name(), Args: v.Def.Apply(s).Head}}
			args := g.atom.Args // fixed: they are q's own terms
			if homomorphic(&cq.Query{Head: args, Atoms: expand(nil, []refGoal{g}).Atoms}, &cq.Query{Head: args, Atoms: q.Atoms}) {
				pool = append(pool, g)
			}
			i := 0
			for ; i < len(pick) && pick[i] == len(terms)-1; i++ {
				pick[i] = 0
			}
			if i == len(pick) {
				break
			}
			pick[i]++
		}
	}
	if rc.pol.AllowPartial {
		for _, a := range q.Atoms {
			pool = append(pool, refGoal{atom: a})
		}
	}
	var out [][]refGoal
	var choose func(start int, cur []refGoal)
	choose = func(start int, cur []refGoal) {
		if len(cur) > 0 && rc.isRewriting(q, cur, pool) {
			out = append(out, slices.Clone(cur))
		}
		for i := start; i < len(pool) && len(cur) < len(q.Atoms); i++ {
			choose(i+1, append(cur, pool[i]))
		}
	}
	choose(0, nil)
	if rc.pol.PreferredRewritings {
		out = preferred(out)
	}
	ren := q.CanonicalRenaming()
	sort.Slice(out, func(i, j int) bool { return rewritingKey(q, ren, out[i]) < rewritingKey(q, ren, out[j]) })
	return out
}

// isRewriting checks Definition 2.2's conditions: (1) the expansion is
// equivalent to q, (3) no subgoal can be dropped, (4) no set of base
// subgoals can be replaced by one view atom.
func (rc *refCiter) isRewriting(q *cq.Query, goals, pool []refGoal) bool {
	if !equivalent(expand(q.Head, goals), q) {
		return false
	}
	for i := range goals {
		if len(goals) > 1 && equivalent(expand(q.Head, slices.Delete(slices.Clone(goals), i, i+1)), q) {
			return false
		}
	}
	var base []int
	for i, g := range goals {
		if g.view == nil {
			base = append(base, i)
		}
	}
	for mask := 1; mask < 1<<len(base); mask++ {
		var rest []refGoal
		for i, g := range goals {
			if j := slices.Index(base, i); j < 0 || mask&(1<<j) == 0 {
				rest = append(rest, g)
			}
		}
		for _, w := range pool {
			if w.view != nil && equivalent(expand(q.Head, append(slices.Clone(rest), w)), q) {
				return false
			}
		}
	}
	return true
}

// preferred keeps the rewritings no other dominates on (base subgoals,
// residual constants, views) — §2.3.
func preferred(rws [][]refGoal) [][]refGoal {
	score := func(goals []refGoal) [3]int {
		var s [3]int
		for _, g := range goals {
			var params []int
			if g.view == nil {
				s[0]++
			} else {
				s[2]++
				params, _ = g.view.Def.ParamPositions()
			}
			for i, t := range g.atom.Args {
				if t.IsConst && !slices.Contains(params, i) {
					s[1]++
				}
			}
		}
		return s
	}
	var out [][]refGoal
	for i, r := range rws {
		dominated := false
		for j, o := range rws {
			a, b := score(o), score(r)
			if i != j && a[0] <= b[0] && a[1] <= b[1] && a[2] <= b[2] && a != b {
				dominated = true
			}
		}
		if !dominated {
			out = append(out, r)
		}
	}
	return out
}

// rewritingKey orders rewritings as the engine does: by Key with the query's
// variables named canonically, the same for every renaming of the query.
func rewritingKey(q *cq.Query, ren cq.Subst, goals []refGoal) string {
	r := &rewrite.Rewriting{Query: q, Head: q.Head}
	for _, g := range goals {
		if a := ren.ApplyAtom(g.atom); g.view == nil {
			r.BaseAtoms = append(r.BaseAtoms, a)
		} else {
			r.ViewAtoms = append(r.ViewAtoms, rewrite.ViewAtom{View: g.view.Def, Args: a.Args})
		}
	}
	return r.Key()
}

// cite answers one query text.
func (rc *refCiter) cite(src string) (refAnswer, error) {
	parsed, err := datalog.ParseQuery(src)
	if err != nil {
		return refAnswer{}, err
	}
	q, err := normalize(parsed)
	if err != nil {
		return refAnswer{}, err
	}
	if !minimal(q) {
		return refAnswer{}, fmt.Errorf("reference citer: %s is not minimal", src)
	}
	// The answer, in result order.
	answer := map[string][]string{}
	rc.eachBinding(q.Atoms, nil, func(b map[string]string) {
		vals := headValues(q.Head, b)
		answer[storage.Tuple(vals).Key()] = vals
	})
	keys := make([]string, 0, len(answer))
	for k := range answer {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	// Definition 3.2 per rewriting: Σ over distinct assignments of the
	// rewriting's variables of Π tokens, per answer tuple.
	rws := rc.rewritings(q)
	per := make([]map[string]refPoly, len(rws))
	for ri, goals := range rws {
		per[ri] = map[string]refPoly{}
		atoms := make([]cq.Atom, len(goals))
		for i, g := range goals {
			atoms[i] = g.atom
		}
		seen := map[string]bool{}
		rc.eachBinding(atoms, goals, func(b map[string]string) {
			var id []string
			for _, name := range slices.Sorted(maps.Keys(b)) {
				id = append(id, name, b[name])
			}
			if seen[storage.Tuple(id).Key()] {
				return
			}
			seen[storage.Tuple(id).Key()] = true
			var toks []string
			for _, g := range goals {
				if g.view == nil {
					if rc.pol.IncludeBaseTokens {
						toks = append(toks, "r|"+g.atom.Pred)
					}
					continue
				}
				pos, _ := g.view.Def.ParamPositions()
				tok := "v|" + g.view.Name()
				for _, p := range pos {
					tok += "|" + strconv.Quote(headValues(g.atom.Args[p:p+1], b)[0])
				}
				toks = append(toks, tok)
			}
			k := storage.Tuple(headValues(q.Head, b)).Key()
			if per[ri][k] == nil {
				per[ri][k] = refPoly{}
			}
			per[ri][k].add(monomial(toks))
		})
	}

	var ans refAnswer
	var tupleRecs []format.Value
	for _, k := range keys {
		var ps []refPoly
		for ri := range rws {
			if p := per[ri][k]; p != nil {
				ps = append(ps, rc.normalForm(rc.idempotent(p)))
			}
		}
		kept := rc.maximal(ps)
		sum := refPoly{}
		var rwRecs []format.Value
		for _, i := range kept {
			var monoRecs []format.Value
			for _, m := range ps[i].terms() {
				sum.add(m)
				var tokRecs []format.Value
				for _, tok := range m.toks {
					rec, err := rc.record(tok)
					if err != nil {
						return refAnswer{}, err
					}
					tokRecs = append(tokRecs, rec)
				}
				monoRecs = append(monoRecs, combineRecords(rc.pol.Times, tokRecs))
			}
			rwRecs = append(rwRecs, combineRecords(rc.pol.Plus, monoRecs))
		}
		rec := combineRecords(rc.pol.PlusR, rwRecs)
		ans.rows = append(ans.rows, answer[k])
		ans.polys = append(ans.polys, polyString(rc.normalForm(rc.idempotent(sum))))
		ans.records = append(ans.records, rec.JSON())
		if rec.Kind != format.KObject || rec.Obj.Len() > 0 {
			tupleRecs = append(tupleRecs, rec)
		}
	}
	var aggRecs []format.Value
	for _, n := range rc.pol.Neutral {
		aggRecs = append(aggRecs, format.O(n))
	}
	ans.agg = combineRecords(rc.pol.Agg, append(aggRecs, tupleRecs...)).JSON()
	return ans, nil
}

func monomial(toks []string) refTerm {
	toks = slices.Sorted(slices.Values(toks))
	m := refTerm{coeff: 1}
	for i, tok := range toks {
		if i > 0 && toks[i-1] == tok {
			m.exps[len(m.exps)-1]++
			continue
		}
		m.toks, m.exps = append(m.toks, tok), append(m.exps, 1)
	}
	return m
}

// idempotent applies a + a = a (and a · a = a) when the policy asks.
func (rc *refCiter) idempotent(p refPoly) refPoly {
	if !rc.pol.IdempotentPlus {
		return p
	}
	out := refPoly{}
	for _, m := range p {
		flat := refTerm{toks: m.toks, exps: slices.Repeat([]int{1}, len(m.toks)), coeff: 1}
		out[flat.key()] = flat
	}
	return out
}

// le is §3.4's monomial order m ≤ n under every order of the policy: n has at
// most as many view tokens (Example 3.6) and C_R tokens (Example 3.7).
func (rc *refCiter) le(m, n refTerm) bool {
	if len(rc.pol.Orders) == 0 {
		return false
	}
	count := func(t refTerm, kind string) int {
		c := 0
		for i, tok := range t.toks {
			if strings.HasPrefix(tok, kind) {
				c += t.exps[i]
			}
		}
		return c
	}
	for _, o := range rc.pol.Orders {
		kind := map[string]string{"view-count": "v|", "uncovered": "r|"}[o.Name()]
		if kind == "" {
			panic("reference citer: unsupported order " + o.Name())
		}
		if count(m, kind) < count(n, kind) {
			return false
		}
	}
	return true
}

// dominated reports that operand i of n goes: some other operand is strictly
// above it, or tied with it and earlier.
func dominated(i, n int, le func(i, j int) bool) bool {
	for j := 0; j < n; j++ {
		if j != i && le(i, j) && (!le(j, i) || j < i) {
			return true
		}
	}
	return false
}

// normalForm drops every dominated monomial (§3.4).
func (rc *refCiter) normalForm(p refPoly) refPoly {
	ts := p.terms()
	out := refPoly{}
	for i, t := range ts {
		if !dominated(i, len(ts), func(i, j int) bool { return rc.le(ts[i], ts[j]) }) {
			out.add(t)
		}
	}
	return out
}

// maximal lists the +R operands no other operand dominates (§3.4): p ≤ q
// when every monomial of p's normal form is below one of q's.
func (rc *refCiter) maximal(ps []refPoly) []int {
	polyLE := func(i, j int) bool {
		if len(rc.pol.Orders) == 0 {
			return false
		}
		for _, m := range ps[i].terms() {
			if !slices.ContainsFunc(ps[j].terms(), func(n refTerm) bool { return rc.le(m, n) }) {
				return false
			}
		}
		return true
	}
	var kept []int
	for i := range ps {
		if !dominated(i, len(ps), polyLE) {
			kept = append(kept, i)
		}
	}
	return kept
}

// record is a token's citation: F_V(C_V(λ-values)) by naiveRecord for a view
// token, the C_R marker for a base relation.
func (rc *refCiter) record(tok string) (format.Value, error) {
	if rec, ok := rc.recs[tok]; ok {
		return rec, nil
	}
	parts := strings.Split(tok, "|")
	rec := format.O(format.NewObject().Set("UncitedRelation", format.S(parts[1])))
	if parts[0] == "v" {
		i := slices.IndexFunc(rc.views, func(v *core.CitationView) bool { return v.Name() == parts[1] })
		var params []string
		for _, q := range parts[2:] {
			p, err := strconv.Unquote(q)
			if err != nil {
				return format.Value{}, err
			}
			params = append(params, p)
		}
		obj, err := naiveRecord(eval.DBViewOf(rc.db), rc.views[i], core.NewViewToken(parts[1], params...))
		if err != nil {
			return format.Value{}, err
		}
		rec = format.O(obj)
	}
	rc.recs[tok] = rec
	return rec, nil
}

// combineRecords interprets an abstract combination (§3.3): no operand is the
// empty record, union keeps the operands side by side, join merges them.
func combineRecords(interp core.Interp, vals []format.Value) format.Value {
	switch {
	case len(vals) == 0:
		return format.O(format.NewObject())
	case len(vals) == 1:
		return vals[0]
	case interp == core.InterpUnion:
		return format.UnionValues(vals...)
	}
	acc := vals[0]
	for _, v := range vals[1:] {
		acc = format.MergeValues(acc, v)
	}
	return acc
}

// polyString spells a polynomial in the paper's notation: "2·V1("a") · C_R +
// V2".
func polyString(p refPoly) string {
	if len(p) == 0 {
		return "0"
	}
	var terms []string
	for _, m := range p.terms() {
		var labels []string
		for i, tok := range m.toks {
			parts := strings.Split(tok, "|")
			label := "C_" + parts[1]
			if parts[0] == "v" {
				label = parts[1]
				if len(parts) > 2 {
					label += "(" + strings.Join(parts[2:], ",") + ")"
				}
			}
			for e := 0; e < m.exps[i]; e++ {
				labels = append(labels, label)
			}
		}
		s := strings.Join(labels, " · ")
		if s == "" {
			s = "1"
		}
		if m.coeff != 1 {
			s = strconv.Itoa(m.coeff) + "·" + s
		}
		terms = append(terms, s)
	}
	return strings.Join(terms, " + ")
}

// oracleWorld is one seeded instance family: a schema and its data, a view
// program, a policy, and queries over them.
type oracleWorld struct {
	name    string
	schema  *storage.Schema
	tuples  [][]string // relation name first
	views   []string   // one program block per view
	pol     core.Policy
	queries []string
}

func (w *oracleWorld) db() *storage.DB {
	db := storage.NewDB(w.schema)
	for _, t := range w.tuples {
		db.MustInsert(t[0], t[1:]...)
	}
	return db
}

func (w *oracleWorld) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "world %s\npolicy %+v\n", w.name, w.pol)
	for _, t := range w.tuples {
		fmt.Fprintf(&sb, "  %s%q\n", t[0], t[1:])
	}
	sb.WriteString(strings.Join(w.views, "\n"))
	for _, q := range w.queries {
		fmt.Fprintf(&sb, "\nquery %s", q)
	}
	return sb.String()
}

var oracleValues = []string{"a", "b", "c"}

// genWorld draws a world: two or three relations of arity one to three over
// a pool of three values, one to four views of one or two atoms with at most
// one λ-parameter, a random policy, and minimal queries of one to three
// atoms.
func genWorld(seed int64) *oracleWorld {
	r := rand.New(rand.NewSource(seed))
	w := &oracleWorld{name: "seed " + strconv.FormatInt(seed, 10), schema: storage.NewSchema()}
	rels := []string{"R", "S", "T"}[:2+r.Intn(2)]
	arity := map[string]int{}
	for _, rel := range rels {
		arity[rel] = 1 + r.Intn(3)
		cols := make([]storage.Column, arity[rel])
		for i := range cols {
			cols[i] = storage.Column{Name: "c" + strconv.Itoa(i)}
		}
		w.schema.MustAddRelation(&storage.RelSchema{Name: rel, Cols: cols})
		seen := map[string]bool{}
		for n := r.Intn(7); n > 0; n-- {
			t := []string{rel}
			for range arity[rel] {
				t = append(t, oracleValues[r.Intn(len(oracleValues))])
			}
			if k := strings.Join(t, "|"); !seen[k] {
				seen[k] = true
				w.tuples = append(w.tuples, t)
			}
		}
	}
	// body draws atoms whose terms are variables of vars or, rarely, values.
	body := func(atoms int, vars []string) (string, []string) {
		var parts, used []string
		for range atoms {
			rel := rels[r.Intn(len(rels))]
			var args []string
			for range arity[rel] {
				if r.Intn(7) == 0 {
					args = append(args, strconv.Quote(oracleValues[r.Intn(len(oracleValues))]))
					continue
				}
				v := vars[r.Intn(len(vars))]
				args = append(args, v)
				if !slices.Contains(used, v) {
					used = append(used, v)
				}
			}
			parts = append(parts, rel+"("+strings.Join(args, ", ")+")")
		}
		return strings.Join(parts, ", "), used
	}
	// head draws a non-empty subset of the body's variables.
	head := func(used []string) []string {
		if len(used) == 0 {
			return nil
		}
		h := slices.Clone(used)
		r.Shuffle(len(h), func(i, j int) { h[i], h[j] = h[j], h[i] })
		return h[:1+r.Intn(len(h))]
	}
	interp := func() core.Interp { return core.Interp(r.Intn(2)) }
	w.pol = core.Policy{
		Times: interp(), Plus: interp(), PlusR: interp(), Agg: interp(),
		IdempotentPlus:      r.Intn(2) == 0,
		IncludeBaseTokens:   r.Intn(2) == 0,
		AllowPartial:        r.Intn(3) > 0,
		PreferredRewritings: r.Intn(2) == 0,
	}
	switch r.Intn(4) {
	case 0:
		w.pol.Orders = core.Orders{core.ByUncovered{}, core.ByViewCount{}}
	case 1:
		w.pol.Orders = core.Orders{core.ByViewCount{}}
	case 2:
		w.pol.Orders = core.Orders{core.ByUncovered{}}
	}
	if r.Intn(3) == 0 {
		w.pol.Neutral = []*format.Object{format.NewObject().Set("Database", format.S(w.name))}
	}
	// A view atom whose expansion overlaps a base subgoal is a rewriting by
	// Definition 2.2 that rewrite.Enumerate's disjoint covers do not reach —
	// Q(X) :- R(X, Z), S(X) with V(Y) :- R(Y, Z), S(X) has {V(X), S(X)} —
	// so partial rewritings are drawn over one-atom views only.
	viewAtoms := 2
	if w.pol.AllowPartial {
		viewAtoms = 1
	}
	for views := 1 + r.Intn(4); len(w.views) < views; {
		b, used := body(1+r.Intn(viewAtoms), []string{"X", "Y", "Z"})
		h := strings.Join(head(used), ", ")
		if def, err := datalog.ParseQuery("V(" + h + ") :- " + b); len(used) == 0 || err != nil || !connected(def) {
			continue
		}
		name := "V" + strconv.Itoa(len(w.views)+1)
		key, lambda := strings.Split(h, ", ")[0], ""
		if r.Intn(2) == 0 {
			lambda = "λ" + key + ". "
		}
		items := strings.Split(h, ", ")
		w.views = append(w.views, fmt.Sprintf("view %s%s(%s) :- %s.\ncite %s %sC%s(%s) :- %s.\nfmt %s { \"View\": %q, \"Key\": %s, \"Items\": [%s] }.",
			lambda, name, h, b, name, lambda, name, h, b, name, name, key, items[r.Intn(len(items))]))
	}
	for len(w.queries) < 16 {
		b, used := body(1+r.Intn(3), []string{"X", "Y", "Z", "W"})
		if len(used) == 0 {
			continue
		}
		src := "Q(" + strings.Join(head(used), ", ") + ") :- " + b
		if q, err := datalog.ParseQuery(src); err == nil && minimal(q) {
			w.queries = append(w.queries, src)
		}
	}
	return w
}

// connected reports that the atoms of q are joined into one component by
// shared variables.
func connected(q *cq.Query) bool {
	reached := []int{0}
	vars := map[string]bool{}
	for i := 0; i < len(reached); i++ {
		for _, t := range q.Atoms[reached[i]].Args {
			vars[t.Name] = vars[t.Name] || t.IsVar()
		}
		for j, a := range q.Atoms {
			if !slices.Contains(reached, j) && slices.ContainsFunc(a.Args, func(t cq.Term) bool { return t.IsVar() && vars[t.Name] }) {
				reached = append(reached, j)
			}
		}
	}
	return len(reached) == len(q.Atoms)
}

// paperWorld is the paper's instance, views and default policy with the
// GtoPdb citation as Agg's neutral element, and the queries of its examples.
func paperWorld() *oracleWorld {
	db := gtopdb.PaperInstance()
	w := &oracleWorld{name: "paper", schema: db.Schema(), views: []string{gtopdb.ViewsProgram}, pol: core.DefaultPolicy()}
	for _, rs := range db.Schema().Relations() {
		for _, t := range db.Relation(rs.Name).Tuples() {
			w.tuples = append(w.tuples, append([]string{rs.Name}, t...))
		}
	}
	w.pol.Neutral = []*format.Object{gtopdb.DatabaseCitation()}
	w.queries = []string{
		`Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)`, // Example 2.2
		`Q(N) :- Family(F, N, Ty), Ty = "gpcr"`,
		`Q(N) :- Family(F, N, Ty), F = "11"`,
		`Q(N, Pn) :- Family(F, N, Ty), FC(F, C), Person(C, Pn, A)`,
		`Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)`,
		`Q(F, N, Ty) :- Family(F, N, Ty)`,
	}
	return w
}

// oracleEngines are the citers an instance is checked on: the plain engine,
// three shards, an LSM store, and the plain engine behind a citation cache.
type oracleEngines struct {
	plain, sharded, lsm *citare.Citer
	cached              *citare.CachedCiter
}

func newOracleEngines(t *testing.T, w *oracleWorld, views []*core.CitationView) *oracleEngines {
	t.Helper()
	opt := citare.WithPolicy(w.pol)
	var e oracleEngines
	var err error
	db := w.db()
	if e.plain, err = citare.New(db, views, opt); err != nil {
		t.Fatal(err)
	}
	sdb, err := shard.FromDB(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	if e.sharded, err = citare.NewSharded(sdb, views, opt); err != nil {
		t.Fatal(err)
	}
	b, err := backend.OpenLSM(t.TempDir(), w.schema, lsm.Options{DisableBackgroundCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	for _, tu := range w.tuples {
		if err := b.Insert(tu[0], tu[1:]...); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Commit(""); err != nil {
		t.Fatal(err)
	}
	if e.lsm, err = citare.NewBackend(b, views, opt); err != nil {
		t.Fatal(err)
	}
	plain, err := citare.New(db, views, opt)
	if err != nil {
		t.Fatal(err)
	}
	e.cached = citare.NewCached(plain)
	return &e
}

func fromCitation(ct *citare.Citation) refAnswer {
	a := refAnswer{rows: ct.Rows(), agg: ct.CitationJSON()}
	for i := range a.rows {
		poly, _ := ct.TuplePolynomialAt(i)
		rec, _ := ct.TupleCitationJSONAt(i)
		a.polys, a.records = append(a.polys, poly), append(a.records, rec)
	}
	return a
}

// disagreement names the first difference between an engine's answer and the
// reference's, "" when there is none; a stream has no aggregate.
func disagreement(got, want refAnswer, stream bool) string {
	if len(got.rows) != len(want.rows) {
		return fmt.Sprintf("%d tuples, want %d: %q vs %q", len(got.rows), len(want.rows), got.rows, want.rows)
	}
	for i := range want.rows {
		switch {
		case !slices.Equal(got.rows[i], want.rows[i]):
			return fmt.Sprintf("tuple %d is %q, want %q", i, got.rows[i], want.rows[i])
		case got.polys[i] != want.polys[i]:
			return fmt.Sprintf("tuple %q: polynomial %s, want %s", want.rows[i], got.polys[i], want.polys[i])
		case got.records[i] != want.records[i]:
			return fmt.Sprintf("tuple %q: record\n  %s\nwant\n  %s", want.rows[i], got.records[i], want.records[i])
		}
	}
	if !stream && got.agg != want.agg {
		return fmt.Sprintf("aggregate\n  %s\nwant\n  %s", got.agg, want.agg)
	}
	return ""
}

// checkWorld cites every query of the world by the reference and through
// every engine and entry point, and returns the first disagreement with the
// query it concerns (-1 when it concerns the whole batch).
func checkWorld(t *testing.T, w *oracleWorld) (query int, diff string) {
	t.Helper()
	prog, err := datalog.ParseProgram(strings.Join(w.views, "\n"))
	if err != nil {
		t.Fatalf("%v\n%s", err, w)
	}
	views, err := core.FromProgram(prog)
	if err != nil {
		t.Fatalf("%v\n%s", err, w)
	}
	rc := newRefCiter(w.db(), views, w.pol)
	e := newOracleEngines(t, w, views)
	ctx := context.Background()
	reqs := make([]citare.Request, len(w.queries))
	want := make([]refAnswer, len(w.queries))
	for i, src := range w.queries {
		reqs[i] = citare.Request{Datalog: src}
		if want[i], err = rc.cite(src); err != nil {
			t.Fatalf("%v\n%s", err, w)
		}
	}
	stream := func(cite func(context.Context, citare.Request, func(citare.Tuple) error) error, req citare.Request) (refAnswer, error) {
		var a refAnswer
		err := cite(ctx, req, func(tu citare.Tuple) error {
			a.rows = append(a.rows, tu.Values)
			a.polys, a.records = append(a.polys, tu.Polynomial), append(a.records, tu.CitationJSON)
			return nil
		})
		return a, err
	}
	engines := []struct {
		name string
		c    *citare.Citer
	}{{"plain", e.plain}, {"shards=3", e.sharded}, {"lsm", e.lsm}}
	for i, req := range reqs {
		check := func(how string, got refAnswer, err error, isStream bool) string {
			if err != nil {
				return how + ": " + err.Error()
			}
			if d := disagreement(got, want[i], isStream); d != "" {
				return how + ": " + d
			}
			return ""
		}
		var diffs []string
		for _, en := range engines {
			ct, err := en.c.Cite(ctx, req)
			if err == nil {
				diffs = append(diffs, check(en.name+" Cite", fromCitation(ct), nil, false))
			} else {
				diffs = append(diffs, check(en.name+" Cite", refAnswer{}, err, false))
			}
			got, err := stream(en.c.CiteEach, req)
			diffs = append(diffs, check(en.name+" CiteEach", got, err, true))
		}
		for _, how := range []string{"cached Cite (miss)", "cached Cite (hit)"} {
			ct, err := e.cached.Cite(ctx, req)
			if err == nil {
				diffs = append(diffs, check(how, fromCitation(ct), nil, false))
			} else {
				diffs = append(diffs, check(how, refAnswer{}, err, false))
			}
		}
		got, err := stream(e.cached.CiteEach, req)
		diffs = append(diffs, check("cached CiteEach (replay)", got, err, true))
		for _, d := range diffs {
			if d != "" {
				return i, d
			}
		}
	}
	// The batches: the world's queries at once, plain and through a fresh
	// cache (misses that store, then hits).
	batch := func(how string, cts []*citare.Citation, err error) (int, string) {
		if err != nil {
			return -1, how + ": " + err.Error()
		}
		for i, ct := range cts {
			if d := disagreement(fromCitation(ct), want[i], false); d != "" {
				return i, how + ": " + d
			}
		}
		return -1, ""
	}
	items := func(its []citare.BatchItem) ([]*citare.Citation, error) {
		cts := make([]*citare.Citation, len(its))
		for i, it := range its {
			if it.Err != nil {
				return nil, it.Err
			}
			cts[i] = it.Citation
		}
		return cts, nil
	}
	fresh := citare.NewCached(e.plain)
	for _, en := range append(engines, struct {
		name string
		c    *citare.Citer
	}{"cached", nil}) {
		var cts []*citare.Citation
		var err error
		if en.c == nil {
			cts, err = items(fresh.CiteBatchItems(ctx, reqs))
		} else {
			cts, err = items(en.c.CiteBatchItems(ctx, reqs))
		}
		if i, d := batch(en.name+" CiteBatchItems", cts, err); d != "" {
			return i, d
		}
	}
	return -1, ""
}

// shrinkWorld narrows a world that disagrees on one query: tuples, then
// views, go one at a time while the disagreement stays.
func shrinkWorld(t *testing.T, w *oracleWorld) *oracleWorld {
	t.Helper()
	fails := func(c *oracleWorld) bool {
		_, d := checkWorld(t, c)
		return d != ""
	}
	for i := 0; i < len(w.tuples); {
		c := *w
		c.tuples = slices.Delete(slices.Clone(w.tuples), i, i+1)
		if fails(&c) {
			*w = c
			continue
		}
		i++
	}
	for i := 0; i < len(w.views); {
		c := *w
		c.views = slices.Delete(slices.Clone(w.views), i, i+1)
		if len(c.views) > 0 && fails(&c) {
			*w = c
			continue
		}
		i++
	}
	return w
}

// TestReferenceCiterMatchesEngines holds every engine — plain, three shards,
// an LSM store, behind a citation cache — and every facade entry point —
// Cite, CiteEach, CiteBatchItems; a cached miss, hit, stream
// replay and batch — against the reference citer: the paper's examples as
// fixed points, then seeded random worlds until at least 10k query instances
// agreed. A disagreement is shrunk before it is reported.
func TestReferenceCiterMatchesEngines(t *testing.T) {
	if _, d := checkWorld(t, paperWorld()); d != "" {
		t.Fatalf("the paper's examples: %s", d)
	}
	const want = 10000
	instances := 0
	for seed := int64(1); instances < want; seed++ {
		w := genWorld(seed)
		if q, d := checkWorld(t, w); d != "" {
			if q >= 0 {
				w.queries = w.queries[q : q+1]
			}
			w = shrinkWorld(t, w)
			_, shrunk := checkWorld(t, w)
			t.Fatalf("%s\nshrunk: %s\n%s", d, shrunk, w)
		}
		instances += len(w.queries)
	}
	t.Logf("%d instances agree", instances)
}

// TestReferenceCiterFallbackRewriting holds a rewriting enumerated on its own
// against the reference: VN's expansion R(A, B), R(A, C) is not a renaming of
// Q(A) :- R(A, B), whose other rewriting, VE, is read off the output
// evaluation's frames; both sum over the same bindings in the reference.
// Under a policy without +-idempotence the coefficients must match as well.
func TestReferenceCiterFallbackRewriting(t *testing.T) {
	schema := storage.NewSchema()
	schema.MustAddRelation(&storage.RelSchema{Name: "R", Cols: []storage.Column{{Name: "c0"}, {Name: "c1"}}})
	raw := core.Policy{Times: core.InterpJoin, Plus: core.InterpUnion, PlusR: core.InterpUnion, Agg: core.InterpUnion}
	for name, pol := range map[string]core.Policy{"default": core.DefaultPolicy(), "raw": raw} {
		w := &oracleWorld{
			name:   "fallback " + name,
			schema: schema,
			tuples: [][]string{{"R", "a", "b"}, {"R", "a", "c"}, {"R", "b", "b"}, {"R", "c", "a"}},
			views: []string{
				"view λA. VE(A) :- R(A, B).\ncite VE λA. CVE(A, B) :- R(A, B).",
				"view λA. VN(A) :- R(A, B), R(A, C).\ncite VN λA. CVN(A, C) :- R(A, C).",
			},
			pol:     pol,
			queries: []string{`Q(A) :- R(A, B)`, `Q(A) :- R(A, B), A = "a"`, `Q(A, B) :- R(A, B)`},
		}
		if _, d := checkWorld(t, w); d != "" {
			t.Fatalf("%s\n%s", d, w)
		}
	}
}
