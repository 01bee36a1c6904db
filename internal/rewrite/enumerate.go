package rewrite

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"citare/internal/cq"
)

// Options tunes rewriting enumeration.
type Options struct {
	// AllowPartial also enumerates partial rewritings (views + base
	// relations). Total rewritings are always enumerated.
	AllowPartial bool
	// MaxRewritings bounds the number of returned rewritings (0 = no
	// bound). Enumeration is deterministic, so the bound is stable.
	MaxRewritings int
}

// candidate is a usable view occurrence: a homomorphism from the view's body
// into the query.
type candidate struct {
	view    *cq.Query // original view (for identity)
	def     *cq.Query // view normalized
	viewIdx int
	args    []cq.Term // view head under the homomorphism
	covered []int     // sorted query-atom indices in the image
	// retrievable are query variables exposed through the view's head.
	retrievable map[string]bool
	// touched are query variables occurring in covered atoms.
	touched map[string]bool
}

// key returns a collision-free identity for deduplication: the view index,
// the length-prefixed head-argument keys (term keys may contain arbitrary
// constant bytes, so explicit framing — not rendering the slice — keeps
// distinct candidates distinct), and the covered atom indices.
func (c *candidate) key() string {
	var sb strings.Builder
	sb.WriteString(strconv.Itoa(c.viewIdx))
	for _, t := range c.args {
		k := t.Key()
		sb.WriteByte('|')
		sb.WriteString(strconv.Itoa(len(k)))
		sb.WriteByte(':')
		sb.WriteString(k)
	}
	sb.WriteByte('#')
	for _, i := range c.covered {
		sb.WriteByte(',')
		sb.WriteString(strconv.Itoa(i))
	}
	return sb.String()
}

// Views is a view list prepared for enumeration: every definition is
// validated, normalized and renamed apart from any query once, instead of
// once per enumerated query.
type Views struct {
	views []preparedView
}

// preparedView is one usable view: the definition as given (a rewriting's
// ViewAtom points at it) beside its normalized form, which Expand reads, and
// that form over fresh variables.
type preparedView struct {
	view  *cq.Query
	idx   int // position in the list PrepareViews was given
	def   *cq.Query
	fresh *cq.Query
}

// PrepareViews validates and normalizes the view definitions. An
// unsatisfiable definition is dropped: it can cover nothing.
func PrepareViews(views []*cq.Query) (*Views, error) {
	vs := &Views{}
	for vi, view := range views {
		if err := view.Validate(); err != nil {
			return nil, fmt.Errorf("rewrite: view %s: %w", view.Name, err)
		}
		def, _, sat := normalizeView(view)
		if !sat {
			continue
		}
		fresh, _, _ := def.Freshen(fmt.Sprintf("w%d_", vi), 0)
		vs.views = append(vs.views, preparedView{view: view, idx: vi, def: def, fresh: fresh})
	}
	return vs, nil
}

// Enumerate returns the rewritings of q using the views, per Definition 2.2.
// Every returned rewriting is certified equivalent to q. The query is
// normalized and minimized first; an unsatisfiable query yields no
// rewritings.
func Enumerate(q *cq.Query, views []*cq.Query, opts Options) ([]*Rewriting, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	norm, _, sat := q.NormalizeConstants()
	if !sat {
		return nil, nil
	}
	vs, err := PrepareViews(views)
	if err != nil {
		return nil, err
	}
	return vs.Enumerate(cq.Minimize(norm), opts), nil
}

// Enumerate is the package-level Enumerate for a query that is already
// valid, normalized and minimized.
func (vs *Views) Enumerate(min *cq.Query, opts Options) []*Rewriting {
	cands := vs.candidates(min)
	covers := enumerateCovers(min, cands, opts)

	var out []*Rewriting
	seen := make(map[string]bool)
	for _, cov := range covers {
		r := assemble(min, cov)
		if !exposureOK(min, cov) {
			continue
		}
		if !r.equivalentToQuery() || removableSubgoal(r) || baseReplaceableByView(r, cands) {
			continue
		}
		if k := r.Key(); !seen[k] {
			seen[k] = true
			out = append(out, r)
			if opts.MaxRewritings > 0 && len(out) >= opts.MaxRewritings {
				break
			}
		}
	}
	SortByKey(out, func(r *Rewriting) *Rewriting { return r })
	return out
}

// SortByKey puts rewritings of one query — or whatever carries one, which of
// says — into the order Enumerate returns them in: by Key with the query's
// variables renamed canonically (cq.Query.CanonicalRenaming), so that queries
// equal up to renaming variables, which share a citation, order their
// rewritings alike; where a preference order ties, the first one is kept. The
// key spells constants, so the order is the one part of an enumeration that
// renaming constants does not preserve: a Rebind is followed by a re-sort.
func SortByKey[T any](xs []T, of func(T) *Rewriting) {
	if len(xs) > 1 {
		SortBound(xs, of, of(xs[0]).Query, cq.Rebind{})
	}
}

// SortBound puts rewritings of one query in the order SortByKey gives the
// rewritings r.Rebind(rb, q) of q, without building them.
func SortBound[T any](xs []T, of func(T) *Rewriting, q *cq.Query, rb cq.Rebind) {
	type keyed struct {
		key string
		x   T
	}
	ks := make([]keyed, len(xs))
	ren := q.CanonicalRenaming()
	for i, x := range xs {
		ks[i] = keyed{of(x).renamed(ren, rb).Key(), x}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	for i, k := range ks {
		xs[i] = k.x
	}
}

// candidates enumerates every homomorphism from each view's body into the
// query's atoms.
func (vs *Views) candidates(q *cq.Query) []*candidate {
	var out []*candidate
	seen := make(map[string]bool)
	for i := range vs.views {
		pv := &vs.views[i]
		cq.Homomorphisms(pv.fresh.Atoms, pv.fresh.Comps, q, make(cq.Subst), func(hom cq.Subst, image []int) bool {
			if c := buildCandidate(q, pv, hom, image); c != nil {
				if k := c.key(); !seen[k] {
					seen[k] = true
					out = append(out, c)
				}
			}
			return true
		})
	}
	return out
}

// buildCandidate is the view occurrence hom makes of pv, whose atoms land on
// the query atoms image indexes.
func buildCandidate(q *cq.Query, pv *preparedView, hom cq.Subst, image []int) *candidate {
	fresh := pv.fresh
	c := &candidate{
		view:        pv.view,
		def:         pv.def,
		viewIdx:     pv.idx,
		covered:     slices.Compact(slices.Sorted(slices.Values(image))),
		retrievable: make(map[string]bool),
		touched:     make(map[string]bool),
	}
	for _, j := range c.covered {
		for _, t := range q.Atoms[j].Args {
			if t.IsVar() {
				c.touched[t.Name] = true
			}
		}
	}
	c.args = make([]cq.Term, len(fresh.Head))
	for i, t := range fresh.Head {
		if t.IsConst {
			c.args[i] = t
			continue
		}
		img, ok := hom[t.Name]
		if !ok {
			return nil // unsafe view head (Validate should prevent)
		}
		c.args[i] = img
		if img.IsVar() {
			c.retrievable[img.Name] = true
		}
	}
	return c
}

// cover is one assignment of every query atom to either a candidate or a
// base atom.
type cover struct {
	cands []*candidate
	base  []int // query atom indices kept as base atoms
}

// enumerateCovers finds all exact disjoint covers of q's atoms.
func enumerateCovers(q *cq.Query, cands []*candidate, opts Options) []cover {
	n := len(q.Atoms)
	// Candidates indexed by their smallest covered atom for duplicate-free
	// enumeration.
	byFirst := make([][]*candidate, n)
	for _, c := range cands {
		if len(c.covered) == 0 {
			continue
		}
		byFirst[c.covered[0]] = append(byFirst[c.covered[0]], c)
	}
	var out []cover
	coveredBy := make([]int, n) // 0 = uncovered, 1 = view, 2 = base
	var cur cover
	var rec func(int)
	rec = func(i int) {
		for i < n && coveredBy[i] != 0 {
			i++
		}
		if i == n {
			cp := cover{cands: append([]*candidate(nil), cur.cands...), base: append([]int(nil), cur.base...)}
			out = append(out, cp)
			return
		}
		// Option 1: cover atom i with a candidate whose first atom is i
		// (every candidate covering i with smaller first atom was chosen —
		// or not — at that smaller index).
		for _, c := range byFirst[i] {
			ok := true
			for _, j := range c.covered {
				if coveredBy[j] != 0 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for _, j := range c.covered {
				coveredBy[j] = 1
			}
			cur.cands = append(cur.cands, c)
			rec(i + 1)
			cur.cands = cur.cands[:len(cur.cands)-1]
			for _, j := range c.covered {
				coveredBy[j] = 0
			}
		}
		// Option 2: leave atom i as a base atom (partial rewritings).
		// Candidates covering i but starting earlier are handled at their
		// first index, so this is complete.
		if opts.AllowPartial {
			coveredBy[i] = 2
			cur.base = append(cur.base, i)
			rec(i + 1)
			cur.base = cur.base[:len(cur.base)-1]
			coveredBy[i] = 0
		}
	}
	rec(0)
	return out
}

// exposureOK checks the MiniCon property on a full cover: any query variable
// a unit shares with the rest of the query (other units, the head, or a
// comparison) must be exposed through that unit's view head. Base atoms
// expose everything.
func exposureOK(q *cq.Query, cov cover) bool {
	// Count in how many units each variable occurs.
	unitCount := make(map[string]int)
	bump := func(vars map[string]bool) {
		for v := range vars {
			unitCount[v]++
		}
	}
	for _, c := range cov.cands {
		bump(c.touched)
	}
	for _, i := range cov.base {
		vars := make(map[string]bool)
		for _, t := range q.Atoms[i].Args {
			if t.IsVar() {
				vars[t.Name] = true
			}
		}
		bump(vars)
	}
	needed := make(map[string]bool)
	for _, t := range q.Head {
		if t.IsVar() {
			needed[t.Name] = true
		}
	}
	for _, c := range q.Comps {
		if c.L.IsVar() {
			needed[c.L.Name] = true
		}
		if c.R.IsVar() {
			needed[c.R.Name] = true
		}
	}
	for _, c := range cov.cands {
		for v := range c.touched {
			if (needed[v] || unitCount[v] > 1) && !c.retrievable[v] {
				return false
			}
		}
	}
	return true
}

func assemble(q *cq.Query, cov cover) *Rewriting {
	r := &Rewriting{Query: q, Head: append([]cq.Term(nil), q.Head...)}
	for _, c := range cov.cands {
		r.ViewAtoms = append(r.ViewAtoms, ViewAtom{View: c.view, Args: append([]cq.Term(nil), c.args...), def: c.def})
	}
	for _, i := range cov.base {
		r.BaseAtoms = append(r.BaseAtoms, q.Atoms[i].Clone())
	}
	r.Comps = append(r.Comps, q.Comps...)
	return r
}

// removableSubgoal implements Definition 2.2 condition (3): a rewriting is
// invalid when dropping one of its subgoals preserves equivalence.
func removableSubgoal(r *Rewriting) bool {
	if len(r.ViewAtoms)+len(r.BaseAtoms) <= 1 {
		return false
	}
	for i := range r.ViewAtoms {
		reduced := *r
		reduced.ViewAtoms = append(append([]ViewAtom(nil), r.ViewAtoms[:i]...), r.ViewAtoms[i+1:]...)
		if reduced.equivalentToQuery() {
			return true
		}
	}
	for i := range r.BaseAtoms {
		reduced := *r
		reduced.BaseAtoms = append(append([]cq.Atom(nil), r.BaseAtoms[:i]...), r.BaseAtoms[i+1:]...)
		if reduced.equivalentToQuery() {
			return true
		}
	}
	return false
}

// baseReplaceableByView implements Definition 2.2 condition (4) for base
// subgoals: a rewriting is invalid when some subset of its base atoms can be
// replaced by a single view atom yielding an equivalent query.
func baseReplaceableByView(r *Rewriting, cands []*candidate) bool {
	if len(r.BaseAtoms) == 0 {
		return false
	}
	// Base atom identity: match by atom key against the query's atoms.
	baseKeys := make(map[string]bool, len(r.BaseAtoms))
	for _, a := range r.BaseAtoms {
		baseKeys[a.Key()] = true
	}
	for _, c := range cands {
		inBase := true
		for _, j := range c.covered {
			if !baseKeys[r.Query.Atoms[j].Key()] {
				inBase = false
				break
			}
		}
		if !inBase {
			continue
		}
		// Build the alternative rewriting: swap covered base atoms for the
		// view atom.
		coveredKeys := make(map[string]bool, len(c.covered))
		for _, j := range c.covered {
			coveredKeys[r.Query.Atoms[j].Key()] = true
		}
		alt := &Rewriting{Query: r.Query, Head: r.Head, Comps: r.Comps}
		alt.ViewAtoms = append(append([]ViewAtom(nil), r.ViewAtoms...), ViewAtom{View: c.view, Args: c.args, def: c.def})
		for _, a := range r.BaseAtoms {
			if !coveredKeys[a.Key()] {
				alt.BaseAtoms = append(alt.BaseAtoms, a)
			}
		}
		if alt.equivalentToQuery() {
			return true
		}
	}
	return false
}
