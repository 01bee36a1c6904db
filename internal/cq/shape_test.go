package cq

import (
	"reflect"
	"testing"
)

func shapeOf(qu *Query, literal ...string) (string, []string) {
	return qu.Shape(func(v string) bool {
		for _, l := range literal {
			if l == v {
				return true
			}
		}
		return false
	})
}

// TestShapeAbstractsFromLiftedConstants: queries that differ by an injective
// renaming of lifted constants share a key; their parameters come back in
// first-occurrence order, equal constants once.
func TestShapeAbstractsFromLiftedConstants(t *testing.T) {
	mk := func(a, b string) *Query {
		return q("Q", []Term{v("N"), c(b)}, []Atom{atom("R", c(a), v("N")), atom("S", v("N"), c(b), c(a))},
			Comparison{L: v("N"), Op: OpLt, R: c("9")})
	}
	k1, p1 := shapeOf(mk("17", "x"), "9")
	k2, p2 := shapeOf(mk("x", "17"), "9") // the same two constants, swapped
	if k1 != k2 {
		t.Fatalf("renamed constants changed the key:\n%q\n%q", k1, k2)
	}
	if want := []string{"x", "17"}; !reflect.DeepEqual(p1, want) {
		t.Fatalf("params %q, want %q (head first, each value once)", p1, want)
	}
	if want := []string{"17", "x"}; !reflect.DeepEqual(p2, want) {
		t.Fatalf("params %q, want %q", p2, want)
	}
	// The equality pattern is part of the shape.
	if k3, _ := shapeOf(mk("x", "x"), "9"); k3 == k1 {
		t.Fatal("one constant in both places shares a key with two distinct constants")
	}
	// A literal keeps its value; lifting it is a different shape.
	if k4, _ := shapeOf(mk("17", "x"), "8"); k4 == k1 {
		t.Fatal("a literal's value is not in the key")
	}
	if k5, _ := mk("17", "x").Shape(nil); k5 == k1 {
		t.Fatal("lifting the literal too left the key unchanged")
	}
}

// TestShapeKeyIsCollisionFree: nothing a name or a constant spells can pass
// for the key's framing of something else.
func TestShapeKeyIsCollisionFree(t *testing.T) {
	one := func(pred string, t Term) *Query { return q("Q", []Term{v("X")}, []Atom{atom(pred, v("X"), t)}) }
	literalAll := func(string) bool { return true }
	type kase struct {
		qu      *Query
		literal func(string) bool
	}
	cases := []kase{
		{one("R", c("a")), nil},          // a lifted constant
		{one("R", c("p0,")), literalAll}, // a literal spelling a lifted position
		{one("R", v("p0,")), nil},        // a variable spelling one
		{one("R", c("1:a")), literalAll}, // a literal spelling a framed string
		{one("R", c("a")), literalAll},   // the literal itself
		{one("R", v("a")), nil},          // a variable of the same name
		{one("Rv1:X", c("a")), nil},      // a predicate swallowing the next term's frame
		{q("Q", []Term{v("X")}, []Atom{atom("R", v("X")), atom("R", c("a"))}), nil}, // arity by atom boundary
		{q("Q", []Term{v("X")}, []Atom{atom("R", v("X"), c("a"))}, Comparison{L: v("X"), Op: OpLt, R: c("a")}), nil},
		{q("Q", []Term{v("X")}, []Atom{atom("R", v("X"), c("a"))}, Comparison{L: v("X"), Op: OpLe, R: c("a")}), nil},
		{&Query{Name: "Q", Params: []string{"X"}, Head: []Term{v("X")}, Atoms: []Atom{atom("R", v("X"), c("a"))}}, nil},
	}
	seen := map[string]int{}
	for i, k := range cases {
		key, _ := k.qu.Shape(k.literal)
		if j, dup := seen[key]; dup {
			t.Fatalf("cases %d and %d share the key %q", j, i, key)
		}
		seen[key] = i
	}
}

// TestRebind: the renaming is simultaneous (a swap swaps), leaves other
// constants and all variables alone, copies what it touches, and carries a
// query to one with the target's parameters under the same key.
func TestRebind(t *testing.T) {
	src := q("Q", []Term{v("N"), c("a")}, []Atom{atom("R", c("a"), c("b"), c("k"), v("N"))},
		Comparison{L: v("N"), Op: OpNe, R: c("b")})
	key, params := shapeOf(src, "k")
	rb := NewRebind(params, []string{"b", "a"})
	if rb.Identity() {
		t.Fatal("a swap is not the identity")
	}
	got := rb.Query(src)
	want := q("Q", []Term{v("N"), c("b")}, []Atom{atom("R", c("b"), c("a"), c("k"), v("N"))},
		Comparison{L: v("N"), Op: OpNe, R: c("a")})
	if got.String() != want.String() {
		t.Fatalf("rebound query\n%s\nwant\n%s", got, want)
	}
	if src.Atoms[0].Args[0].Value != "a" || src.Head[1].Value != "a" {
		t.Fatal("Rebind changed its source")
	}
	gk, gp := shapeOf(got, "k")
	if gk != key || !reflect.DeepEqual(gp, []string{"b", "a"}) {
		t.Fatalf("rebound query has key %q params %q, want key %q params [b a]", gk, gp, key)
	}
	if !NewRebind(params, append([]string(nil), params...)).Identity() {
		t.Fatal("equal parameter lists are the identity")
	}
	if id := (Rebind{}); id.Value("a") != "a" || !id.Identity() {
		t.Fatal("the zero Rebind is the identity")
	}
}
