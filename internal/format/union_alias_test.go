package format

import (
	"fmt"
	"testing"
)

// The hot-key regression gate (ISSUE 10 satellite 1): a result set citing one
// hot work repeats the same rendered token — the same *Object pointer, shared
// through the token cache — once per tuple. UnionValues must dedup repeats by
// pointer identity before doing any O(size) work per operand, or a 32k-citer
// aggregate degrades to O(in-degree²).

// hotObject builds a rendered-token-shaped object whose CitedBy list has n
// entries, mirroring the VCites hot-work citation.
func hotObject(n int) *Object {
	cited := make([]Value, n)
	for i := range cited {
		cited[i] = S(fmt.Sprintf("w%07d", i))
	}
	return NewObject().
		Set("Cited", S("w0000000")).
		Set("Title", S("Title-0")).
		Set("CitedBy", L(cited...))
}

// TestUnionAliasedLinear pins the linear behavior with a hard allocs ceiling:
// unioning n aliases of one large object must hash the object once, not n
// times. A per-operand canonical encoding costs ≥10 allocs per alias (buffer
// growth + string conversion), i.e. >80000 for n=8192; the cached hash and
// the pointer comparison need only the union bookkeeping.
func TestUnionAliasedLinear(t *testing.T) {
	const n = 8192
	obj := hotObject(n) // key size scales with n too, as with a real hot work
	vals := make([]Value, n)
	for i := range vals {
		vals[i] = O(obj)
	}
	got := UnionValues(vals...)
	if got.Kind != KObject || got.Obj != obj {
		t.Fatalf("union of aliases should collapse to the object itself, got kind %v", got.Kind)
	}
	allocs := testing.AllocsPerRun(10, func() {
		_ = UnionValues(vals...)
	})
	// Map/slice bookkeeping only. Ceiling leaves ~3x headroom; the quadratic
	// path sits four orders of magnitude above.
	if allocs > 120 {
		t.Fatalf("UnionValues over %d aliased operands: %.0f allocs/op — per-operand encoding is back", n, allocs)
	}
}

// TestUnionAliasedMatchesValueDedup: pointer dedup must not change results —
// aliases, equal-but-distinct objects, and flattened lists all dedup exactly
// as the value-keyed union did.
func TestUnionAliasedMatchesValueDedup(t *testing.T) {
	a := hotObject(3)
	b := hotObject(3) // equal by value, distinct pointer
	c := NewObject().Set("Other", S("x"))
	got := UnionValues(O(a), O(b), O(a), L(O(c), O(a)), O(c))
	want := UnionValues(O(a), O(b), O(c)) // value semantics: a==b collapse
	if keyOracle(got) != keyOracle(want) {
		t.Fatalf("pointer-dedup union diverged:\n got %s\nwant %s", got.JSON(), want.JSON())
	}
	if got.Kind != KList || len(got.List) != 2 {
		t.Fatalf("want [a, c], got %s", got.JSON())
	}
}
