package format

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The immutability contract (see the package comment) and its two reference
// implementations, kept here so the package itself carries one Equal and one
// encoder: keyOracle is the canonical string encoding Equal used to compare,
// oracleJSON the strconv.Quote-based writer the three JSON spellings used to
// come from, which still holds wherever its output is JSON.

// keyOracle encodes a value canonically (objects by sorted keys): two values
// are semantically equal iff their encodings are.
func keyOracle(v Value) string {
	var sb strings.Builder
	var walk func(Value)
	walk = func(v Value) {
		switch v.Kind {
		case KString:
			sb.WriteString("s" + strconv.Quote(v.Str))
		case KList:
			sb.WriteString("l[")
			for i, e := range v.List {
				if i > 0 {
					sb.WriteByte(',')
				}
				walk(e)
			}
			sb.WriteByte(']')
		case KObject:
			keys := v.Obj.Keys()
			sort.Strings(keys)
			sb.WriteString("o{")
			for i, k := range keys {
				if i > 0 {
					sb.WriteByte(',')
				}
				sb.WriteString(strconv.Quote(k) + ":")
				e, _ := v.Obj.Get(k)
				walk(e)
			}
			sb.WriteByte('}')
		}
	}
	walk(v)
	return sb.String()
}

// oracleJSON is the spelling the spaced (indent < 0) and indented encodings
// have always had wherever it is JSON: strconv.Quote for every key and
// scalar.
func oracleJSON(v Value, indent int) string {
	var sb strings.Builder
	var walk func(v Value, depth int)
	pad := func(d int) {
		if indent >= 0 {
			sb.WriteString("\n" + strings.Repeat(" ", indent*d))
		}
	}
	sep := func(i int) {
		if i > 0 {
			sb.WriteByte(',')
			if indent < 0 {
				sb.WriteByte(' ')
			}
		}
	}
	walk = func(v Value, depth int) {
		switch v.Kind {
		case KString:
			sb.WriteString(strconv.Quote(v.Str))
		case KList:
			if len(v.List) == 0 {
				sb.WriteString("[]")
				return
			}
			sb.WriteByte('[')
			for i, e := range v.List {
				sep(i)
				pad(depth + 1)
				walk(e, depth+1)
			}
			pad(depth)
			sb.WriteByte(']')
		case KObject:
			if v.Obj.Len() == 0 {
				sb.WriteString("{}")
				return
			}
			sb.WriteByte('{')
			for i, k := range v.Obj.Keys() {
				sep(i)
				pad(depth + 1)
				sb.WriteString(strconv.Quote(k) + ": ")
				e, _ := v.Obj.Get(k)
				walk(e, depth+1)
			}
			pad(depth)
			sb.WriteByte('}')
		}
	}
	walk(v, 0)
	return sb.String()
}

// oracleWire is what citesrv has always put on the wire for a streamed
// citation: encoding/json compacting the spaced spelling as a RawMessage,
// HTML escaping on. It fails when the spaced spelling is not JSON (strconv's
// Go-only escapes).
func oracleWire(v Value) (string, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(json.RawMessage(oracleJSON(v, -1))); err != nil {
		return "", err
	}
	return strings.TrimSuffix(buf.String(), "\n"), nil
}

// randomValues grows a pool of nested values that alias each other: every new
// list or object is assembled from values already in the pool, the way
// citations are assembled from shared token records.
func randomValues(r *rand.Rand, n int) []Value {
	words := []string{"", "a", "b", "gpcr", "Hay", "Poyner", `q"uote`, "<&>", "é\u2028", "\x01\xff"}
	keys := []string{"ID", "Name", "Committee", "Type", "Text"}
	pool := make([]Value, 0, n)
	for i := 0; i < 4; i++ {
		pool = append(pool, S(words[r.Intn(len(words))]))
	}
	for len(pool) < n {
		pick := func() Value { return pool[r.Intn(len(pool))] }
		switch r.Intn(3) {
		case 0:
			pool = append(pool, S(words[r.Intn(len(words))]))
		case 1:
			list := make([]Value, r.Intn(4))
			for i := range list {
				list[i] = pick()
			}
			pool = append(pool, L(list...))
		default:
			obj := NewObject()
			for _, k := range r.Perm(len(keys))[:r.Intn(len(keys)+1)] {
				obj.Set(keys[k], pick())
			}
			pool = append(pool, O(obj))
		}
	}
	return pool
}

// TestCombinatorsDoNotMutateOperands: records are shared, so a combinator
// that wrote into an operand would corrupt every citation aliasing it. The
// canonical encoding of every pool value must be the same after any number
// of merges and unions over the pool.
func TestCombinatorsDoNotMutateOperands(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		pool := randomValues(r, 60)
		before := make([]string, len(pool))
		for i, v := range pool {
			before[i] = keyOracle(v) + "\x00" + oracleJSON(v, -1)
		}
		for i := 0; i < 300; i++ {
			a, b, c := pool[r.Intn(len(pool))], pool[r.Intn(len(pool))], pool[r.Intn(len(pool))]
			switch r.Intn(3) {
			case 0:
				MergeValues(a, b)
			case 1:
				UnionValues(a, b, c, a)
			default:
				if a.Kind == KObject && b.Kind == KObject {
					// Merge a merge: the result of one combinator is an
					// operand of the next.
					MergeObjects(MergeObjects(a.Obj, b.Obj), a.Obj)
				}
			}
		}
		for i, v := range pool {
			if got := keyOracle(v) + "\x00" + oracleJSON(v, -1); got != before[i] {
				t.Fatalf("seed %d: pool value %d was mutated by a combinator:\n before %s\n after  %s", seed, i, before[i], got)
			}
		}
	}
}

// shuffled rebuilds v with every object's keys in a random order (lists keep
// theirs) and no storage shared with v.
func shuffled(r *rand.Rand, v Value) Value {
	switch v.Kind {
	case KList:
		out := make([]Value, len(v.List))
		for i, e := range v.List {
			out[i] = shuffled(r, e)
		}
		return L(out...)
	case KObject:
		keys := v.Obj.Keys()
		obj := NewObject()
		for _, i := range r.Perm(len(keys)) {
			e, _ := v.Obj.Get(keys[i])
			obj.Set(keys[i], shuffled(r, e))
		}
		return O(obj)
	}
	return v
}

// TestEqualMatchesKeyOracle: structural Equal (and the hash UnionValues pairs
// it with) against the canonical-encoding oracle, on aliased pairs, on
// key-reordered deep copies, and on reversed lists.
func TestEqualMatchesKeyOracle(t *testing.T) {
	check := func(a, b Value) {
		t.Helper()
		want := keyOracle(a) == keyOracle(b)
		if got := a.Equal(b); got != want {
			t.Fatalf("Equal = %v, oracle = %v:\n a %s\n b %s", got, want, a.JSON(), b.JSON())
		}
		if b.Equal(a) != want {
			t.Fatalf("Equal is not symmetric:\n a %s\n b %s", a.JSON(), b.JSON())
		}
		if want && a.hash() != b.hash() {
			t.Fatalf("equal values hash apart:\n a %s\n b %s", a.JSON(), b.JSON())
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		pool := randomValues(r, 50)
		for _, a := range pool {
			for _, b := range pool {
				check(a, b)
			}
			check(a, shuffled(r, a))
			if a.Kind == KList {
				rev := make([]Value, len(a.List))
				for i, e := range a.List {
					rev[len(rev)-1-i] = e
				}
				check(a, L(rev...))
			}
		}
	}
	check(L(), Value{Kind: KList})
	check(O(NewObject()), Value{Kind: KObject})
}

// TestUnionMatchesKeyedUnion: UnionValues must keep exactly the operands the
// key-deduplicating union kept, in the same order.
func TestUnionMatchesKeyedUnion(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		pool := randomValues(r, 40)
		ops := make([]Value, 12)
		for i := range ops {
			ops[i] = pool[r.Intn(len(pool))]
		}
		var want []string
		seen := map[string]bool{}
		for _, v := range ops {
			elems := []Value{v}
			if v.Kind == KList {
				elems = v.List
			}
			for _, e := range elems {
				if k := keyOracle(e); !seen[k] {
					seen[k] = true
					want = append(want, k)
				}
			}
		}
		u := UnionValues(ops...)
		got := []Value{u}
		if len(want) != 1 {
			got = u.List
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: union kept %d operands, want %d", seed, len(got), len(want))
		}
		for i := range got {
			if keyOracle(got[i]) != want[i] {
				t.Fatalf("seed %d: union operand %d differs", seed, i)
			}
		}
	}
}

// oracleString is encoding/json's spelling of a Go string.
func oracleString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// FuzzAppendJSON holds every spelling of the encoder — spaced, indented and
// wire — to JSON that decodes back to the text it encodes, a byte that is not
// UTF-8 as U+FFFD (string([]rune(s))), and pins it to the bytes citations
// have always had wherever those were JSON: the spaced and indented
// spellings are then strconv.Quote's, and the wire spelling is
// encoding/json's compaction of the spaced one, which escapes <, > and & on
// top — two regimes, and the way an encoder change could move wire bytes
// unnoticed.
func FuzzAppendJSON(f *testing.F) {
	for _, s := range []string{
		"", "plain", `q"uo\te`, "<script>&amp;</script>", "line\nbreak\ttab", "\x00\x01\a\b\f\v\x7f",
		"\xff\xfe invalid", "caf\u00e9 \u00b7 \u2028\u2029", "\U0001F600 \U000E0001", "\u0080\ufeff",
	} {
		f.Add(s, "Key")
		f.Add("v", s)
	}
	f.Fuzz(func(t *testing.T, s, k string) {
		v := O(NewObject().
			Set(k, S(s)).
			Set("list", L(S(s), O(NewObject().Set(s, L())), S("<"+s+">"))).
			Set("empty", O(NewObject())))
		text := string([]rune(s))
		for _, indent := range []int{Spaced, 0, 2, Wire} {
			// Appending must extend dst, not restart it.
			got := AppendJSON([]byte("x"), v, indent)[1:]
			var decoded struct {
				List []any `json:"list"`
			}
			if err := json.Unmarshal(got, &decoded); err != nil {
				t.Fatalf("indent %d: not JSON: %v\n%s", indent, err, got)
			}
			key, _ := decoded.List[1].(map[string]any)
			if _, ok := key[text]; decoded.List[0] != text || decoded.List[2] != "<"+text+">" || !ok {
				t.Fatalf("indent %d: decodes to %q, want %q", indent, decoded.List, text)
			}
			want, err := oracleWire(v)
			if indent != Wire {
				want = oracleJSON(v, indent)
				if !json.Valid([]byte(want)) {
					err = errors.New("strconv's spelling is not JSON")
				}
			}
			if err == nil && string(got) != want {
				t.Fatalf("indent %d:\n got %s\nwant %s", indent, got, want)
			}
		}
		// The third spelling, a Go string as encoding/json marshals it.
		if got, want := AppendJSONString([]byte("x"), s)[1:], oracleString(s); string(got) != want {
			t.Fatalf("string:\n got %s\nwant %s", got, want)
		}
	})
}

// TestSharedRecordsConcurrentUse: published records are read by every request
// that cites them. Combining, comparing and encoding the same records from
// several goroutines at once must be race-free (the one write a read can
// cause, the remembered hash, is atomic) and must give every goroutine the
// same answer.
func TestSharedRecordsConcurrentUse(t *testing.T) {
	pool := randomValues(rand.New(rand.NewSource(42)), 60)
	want := keyOracle(UnionValues(pool...))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				a, b := pool[r.Intn(len(pool))], pool[r.Intn(len(pool))]
				MergeValues(a, b).Equal(MergeValues(a, b))
				AppendJSON(nil, a, Wire)
			}
			if got := keyOracle(UnionValues(pool...)); got != want {
				t.Errorf("goroutine %d: union over the shared pool differs", g)
			}
		}(g)
	}
	wg.Wait()
}
