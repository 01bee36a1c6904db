package format

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
)

func TestObjectInsertionOrder(t *testing.T) {
	o := NewObject().Set("B", S("2")).Set("A", S("1"))
	if got := o.JSON(); got != `{"B": "2", "A": "1"}` {
		t.Fatalf("insertion order lost: %s", got)
	}
	o.Set("B", S("3"))
	if got := o.JSON(); got != `{"B": "3", "A": "1"}` {
		t.Fatalf("re-set must keep position: %s", got)
	}
}

func TestValueEqualityIgnoresKeyOrder(t *testing.T) {
	a := NewObject().Set("X", S("1")).Set("Y", S("2"))
	b := NewObject().Set("Y", S("2")).Set("X", S("1"))
	if !a.Equal(b) {
		t.Fatal("objects differing only in key order must be equal")
	}
	if !L(S("a"), S("b")).Equal(L(S("a"), S("b"))) {
		t.Fatal("equal lists must be equal")
	}
	if L(S("a"), S("b")).Equal(L(S("b"), S("a"))) {
		t.Fatal("list order is significant")
	}
}

func TestJSONIsValidAndEscapes(t *testing.T) {
	o := NewObject().
		Set(`we"ird`, S("line\nbreak")).
		Set("list", L(S("a"), O(NewObject().Set("k", S("v")))))
	var parsed map[string]any
	if err := json.Unmarshal([]byte(o.JSON()), &parsed); err != nil {
		t.Fatalf("invalid JSON produced: %v\n%s", err, o.JSON())
	}
	if err := json.Unmarshal([]byte(o.JSONIndent(2)), &parsed); err != nil {
		t.Fatalf("invalid indented JSON: %v", err)
	}
}

func TestPaperExample21CitationShape(t *testing.T) {
	// FV1 for family 11 (Example 2.1): {ID, Name, Committee:[...]}.
	spec := &Spec{Fields: []Field{
		{Key: "ID", Kind: FScalar, Var: "F"},
		{Key: "Name", Kind: FScalar, Var: "N"},
		{Key: "Committee", Kind: FList, Var: "Pn"},
	}}
	rows := NewRows("F", "N", "Pn")
	rows.Append("11", "Calcitonin", "Hay")
	rows.Append("11", "Calcitonin", "Poyner")
	obj, err := spec.Render(rows)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"ID": "11", "Name": "Calcitonin", "Committee": ["Hay", "Poyner"]}`
	if got := obj.JSON(); got != want {
		t.Fatalf("FV1 render:\n got %s\nwant %s", got, want)
	}
}

func TestSpecGroupNested(t *testing.T) {
	// FV4 (Example 2.1): group families of a type with their committees.
	spec := &Spec{Fields: []Field{
		{Key: "Type", Kind: FScalar, Var: "Ty"},
		{Key: "Contributors", Kind: FGroup, Var: "N", Sub: []Field{
			{Key: "Name", Kind: FScalar, Var: "N"},
			{Key: "Committee", Kind: FList, Var: "Pn"},
		}},
	}}
	rows := NewRows("Ty", "N", "Pn")
	rows.Append("gpcr", "Calcitonin", "Hay")
	rows.Append("gpcr", "Calcitonin", "Poyner")
	rows.Append("gpcr", "Calcium-sensing", "Bilke")
	rows.Append("gpcr", "Calcium-sensing", "Conigrave")
	rows.Append("gpcr", "Calcium-sensing", "Shoback")
	obj, err := spec.Render(rows)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"Type": "gpcr", "Contributors": [{"Name": "Calcitonin", "Committee": ["Hay", "Poyner"]}, {"Name": "Calcium-sensing", "Committee": ["Bilke", "Conigrave", "Shoback"]}]}`
	if got := obj.JSON(); got != want {
		t.Fatalf("FV4 render:\n got %s\nwant %s", got, want)
	}
}

func TestSpecEmptyRowsAndLiterals(t *testing.T) {
	spec := &Spec{Fields: []Field{
		{Key: "Source", Kind: FLiteral, Lit: "GtoPdb"},
		{Key: "Names", Kind: FList, Var: "N"},
		{Key: "Owner", Kind: FScalar, Var: "O"},
	}}
	obj, err := spec.Render(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := obj.JSON(); got != `{"Source": "GtoPdb", "Names": []}` {
		t.Fatalf("empty render: %s", got)
	}
	if vars := spec.Vars(); strings.Join(vars, ",") != "N,O" {
		t.Fatalf("Vars: %v", vars)
	}
}

func TestUnionValuesDedup(t *testing.T) {
	a := O(NewObject().Set("ID", S("11")))
	b := O(NewObject().Set("ID", S("12")))
	u := UnionValues(a, b, a)
	if u.Kind != KList || len(u.List) != 2 {
		t.Fatalf("union must dedup: %s", u.JSON())
	}
	// Single survivor unwraps.
	if UnionValues(a, a).Kind != KObject {
		t.Fatal("singleton union should unwrap")
	}
	// Nested lists flatten one level.
	u2 := UnionValues(L(a, b), b)
	if len(u2.List) != 2 {
		t.Fatalf("flatten: %s", u2.JSON())
	}
}

func TestMergeObjectsPaperExample35(t *testing.T) {
	// · as join: factor out common elements (Example 3.5).
	a := NewObject().
		Set("ID", S("11")).
		Set("Name", S("Calcitonin")).
		Set("Committee", L(S("Hay"), S("Poyner")))
	b := NewObject().
		Set("ID", S("11")).
		Set("Name", S("Calcitonin")).
		Set("Text", S("The calcitonin peptide family")).
		Set("Contributors", L(S("Brown"), S("Smith")))
	m := MergeObjects(a, b)
	want := `{"ID": "11", "Name": "Calcitonin", "Committee": ["Hay", "Poyner"], "Text": "The calcitonin peptide family", "Contributors": ["Brown", "Smith"]}`
	if got := m.JSON(); got != want {
		t.Fatalf("merge:\n got %s\nwant %s", got, want)
	}
	// +R as join: committee lists union (second part of Example 3.5).
	c := NewObject().
		Set("ID", S("11")).
		Set("Committee", L(S("Brown"))).
		Set("Contributors", L(S("Smith")))
	m2 := MergeObjects(a, c)
	cm, _ := m2.Get("Committee")
	if cm.JSON() != `["Hay", "Poyner", "Brown"]` {
		t.Fatalf("list union: %s", cm.JSON())
	}
}

func TestMergeConflictingScalarsWiden(t *testing.T) {
	a := NewObject().Set("Version", S("22"))
	b := NewObject().Set("Version", S("23"))
	m := MergeObjects(a, b)
	v, _ := m.Get("Version")
	if v.Kind != KList || len(v.List) != 2 {
		t.Fatalf("conflicting scalars must widen into a list: %s", v.JSON())
	}
}

func TestMergeAssociativeCommutativeProperty(t *testing.T) {
	objs := []*Object{
		NewObject().Set("A", S("1")).Set("L", L(S("x"))),
		NewObject().Set("A", S("1")).Set("L", L(S("y"))),
		NewObject().Set("B", S("2")),
	}
	f := func(i, j, k uint8) bool {
		a, b, c := objs[i%3], objs[j%3], objs[k%3]
		// Associativity up to semantic equality.
		l := MergeObjects(MergeObjects(a, b), c)
		r := MergeObjects(a, MergeObjects(b, c))
		return l.Equal(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestXMLRenderer(t *testing.T) {
	o := NewObject().Set("ID", S("11")).Set("Committee", L(S("Hay <x>"), S("Poyner")))
	out := XMLRenderer{}.Render(O(o))
	if !strings.Contains(out, "<ID>11</ID>") {
		t.Fatalf("missing ID element:\n%s", out)
	}
	if !strings.Contains(out, "&lt;x&gt;") {
		t.Fatalf("unescaped XML:\n%s", out)
	}
	if !strings.HasPrefix(out, "<citation>") {
		t.Fatalf("missing root:\n%s", out)
	}
}

func TestBibTeXRenderer(t *testing.T) {
	o := NewObject().
		Set("Owner", S("Tony Harmar")).
		Set("URL", S("guidetopharmacology.org")).
		Set("Version", S("23"))
	out := BibTeXRenderer{EntryKey: "gtopdb"}.Render(O(o))
	for _, want := range []string{"@misc{gtopdb,", "author = {Tony Harmar}", "howpublished = {guidetopharmacology.org}", "edition = {23}"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRendererByName(t *testing.T) {
	for _, name := range []string{"json", "json-compact", "xml", "bibtex", "text"} {
		if _, err := RendererByName(name); err != nil {
			t.Fatalf("renderer %s: %v", name, err)
		}
	}
	if _, err := RendererByName("yaml"); err == nil {
		t.Fatal("unknown renderer accepted")
	}
}

func TestSpecStringRoundtrippable(t *testing.T) {
	spec := &Spec{Fields: []Field{
		{Key: "Type", Kind: FScalar, Var: "Ty"},
		{Key: "Src", Kind: FLiteral, Lit: "GtoPdb"},
		{Key: "Fams", Kind: FGroup, Var: "N", Sub: []Field{
			{Key: "Name", Kind: FScalar, Var: "N"},
			{Key: "Committee", Kind: FList, Var: "Pn"},
		}},
	}}
	got := spec.String()
	want := `{"Type": Ty, "Src": "GtoPdb", "Fams": group(N) {"Name": N, "Committee": [Pn]}}`
	if got != want {
		t.Fatalf("spec string:\n got %s\nwant %s", got, want)
	}
}
