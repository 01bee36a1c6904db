package format

import (
	"fmt"
	"strings"
	"unicode"
)

// Renderer converts a citation value into a target syntax.
type Renderer interface {
	Name() string
	Render(v Value) string
}

// JSONRenderer renders citations as indented JSON.
type JSONRenderer struct {
	// Indent is the indentation width; 0 renders compactly on one line.
	Indent int
}

// Name implements Renderer.
func (JSONRenderer) Name() string { return "json" }

// Render implements Renderer.
func (r JSONRenderer) Render(v Value) string { return string(r.AppendRender(nil, v)) }

// AppendRender appends what Render returns to dst.
func (r JSONRenderer) AppendRender(dst []byte, v Value) []byte {
	if r.Indent <= 0 {
		return AppendJSON(dst, v, Spaced)
	}
	return AppendJSON(dst, v, r.Indent)
}

// XMLRenderer renders citations as XML with <citation> roots; object keys
// become element names (sanitized), lists repeat the element.
type XMLRenderer struct{}

// Name implements Renderer.
func (XMLRenderer) Name() string { return "xml" }

// Render implements Renderer.
func (XMLRenderer) Render(v Value) string {
	var sb strings.Builder
	writeXML(&sb, "citation", v, 0)
	return sb.String()
}

func xmlName(k string) string {
	var sb strings.Builder
	for i, r := range k {
		switch {
		case unicode.IsLetter(r) || r == '_':
			sb.WriteRune(r)
		case unicode.IsDigit(r) && i > 0:
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	if sb.Len() == 0 {
		return "field"
	}
	return sb.String()
}

func xmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

func writeXML(sb *strings.Builder, tag string, v Value, depth int) {
	ind := strings.Repeat("  ", depth)
	tag = xmlName(tag)
	switch v.Kind {
	case KString:
		fmt.Fprintf(sb, "%s<%s>%s</%s>\n", ind, tag, xmlEscape(v.Str), tag)
	case KList:
		fmt.Fprintf(sb, "%s<%s>\n", ind, tag)
		for _, e := range v.List {
			writeXML(sb, "item", e, depth+1)
		}
		fmt.Fprintf(sb, "%s</%s>\n", ind, tag)
	case KObject:
		fmt.Fprintf(sb, "%s<%s>\n", ind, tag)
		if v.Obj != nil {
			for _, f := range v.Obj.fields {
				writeXML(sb, f.key, f.val, depth+1)
			}
		}
		fmt.Fprintf(sb, "%s</%s>\n", ind, tag)
	}
}

// BibTeXRenderer renders citations as @misc BibTeX entries. Well-known keys
// (Owner→author, URL→howpublished, Version→note, …) map onto conventional
// BibTeX fields; everything else lands in note-style fields.
type BibTeXRenderer struct {
	// EntryKey is the citation key; "citare" when empty.
	EntryKey string
}

// Name implements Renderer.
func (BibTeXRenderer) Name() string { return "bibtex" }

// Render implements Renderer.
func (r BibTeXRenderer) Render(v Value) string {
	key := r.EntryKey
	if key == "" {
		key = "citare"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "@misc{%s,\n", key)
	writeBibFields(&sb, v, "")
	sb.WriteString("}\n")
	return sb.String()
}

func bibField(k string) string {
	switch strings.ToLower(k) {
	case "owner", "committee", "contributors", "author", "authors":
		return "author"
	case "url":
		return "howpublished"
	case "name", "title":
		return "title"
	case "version":
		return "edition"
	case "year", "date":
		return "year"
	default:
		return "note"
	}
}

func flattenBib(v Value) string {
	switch v.Kind {
	case KString:
		return v.Str
	case KList:
		parts := make([]string, 0, len(v.List))
		for _, e := range v.List {
			parts = append(parts, flattenBib(e))
		}
		return strings.Join(parts, " and ")
	case KObject:
		parts := make([]string, 0, v.Obj.Len())
		for _, f := range v.Obj.fields {
			parts = append(parts, f.key+": "+flattenBib(f.val))
		}
		return strings.Join(parts, "; ")
	}
	return ""
}

func writeBibFields(sb *strings.Builder, v Value, prefix string) {
	switch v.Kind {
	case KObject:
		fields := make(map[string][]string)
		var order []string
		for _, of := range v.Obj.fields {
			f := bibField(of.key)
			if _, seen := fields[f]; !seen {
				order = append(order, f)
			}
			val := flattenBib(of.val)
			if f == "note" {
				val = of.key + ": " + val
			}
			fields[f] = append(fields[f], val)
		}
		for _, f := range order {
			sep := ", "
			if f == "author" {
				sep = " and "
			}
			fmt.Fprintf(sb, "  %s = {%s},\n", f, strings.Join(fields[f], sep))
		}
	default:
		fmt.Fprintf(sb, "  note = {%s},\n", flattenBib(v))
	}
}

// TextRenderer renders citations as compact human-readable text.
type TextRenderer struct{}

// Name implements Renderer.
func (TextRenderer) Name() string { return "text" }

// Render implements Renderer.
func (TextRenderer) Render(v Value) string { return flattenBib(v) }

// RendererByName returns the renderer registered under name (json, xml,
// bibtex, text).
func RendererByName(name string) (Renderer, error) {
	switch strings.ToLower(name) {
	case "json":
		return JSONRenderer{Indent: 2}, nil
	case "json-compact":
		return JSONRenderer{}, nil
	case "xml":
		return XMLRenderer{}, nil
	case "bibtex":
		return BibTeXRenderer{}, nil
	case "text":
		return TextRenderer{}, nil
	}
	return nil, fmt.Errorf("format: unknown renderer %q (want json, xml, bibtex or text)", name)
}
