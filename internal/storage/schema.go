// Package storage implements the in-memory relational store that stands in
// for the DBMS underlying GtoPdb in the paper. It provides schemas with keys
// and foreign keys, set-semantics relations with hash indexes, copy-on-write
// snapshots, and CSV import/export. Versioned data — the paper's §4 "fixity"
// requirement — lives in the persistent store (internal/lsm).
package storage

import (
	"fmt"
	"strconv"
	"strings"
)

// Type is a column type. Values are stored as strings; TInt columns validate
// and compare numerically.
type Type int

// Column types.
const (
	TString Type = iota
	TInt
)

// String returns the DDL name of the type.
func (t Type) String() string {
	if t == TInt {
		return "int"
	}
	return "string"
}

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Type Type
}

// ForeignKey declares that columns Cols reference RefCols of relation RefRel.
type ForeignKey struct {
	Cols    []string
	RefRel  string
	RefCols []string
}

// RelSchema describes one relation: its columns, primary key and foreign
// keys. Key is a list of column names; an empty Key means the whole tuple is
// the identity (pure set semantics).
type RelSchema struct {
	Name        string
	Cols        []Column
	Key         []string
	ForeignKeys []ForeignKey
	// ShardKey optionally names the column a hash-partitioned deployment
	// (internal/shard) routes this relation's tuples by. Empty means the
	// first column.
	ShardKey string
}

// ColIndex returns the position of the named column, or -1.
func (rs *RelSchema) ColIndex(name string) int {
	for i, col := range rs.Cols {
		if col.Name == name {
			return i
		}
	}
	return -1
}

// ColNames returns the column names in order.
func (rs *RelSchema) ColNames() []string {
	out := make([]string, len(rs.Cols))
	for i, col := range rs.Cols {
		out[i] = col.Name
	}
	return out
}

// Arity returns the number of columns.
func (rs *RelSchema) Arity() int { return len(rs.Cols) }

// ShardKeyIndex returns the position of the relation's shard-key column:
// the declared ShardKey if set, otherwise the first column.
func (rs *RelSchema) ShardKeyIndex() int {
	if rs.ShardKey != "" {
		if i := rs.ColIndex(rs.ShardKey); i >= 0 {
			return i
		}
	}
	return 0
}

// Schema is a collection of relation schemas, ordered by declaration.
type Schema struct {
	rels  map[string]*RelSchema
	order []string
}

// NewSchema returns an empty schema.
func NewSchema() *Schema {
	return &Schema{rels: make(map[string]*RelSchema)}
}

// AddRelation declares a relation. It returns an error on duplicate names,
// duplicate columns, or key/FK references to unknown columns. Foreign-key
// target relations are validated lazily by Validate so that declaration
// order does not matter.
func (s *Schema) AddRelation(rs *RelSchema) error {
	if rs.Name == "" {
		return fmt.Errorf("storage: relation with empty name")
	}
	if _, dup := s.rels[rs.Name]; dup {
		return fmt.Errorf("storage: duplicate relation %s", rs.Name)
	}
	seen := make(map[string]bool)
	for _, col := range rs.Cols {
		if col.Name == "" {
			return fmt.Errorf("storage: relation %s has an unnamed column", rs.Name)
		}
		if seen[col.Name] {
			return fmt.Errorf("storage: relation %s has duplicate column %s", rs.Name, col.Name)
		}
		seen[col.Name] = true
	}
	for _, k := range rs.Key {
		if rs.ColIndex(k) < 0 {
			return fmt.Errorf("storage: relation %s: key column %s not declared", rs.Name, k)
		}
	}
	if rs.ShardKey != "" && rs.ColIndex(rs.ShardKey) < 0 {
		return fmt.Errorf("storage: relation %s: shard-key column %s not declared", rs.Name, rs.ShardKey)
	}
	for _, fk := range rs.ForeignKeys {
		if len(fk.Cols) != len(fk.RefCols) {
			return fmt.Errorf("storage: relation %s: foreign key arity mismatch", rs.Name)
		}
		for _, cn := range fk.Cols {
			if rs.ColIndex(cn) < 0 {
				return fmt.Errorf("storage: relation %s: FK column %s not declared", rs.Name, cn)
			}
		}
	}
	s.rels[rs.Name] = rs
	s.order = append(s.order, rs.Name)
	return nil
}

// MustAddRelation is AddRelation that panics on error; intended for static
// schema declarations.
func (s *Schema) MustAddRelation(rs *RelSchema) {
	if err := s.AddRelation(rs); err != nil {
		panic(err)
	}
}

// Relation returns the schema of the named relation, or nil.
func (s *Schema) Relation(name string) *RelSchema { return s.rels[name] }

// Relations returns relation schemas in declaration order.
func (s *Schema) Relations() []*RelSchema {
	out := make([]*RelSchema, len(s.order))
	for i, n := range s.order {
		out[i] = s.rels[n]
	}
	return out
}

// Validate checks that every foreign key references an existing relation and
// column set of matching arity.
func (s *Schema) Validate() error {
	for _, name := range s.order {
		rs := s.rels[name]
		for _, fk := range rs.ForeignKeys {
			target := s.rels[fk.RefRel]
			if target == nil {
				return fmt.Errorf("storage: relation %s: FK references unknown relation %s", name, fk.RefRel)
			}
			for _, cn := range fk.RefCols {
				if target.ColIndex(cn) < 0 {
					return fmt.Errorf("storage: relation %s: FK references unknown column %s.%s", name, fk.RefRel, cn)
				}
			}
		}
	}
	return nil
}

// String renders the schema as simple DDL-like text.
func (s *Schema) String() string {
	var sb strings.Builder
	for _, rs := range s.Relations() {
		sb.WriteString(rs.Name)
		sb.WriteByte('(')
		for i, col := range rs.Cols {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(col.Name)
			if col.Type == TInt {
				sb.WriteString(" int")
			}
		}
		sb.WriteByte(')')
		if len(rs.Key) > 0 {
			sb.WriteString(" key(" + strings.Join(rs.Key, ",") + ")")
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// checkType validates a value against a column type.
func checkType(val string, ty Type) error {
	if ty == TInt {
		if _, err := strconv.ParseInt(val, 10, 64); err != nil {
			return fmt.Errorf("storage: value %q is not an int", val)
		}
	}
	return nil
}
