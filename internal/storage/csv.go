package storage

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// Inserter is what the CSV loaders write through: a *DB, or a persistent
// store that takes the rows straight to disk. Insert must not keep vals: the
// loaders reuse it from row to row.
type Inserter interface {
	Schema() *Schema
	Insert(rel string, vals ...string) error
}

// LoadCSV reads rows from r into the named relation. When header is true the
// first record must list the relation's column names (in any order) and
// values are mapped accordingly; otherwise records are taken positionally.
func LoadCSV(db Inserter, rel string, r io.Reader, header bool) (int, error) {
	rs := db.Schema().Relation(rel)
	if rs == nil {
		return 0, fmt.Errorf("storage: unknown relation %s", rel)
	}
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true // the values are fresh strings on every read
	perm := make([]int, rs.Arity())
	for i := range perm {
		perm[i] = i
	}
	vals := make([]string, rs.Arity())
	first := true
	n := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, fmt.Errorf("storage: csv for %s: %w", rel, err)
		}
		if first && header {
			first = false
			if len(rec) != rs.Arity() {
				return 0, fmt.Errorf("storage: csv header for %s has %d columns, want %d", rel, len(rec), rs.Arity())
			}
			for i, name := range rec {
				idx := rs.ColIndex(name)
				if idx < 0 {
					return 0, fmt.Errorf("storage: csv header for %s: unknown column %q", rel, name)
				}
				if slices.Contains(rec[:i], name) {
					return 0, fmt.Errorf("storage: csv header for %s: repeated column %q", rel, name)
				}
				perm[idx] = i
			}
			continue
		}
		first = false
		if len(rec) != rs.Arity() {
			return n, fmt.Errorf("storage: csv row for %s has %d values, want %d", rel, len(rec), rs.Arity())
		}
		for i := range vals {
			vals[i] = rec[perm[i]]
		}
		if err := db.Insert(rel, vals...); err != nil {
			return n, err
		}
		n++
	}
}

// DumpCSV writes the relation (with a header row) to w.
func DumpCSV(db *DB, rel string, w io.Writer) error {
	r := db.Relation(rel)
	if r == nil {
		return fmt.Errorf("storage: unknown relation %s", rel)
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Schema().ColNames()); err != nil {
		return err
	}
	var werr error
	r.Scan(func(t Tuple) bool {
		if err := cw.Write(t); err != nil {
			werr = err
			return false
		}
		return true
	})
	if werr != nil {
		return werr
	}
	cw.Flush()
	return cw.Error()
}

// LoadDir loads <dir>/<relation>.csv (with header) for every relation in the
// schema that has a file present, in schema order, returning the number of
// tuples loaded.
func LoadDir(db Inserter, dir string) (int, error) {
	total := 0
	for _, rs := range db.Schema().Relations() {
		path := filepath.Join(dir, rs.Name+".csv")
		f, err := os.Open(path)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return total, err
		}
		n, err := LoadCSV(db, rs.Name, f, true)
		f.Close()
		if err != nil {
			return total, fmt.Errorf("%s: %w", path, err)
		}
		total += n
	}
	return total, nil
}
