package storage

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"sync"
)

// Tuple is a row of a relation; values are strings (typed columns validate
// on insert).
type Tuple []string

// Key encodes a tuple (or a projection of it) as a collision-free map key.
func (t Tuple) Key() string { return encodeValues(t) }

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// AppendKeyPart appends one value in the encoding of Tuple.Key: its length,
// a colon, its bytes. Appending a tuple's values in order yields its Key
// byte for byte, so a key built straight off an evaluation frame probes the
// same map entries Tuple.Key fills.
func AppendKeyPart(buf []byte, v string) []byte {
	buf = strconv.AppendInt(buf, int64(len(v)), 10)
	buf = append(buf, ':')
	return append(buf, v...)
}

// encodeValues length-prefixes each value, yielding a collision-free key
// for arbitrary value contents. It is the key builder behind every hash
// probe, so it appends into one sized buffer instead of formatting.
func encodeValues(vals []string) string {
	n := 0
	for _, v := range vals {
		n += len(v) + 4
	}
	buf := make([]byte, 0, n)
	for _, v := range vals {
		buf = AppendKeyPart(buf, v)
	}
	return string(buf)
}

// Relation is a set of tuples with on-demand hash indexes.
//
// Each live tuple is one entry in one map, keyed by its primary-key
// projection (every column when the schema declares no key), so set
// semantics and key uniqueness are one probe and one row comparison. Rows
// are cut from slabs that grow geometrically: a new tuple allocates its key.
//
// Concurrency model: a relation is safe for any mix of concurrent readers
// and writers. Writers mutate under an exclusive lock; readers capture an
// immutable view (row prefix + tombstone map) under a brief shared lock and
// then iterate lock-free, so a long Scan or Lookup never blocks writers and
// is never corrupted by them. Stored tuples are never mutated in place:
// inserts only append, deletes only swap in a fresh tombstone map. A frozen
// relation (see DB.Snapshot) additionally rejects all writes, making every
// read against it repeatable.
type Relation struct {
	mu      sync.RWMutex
	schema  *RelSchema
	keyCols []int // column positions of the key: every column without a declared key
	rows    []Tuple
	keys    map[string]int        // key projection -> live row index
	indexes map[string]*hashIndex // built on demand per column subset
	deleted map[int]bool          // tombstones; copy-on-write, never mutated once shared
	slab    []string              // free values new rows are cut from
	buf     []byte                // probe key, built under the write lock
	nLive   int
	frozen  bool // snapshot view: writes are rejected
	shared  bool // the key map is shared with a snapshot; clone before writing
}

func newRelation(rs *RelSchema) *Relation {
	r := &Relation{
		schema:  rs,
		keys:    make(map[string]int),
		indexes: make(map[string]*hashIndex),
		deleted: make(map[int]bool),
	}
	key := rs.Key
	if len(key) == 0 {
		key = rs.ColNames()
	}
	for _, name := range key {
		r.keyCols = append(r.keyCols, rs.ColIndex(name))
	}
	return r
}

// snapshot returns a frozen view of the relation's current contents. It is
// O(1): the row slice header and bookkeeping maps are shared, and the live
// relation clones them before its next write (copy-on-write).
func (r *Relation) snapshot() *Relation {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.shared = true
	return &Relation{
		schema:  r.schema,
		keyCols: r.keyCols,
		rows:    r.rows[:len(r.rows):len(r.rows)],
		keys:    r.keys,
		indexes: make(map[string]*hashIndex),
		deleted: r.deleted,
		nLive:   r.nLive,
		frozen:  true,
	}
}

// unshare clones the key map shared with snapshots. Must hold r.mu.
func (r *Relation) unshare() {
	if r.shared {
		r.keys = maps.Clone(r.keys)
		r.shared = false
	}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *RelSchema { return r.schema }

// Len returns the number of live tuples.
func (r *Relation) Len() int {
	if r.frozen {
		return r.nLive
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.nLive
}

// project extracts the values of the given column positions.
func project(t Tuple, cols []int) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = t[c]
	}
	return out
}

// probe encodes t's key projection into buf and returns the index of the
// live row stored under that key, or -1, with the encoded key. The caller
// holds r.mu or r is frozen. A tuple of the wrong arity is never stored.
func (r *Relation) probe(buf []byte, t Tuple) (int, []byte) {
	buf = buf[:0]
	if len(t) != len(r.schema.Cols) {
		return -1, buf
	}
	for _, c := range r.keyCols {
		buf = AppendKeyPart(buf, t[c])
	}
	if idx, ok := r.keys[string(buf)]; ok {
		return idx, buf
	}
	return -1, buf
}

// insert adds a tuple. Duplicate tuples are ignored (set semantics);
// a different tuple with an existing primary key is an error.
func (r *Relation) insert(t Tuple) error {
	if r.frozen {
		return fmt.Errorf("storage: %s: insert into read-only snapshot", r.schema.Name)
	}
	if len(t) != r.schema.Arity() {
		return fmt.Errorf("storage: %s: arity %d, tuple has %d values", r.schema.Name, r.schema.Arity(), len(t))
	}
	for i, col := range r.schema.Cols {
		if err := checkType(t[i], col.Type); err != nil {
			return fmt.Errorf("%w (relation %s, column %s)", err, r.schema.Name, col.Name)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var idx int
	if idx, r.buf = r.probe(r.buf, t); idx >= 0 {
		if slices.Equal(r.rows[idx], t) {
			return nil
		}
		return fmt.Errorf("storage: %s: duplicate key %v", r.schema.Name, project(t, r.keyCols))
	}
	r.unshare()
	r.keys[string(r.buf)] = len(r.rows)
	if len(r.slab) < len(t) {
		// Each slab holds as many rows as are stored, from 8 up to 1024.
		r.slab = make([]string, min(max(len(r.rows), 8), 1024)*len(t))
	}
	row := r.slab[:len(t):len(t)] // an append to row cannot reach the next one
	r.slab = r.slab[len(t):]
	copy(row, t)
	r.rows = append(r.rows, row)
	r.nLive++
	// Drop the indexes, rebuilt on demand; in-flight readers keep their
	// captured (index, rows, tombstones) triple, which stays consistent.
	if len(r.indexes) > 0 {
		r.indexes = make(map[string]*hashIndex)
	}
	return nil
}

// delete removes a tuple if present and reports whether it was. A tuple
// that shares its key with a different stored tuple is not present.
func (r *Relation) delete(t Tuple) (bool, error) {
	if r.frozen {
		return false, fmt.Errorf("storage: %s: delete from read-only snapshot", r.schema.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var idx int
	if idx, r.buf = r.probe(r.buf, t); idx < 0 || !slices.Equal(r.rows[idx], t) {
		return false, nil
	}
	r.unshare()
	// Copy-on-write: lock-free readers may hold the old tombstone map.
	deleted := maps.Clone(r.deleted)
	deleted[idx] = true
	r.deleted = deleted
	delete(r.keys, string(r.buf))
	r.nLive--
	if len(r.indexes) > 0 {
		r.indexes = make(map[string]*hashIndex)
	}
	return true, nil
}

// view captures an immutable (rows, tombstones) pair for lock-free
// iteration: the row prefix is append-only and the tombstone map is
// replaced, never mutated, on delete.
func (r *Relation) view() ([]Tuple, map[int]bool) {
	if r.frozen {
		return r.rows, r.deleted
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.rows[:len(r.rows):len(r.rows)], r.deleted
}

// Scan calls fn for every live tuple. Stored tuples are immutable, so fn
// may retain the tuple slice, but must never modify it.
func (r *Relation) Scan(fn func(t Tuple) bool) {
	rows, deleted := r.view()
	for i, t := range rows {
		if deleted[i] {
			continue
		}
		if !fn(t) {
			return
		}
	}
}

// Tuples returns all live tuples in insertion order.
func (r *Relation) Tuples() []Tuple {
	out := make([]Tuple, 0, r.Len())
	r.Scan(func(t Tuple) bool {
		out = append(out, t.Clone())
		return true
	})
	return out
}

// Contains reports whether the tuple is present.
func (r *Relation) Contains(t Tuple) bool {
	if !r.frozen {
		r.mu.RLock()
		defer r.mu.RUnlock()
	}
	var buf [64]byte
	idx, _ := r.probe(buf[:0], t)
	return idx >= 0 && slices.Equal(r.rows[idx], t)
}

// hashIndex maps a projection of column values to the row indexes holding it.
// An index is immutable once published: writers drop the whole index set and
// readers rebuild on demand.
type hashIndex struct {
	cols []int
	m    map[string][]int
}

// appendIndexSig appends the name of the index on cols to buf: the column
// positions, comma-separated.
func appendIndexSig(buf []byte, cols []int) []byte {
	for i, c := range cols {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(c), 10)
	}
	return buf
}

// Index returns (building on demand) a hash index on the given column
// positions. Safe under concurrent Lookup: the build is double-checked under
// the relation lock, so exactly one caller builds while others wait, and the
// published index is never mutated afterwards.
func (r *Relation) Index(cols []int) *hashIndex {
	idx, _, _ := r.indexAndView(cols)
	return idx
}

// indexAndView captures a hash index together with the (rows, tombstones)
// view it is consistent with, atomically under the relation lock. Writers
// invalidate indexes and swap tombstones inside the same critical section,
// so an index found in the map is exactly in sync with the state captured
// alongside it — a Lookup can never pair a stale index with a newer view.
//
// The index name is built in a stack buffer and probed without a copy, so a
// lookup on an index already built allocates nothing.
func (r *Relation) indexAndView(cols []int) (*hashIndex, []Tuple, map[int]bool) {
	var sigBuf [32]byte
	sig := appendIndexSig(sigBuf[:0], cols)
	r.mu.RLock()
	if idx := r.indexes[string(sig)]; idx != nil { // no-alloc map probe
		rows, deleted := r.rows[:len(r.rows):len(r.rows)], r.deleted
		r.mu.RUnlock()
		return idx, rows, deleted
	}
	r.mu.RUnlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := r.indexes[string(sig)]
	if idx == nil {
		idx = &hashIndex{cols: append([]int(nil), cols...), m: make(map[string][]int)}
		for i, t := range r.rows {
			if r.deleted[i] {
				continue
			}
			k := encodeValues(project(t, cols))
			idx.m[k] = append(idx.m[k], i)
		}
		r.indexes[string(sig)] = idx
	}
	return idx, r.rows[:len(r.rows):len(r.rows)], r.deleted
}

// Lookup iterates the tuples whose projection on the index columns equals
// vals. Once the index is built a lookup allocates nothing: the probe key
// is spelled in a stack buffer (a longer one grows on the heap).
func (r *Relation) Lookup(cols []int, vals []string, fn func(t Tuple) bool) {
	idx, rows, deleted := r.indexAndView(cols)
	var keyBuf [64]byte
	key := keyBuf[:0]
	for _, v := range vals {
		key = AppendKeyPart(key, v)
	}
	for _, rowID := range idx.m[string(key)] { // no-alloc map probe
		if deleted[rowID] {
			continue
		}
		if !fn(rows[rowID]) {
			return
		}
	}
}

// DB is an in-memory relational database instance over a Schema.
//
// A DB is safe for concurrent use: relations take per-relation locks, so
// readers and writers of different relations never contend. Reads against a
// live DB observe some recent state but are not repeatable across writes;
// callers that need a stable view across several reads (e.g. query
// evaluation concurrent with updates) should evaluate against Snapshot().
type DB struct {
	schema *Schema
	rels   map[string]*Relation
	frozen bool
}

// NewDB creates an empty database over the schema.
func NewDB(schema *Schema) *DB {
	db := &DB{schema: schema, rels: make(map[string]*Relation)}
	for _, rs := range schema.Relations() {
		db.rels[rs.Name] = newRelation(rs)
	}
	return db
}

// Snapshot returns an immutable point-in-time view of the database. The
// view is cheap — O(relations), not O(tuples): rows and bookkeeping maps
// are shared copy-on-write with the live database, which clones them lazily
// on its next write. Writers never invalidate in-flight snapshot readers,
// and writes against the snapshot itself are rejected.
func (db *DB) Snapshot() *DB {
	out := &DB{schema: db.schema, rels: make(map[string]*Relation, len(db.rels)), frozen: true}
	for name, r := range db.rels {
		out.rels[name] = r.snapshot()
	}
	return out
}

// Frozen reports whether the database is a read-only snapshot.
func (db *DB) Frozen() bool { return db.frozen }

// Schema returns the database schema.
func (db *DB) Schema() *Schema { return db.schema }

// Relation returns the named relation, or nil.
func (db *DB) Relation(name string) *Relation { return db.rels[name] }

// Insert adds a tuple to the named relation.
func (db *DB) Insert(rel string, vals ...string) error {
	r := db.rels[rel]
	if r == nil {
		return fmt.Errorf("storage: unknown relation %s", rel)
	}
	return r.insert(Tuple(vals))
}

// MustInsert is Insert that panics on error, for static test data.
func (db *DB) MustInsert(rel string, vals ...string) {
	if err := db.Insert(rel, vals...); err != nil {
		panic(err)
	}
}

// Delete removes a tuple from the named relation, reporting whether it was
// present.
func (db *DB) Delete(rel string, vals ...string) (bool, error) {
	r := db.rels[rel]
	if r == nil {
		return false, fmt.Errorf("storage: unknown relation %s", rel)
	}
	return r.delete(Tuple(vals))
}

// CheckForeignKeys validates every foreign key over the current contents.
func (db *DB) CheckForeignKeys() error {
	for _, rs := range db.schema.Relations() {
		rel := db.rels[rs.Name]
		for _, fk := range rs.ForeignKeys {
			target := db.rels[fk.RefRel]
			if target == nil {
				return fmt.Errorf("storage: FK of %s references unknown relation %s", rs.Name, fk.RefRel)
			}
			srcCols := make([]int, len(fk.Cols))
			for i, cn := range fk.Cols {
				srcCols[i] = rs.ColIndex(cn)
			}
			dstCols := make([]int, len(fk.RefCols))
			for i, cn := range fk.RefCols {
				dstCols[i] = target.schema.ColIndex(cn)
			}
			var violation error
			rel.Scan(func(t Tuple) bool {
				vals := project(t, srcCols)
				found := false
				target.Lookup(dstCols, vals, func(Tuple) bool {
					found = true
					return false
				})
				if !found {
					violation = fmt.Errorf("storage: %s%v violates FK to %s", rs.Name, vals, fk.RefRel)
					return false
				}
				return true
			})
			if violation != nil {
				return violation
			}
		}
	}
	return nil
}

// Clone returns a deep, mutable copy of the database (snapshots clone into
// a writable DB).
func (db *DB) Clone() *DB {
	out := NewDB(db.schema)
	for name, rel := range db.rels {
		rel.Scan(func(t Tuple) bool {
			if err := out.Insert(name, t...); err != nil {
				panic(err) // cannot happen: same schema
			}
			return true
		})
	}
	return out
}

// Stats returns per-relation live tuple counts, sorted by relation name.
func (db *DB) Stats() []struct {
	Name string
	Rows int
} {
	out := make([]struct {
		Name string
		Rows int
	}, 0, len(db.rels))
	for name, rel := range db.rels {
		out = append(out, struct {
			Name string
			Rows int
		}{name, rel.Len()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
