package shard

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"citare/internal/eval"
	"citare/internal/storage"
)

// DB is a hash-partitioned database: every relation's tuples are split
// across n independent storage.DB parts by the FNV-1a hash of the tuple's
// shard-key column (RelSchema.ShardKey, defaulting to the first column).
// Each part owns its locks, lazy hash indexes and copy-on-write snapshots,
// so snapshot cost, index builds and memory pressure scale with the shard
// count instead of a single lock domain.
//
// A DB implements eval.Partitioned: Relation returns the union view across
// all shards (with per-lookup shard pruning), ShardScan reads one
// partition's tuples, and CandidateShards reports which shards a bound
// shard-key lookup can possibly match.
type DB struct {
	schema *storage.Schema
	parts  []*storage.DB
	keyIdx map[string]int // relation -> shard-key column index
	frozen bool
	ops    *opCounters
}

// opCounters tallies scan/lookup traffic through the union views. The
// struct is shared by pointer between a live DB and every Snapshot of it,
// so evaluation against snapshots (how the engine always reads) remains
// observable on the live handle. All fields are atomics: scatter-gather
// workers update them concurrently.
type opCounters struct {
	scans         atomic.Uint64 // full fan-out Scan calls
	prunedLookups atomic.Uint64 // lookups routed to exactly one shard
	fanoutLookups atomic.Uint64 // lookups that had to touch every shard
	perShard      []shardOps    // per-shard touch counts, len == NumShards
}

type shardOps struct {
	scans   atomic.Uint64
	lookups atomic.Uint64
}

// ShardOps is one shard's operation counts in an OpStats snapshot.
type ShardOps struct {
	Scans   uint64 `json:"scans"`
	Lookups uint64 `json:"lookups"`
}

// OpStats is a point-in-time copy of a DB's operation counters.
type OpStats struct {
	Scans         uint64     `json:"scans"`
	PrunedLookups uint64     `json:"pruned_lookups"`
	FanoutLookups uint64     `json:"fanout_lookups"`
	PerShard      []ShardOps `json:"per_shard"`
}

// OpStats returns the DB's accumulated scan/lookup counters. Counters are
// shared with snapshots taken from this DB.
func (d *DB) OpStats() OpStats {
	out := OpStats{
		Scans:         d.ops.scans.Load(),
		PrunedLookups: d.ops.prunedLookups.Load(),
		FanoutLookups: d.ops.fanoutLookups.Load(),
		PerShard:      make([]ShardOps, len(d.ops.perShard)),
	}
	for i := range d.ops.perShard {
		out.PerShard[i] = ShardOps{
			Scans:   d.ops.perShard[i].scans.Load(),
			Lookups: d.ops.perShard[i].lookups.Load(),
		}
	}
	return out
}

// New creates an empty database over the schema, partitioned across n
// shards (minimum 1).
func New(schema *storage.Schema, n int) *DB {
	if n < 1 {
		n = 1
	}
	d := &DB{
		schema: schema,
		parts:  make([]*storage.DB, n),
		keyIdx: make(map[string]int),
		ops:    &opCounters{perShard: make([]shardOps, n)},
	}
	for i := range d.parts {
		d.parts[i] = storage.NewDB(schema)
	}
	for _, rs := range schema.Relations() {
		d.keyIdx[rs.Name] = rs.ShardKeyIndex()
	}
	return d
}

// FromDB partitions an existing database's contents across n shards.
func FromDB(db *storage.DB, n int) (*DB, error) {
	d := New(db.Schema(), n)
	for _, rs := range db.Schema().Relations() {
		var ierr error
		db.Relation(rs.Name).Scan(func(t storage.Tuple) bool {
			if err := d.Insert(rs.Name, t...); err != nil {
				ierr = err
				return false
			}
			return true
		})
		if ierr != nil {
			return nil, ierr
		}
	}
	return d, nil
}

// FromView partitions the contents of any database view (for example a
// snapshot of the persistent LSM backend) across n shards, so a sharded
// deployment can be loaded straight from a persistent store without an
// intermediate storage.DB copy.
func FromView(schema *storage.Schema, v eval.DBView, n int) (*DB, error) {
	d := New(schema, n)
	for _, rs := range schema.Relations() {
		rv := v.Relation(rs.Name)
		if rv == nil {
			continue
		}
		var ierr error
		rv.Scan(func(t storage.Tuple) bool {
			if err := d.Insert(rs.Name, t...); err != nil {
				ierr = err
				return false
			}
			return true
		})
		if ierr != nil {
			return nil, ierr
		}
	}
	return d, nil
}

// fnv32a hashes a shard-key value (FNV-1a) for shard routing.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Schema returns the database schema.
func (d *DB) Schema() *storage.Schema { return d.schema }

// NumShards returns the number of shards.
func (d *DB) NumShards() int { return len(d.parts) }

// Frozen reports whether the database is a read-only snapshot.
func (d *DB) Frozen() bool { return d.frozen }

// Part returns the i-th partition's storage database.
func (d *DB) Part(i int) *storage.DB { return d.parts[i] }

// ShardFor returns the shard index routing tuples of rel whose shard-key
// column holds keyVal.
func (d *DB) ShardFor(rel, keyVal string) int {
	return int(fnv32a(keyVal) % uint32(len(d.parts)))
}

// route returns the shard holding the tuple, or an error for unknown
// relations or arity mismatches (full validation happens on insert).
func (d *DB) route(rel string, vals []string) (*storage.DB, error) {
	ki, ok := d.keyIdx[rel]
	if !ok {
		return nil, fmt.Errorf("shard: unknown relation %s", rel)
	}
	if ki >= len(vals) {
		return nil, fmt.Errorf("shard: %s: tuple has %d values, shard key at position %d", rel, len(vals), ki)
	}
	return d.parts[d.ShardFor(rel, vals[ki])], nil
}

// Insert adds a tuple to the shard its key hashes to.
//
// Primary-key uniqueness is enforced per shard: it is global whenever the
// relation's primary key includes the shard-key column (true for every
// GtoPdb relation), and per-partition otherwise.
func (d *DB) Insert(rel string, vals ...string) error {
	part, err := d.route(rel, vals)
	if err != nil {
		return err
	}
	return part.Insert(rel, vals...)
}

// MustInsert is Insert that panics on error, for static test data.
func (d *DB) MustInsert(rel string, vals ...string) {
	if err := d.Insert(rel, vals...); err != nil {
		panic(err)
	}
}

// Delete removes a tuple from the shard its key hashes to, reporting
// whether it was present.
func (d *DB) Delete(rel string, vals ...string) (bool, error) {
	part, err := d.route(rel, vals)
	if err != nil {
		return false, err
	}
	return part.Delete(rel, vals...)
}

// Snapshot returns an immutable point-in-time view of the whole database:
// every part snapshots independently (each O(relations), copy-on-write), so
// the total cost is O(shards × relations), never O(tuples), and writers to
// one shard never stall snapshots of another.
func (d *DB) Snapshot() *DB {
	out := &DB{
		schema: d.schema,
		parts:  make([]*storage.DB, len(d.parts)),
		keyIdx: d.keyIdx,
		frozen: true,
		ops:    d.ops, // shared: reads through snapshots count on the live DB
	}
	for i, p := range d.parts {
		out.parts[i] = p.Snapshot()
	}
	return out
}

// Len returns the number of live tuples of rel across all shards.
func (d *DB) Len(rel string) int {
	n := 0
	for _, p := range d.parts {
		if r := p.Relation(rel); r != nil {
			n += r.Len()
		}
	}
	return n
}

// RelStats reports one relation's tuple distribution across shards.
type RelStats struct {
	Name     string
	Rows     int
	PerShard []int
}

// Stats returns per-relation totals and per-shard row counts, sorted by
// relation name.
func (d *DB) Stats() []RelStats {
	out := make([]RelStats, 0, len(d.keyIdx))
	for _, rs := range d.schema.Relations() {
		st := RelStats{Name: rs.Name, PerShard: make([]int, len(d.parts))}
		for i, p := range d.parts {
			n := p.Relation(rs.Name).Len()
			st.PerShard[i] = n
			st.Rows += n
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Relation returns the union view of the named relation across all shards,
// or nil. The view satisfies eval.RelView: Scan walks shards in order,
// Lookup prunes to the single candidate shard when the lookup binds the
// shard-key column.
func (d *DB) Relation(name string) eval.RelView {
	ki, ok := d.keyIdx[name]
	if !ok {
		return nil
	}
	f := &fanRel{db: d, name: name, keyIdx: ki, parts: make([]*storage.Relation, len(d.parts))}
	for i, p := range d.parts {
		f.parts[i] = p.Relation(name)
	}
	f.schema = f.parts[0].Schema()
	return f
}

// ShardScan enumerates rel's live tuples inside shard si matching the
// lookup (cols empty means a full scan) — the per-shard read of
// eval.Partitioned, which scatter-gather and the fault injector share.
// Iteration order is insertion order, stable across calls on a frozen
// snapshot, which the exactly-once replay of a retried shard relies on. The
// local in-memory backend never fails on its own; ctx is honored at entry
// (the evaluator re-checks it between candidate tuples).
func (d *DB) ShardScan(ctx context.Context, si int, rel string, cols []int, vals []string, fn func(t storage.Tuple) bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	r := d.parts[si].Relation(rel)
	if r == nil {
		return nil
	}
	if len(cols) > 0 {
		r.Lookup(cols, vals, fn)
	} else {
		r.Scan(fn)
	}
	return nil
}

// CandidateShards reports which shards can contain tuples of rel whose
// projection on cols equals vals: exactly one when the lookup binds the
// relation's shard-key column, every shard (nil) otherwise.
func (d *DB) CandidateShards(rel string, cols []int, vals []string) []int {
	ki, ok := d.keyIdx[rel]
	if !ok {
		return nil
	}
	for i, c := range cols {
		if c == ki {
			return []int{d.ShardFor(rel, vals[i])}
		}
	}
	return nil
}

// fanRel is the union eval.RelView of one relation across every shard.
type fanRel struct {
	db     *DB
	name   string
	schema *storage.RelSchema
	keyIdx int
	parts  []*storage.Relation
}

// Schema returns the relation's schema.
func (f *fanRel) Schema() *storage.RelSchema { return f.schema }

// Len sums live tuples across shards.
func (f *fanRel) Len() int {
	n := 0
	for _, r := range f.parts {
		n += r.Len()
	}
	return n
}

// Scan calls fn for every live tuple, walking shards in index order.
func (f *fanRel) Scan(fn func(t storage.Tuple) bool) {
	ops := f.db.ops
	ops.scans.Add(1)
	stopped := false
	for i, r := range f.parts {
		if stopped {
			return
		}
		ops.perShard[i].scans.Add(1)
		r.Scan(func(t storage.Tuple) bool {
			if !fn(t) {
				stopped = true
			}
			return !stopped
		})
	}
}

// Lookup iterates the tuples matching the bound columns. A lookup binding
// the shard-key column touches exactly one shard; any other lookup fans out
// to every shard's local hash index.
func (f *fanRel) Lookup(cols []int, vals []string, fn func(t storage.Tuple) bool) {
	ops := f.db.ops
	for i, c := range cols {
		if c == f.keyIdx {
			si := f.db.ShardFor(f.name, vals[i])
			ops.prunedLookups.Add(1)
			ops.perShard[si].lookups.Add(1)
			f.parts[si].Lookup(cols, vals, fn)
			return
		}
	}
	ops.fanoutLookups.Add(1)
	stopped := false
	for i, r := range f.parts {
		if stopped {
			return
		}
		ops.perShard[i].lookups.Add(1)
		r.Lookup(cols, vals, func(t storage.Tuple) bool {
			if !fn(t) {
				stopped = true
			}
			return !stopped
		})
	}
}
