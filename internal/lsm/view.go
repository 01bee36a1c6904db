package lsm

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"

	"citare/internal/storage"
)

// View is a snapshot-isolated read view of the store: it pins the memtable
// and the immutable SSTable set that were current when it was taken, plus a
// version bound and a sequence-number ceiling. Writers appending to the same
// memtable after the snapshot are invisible (their sequence numbers are at or
// above the ceiling); flush and compaction swap table sets rather than
// mutating them, so a view's tables never change underneath it.
//
// View satisfies eval.DBView structurally (via a thin adapter in
// internal/backend, which erases the concrete *RelView into the eval
// interface) and mirrors the semantics of storage.DB.Snapshot.
type View struct {
	schema     *storage.Schema
	mem        *skiplist
	tables     *tableSet
	maxVersion uint64
	seqCeil    uint64
	counts     map[string]int
	released   atomic.Bool
}

func newView(schema *storage.Schema, mem *skiplist, tables *tableSet, maxVersion, seqCeil uint64, counts map[string]int) *View {
	v := &View{schema: schema, mem: mem, tables: tables, maxVersion: maxVersion, seqCeil: seqCeil, counts: counts}
	// Backstop for callers that drop a view without releasing it: the
	// finalizer returns the table references so obsolete files can be
	// reclaimed even on leaks.
	runtime.SetFinalizer(v, (*View).Release)
	return v
}

// Version returns the newest version visible in the view.
func (v *View) Version() uint64 { return v.maxVersion }

// Position places a head view (Snapshot) in the store's write order: the view
// sees every write with a sequence number below it and none at or above it,
// so Store.Changes between two head views' positions lists what the later
// one sees and the earlier does not. A view of a committed version (AsOf)
// reads by version and has no place in that order: ok is false.
func (v *View) Position() (pos uint64, ok bool) {
	if v.seqCeil == ^uint64(0) {
		return 0, false
	}
	return v.seqCeil, true
}

// Schema returns the store schema.
func (v *View) Schema() *storage.Schema { return v.schema }

// Release drops the view's references to the underlying SSTables. The view
// must not be used afterwards. Release is idempotent.
func (v *View) Release() {
	if v.released.CompareAndSwap(false, true) {
		runtime.SetFinalizer(v, nil)
		v.tables.release()
	}
}

// Relation returns the view of one relation, or nil if unknown.
func (v *View) Relation(name string) *RelView {
	rs := v.schema.Relation(name)
	if rs == nil {
		return nil
	}
	return &RelView{v: v, rs: rs, n: v.counts[name]}
}

// kvIter is the common shape of memtable and SSTable iterators.
type kvIter interface {
	next() bool
	key() []byte
	op() byte
}

// mergeIter interleaves several sorted iterators into one ascending stream.
// Full keys are globally unique (the sequence stamp differs on every write),
// so no tie-breaking is needed.
type mergeIter struct {
	srcs  []kvIter
	valid []bool
	cur   int
}

// prime advances every (positioned) source to its first entry.
func (m *mergeIter) prime() {
	m.valid = m.valid[:0]
	for _, s := range m.srcs {
		m.valid = append(m.valid, s.next())
	}
	m.cur = -1
}

func (m *mergeIter) next() bool {
	if m.cur >= 0 {
		m.valid[m.cur] = m.srcs[m.cur].next()
	}
	m.cur = -1
	for i, ok := range m.valid {
		if !ok {
			continue
		}
		if m.cur < 0 || bytes.Compare(m.srcs[i].key(), m.srcs[m.cur].key()) < 0 {
			m.cur = i
		}
	}
	return m.cur >= 0
}

func (m *mergeIter) key() []byte { return m.srcs[m.cur].key() }
func (m *mergeIter) op() byte    { return m.srcs[m.cur].op() }

// scanScratch is the state of one range scan: an iterator per source, their
// merge, the key-range buffers and the row decoder. Scans nest — a lookup's
// callback runs the next join step's lookup — so every scan takes its own
// scratch from scratchPool and puts it back on exit.
type scanScratch struct {
	mem    memIter
	tables []tableIter
	merge  mergeIter
	prefix []byte
	end    []byte
	dec    rowDecoder
}

var scratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

func getScratch() *scanScratch { return scratchPool.Get().(*scanScratch) }

// put returns the scratch to the pool. It first drops every reference into
// memtables, tables and blocks, so a pooled scratch pins no memory.
func (sc *scanScratch) put() {
	sc.mem = memIter{}
	clear(sc.tables)
	scratchPool.Put(sc)
}

// tableIters returns n table iterators, each to be positioned with seek.
func (sc *scanScratch) tableIters(n int) []tableIter {
	if cap(sc.tables) < n {
		sc.tables = make([]tableIter, n)
	}
	sc.tables = sc.tables[:n]
	return sc.tables
}

// err returns the first error a table iterator of the last merge met.
func (sc *scanScratch) err() error {
	for i := range sc.tables {
		if err := sc.tables[i].err; err != nil {
			return err
		}
	}
	return nil
}

// setRange makes [sc.prefix, end) the scan range: end is the prefix's
// successor, nil when the prefix is all 0xff.
func (sc *scanScratch) setRange() (end []byte) {
	sc.end = append(sc.end[:0], sc.prefix...)
	return successor(sc.end)
}

// mergeSources positions one iterator per source over [start, end) — the
// memtable (none when mem is nil) and every table of every level — and
// returns their merge.
func (sc *scanScratch) mergeSources(mem *skiplist, levels [][]*sstReader, start, end []byte) *mergeIter {
	n := 0
	for _, level := range levels {
		n += len(level)
	}
	tables := sc.tableIters(n)
	srcs := sc.merge.srcs[:0]
	if mem != nil {
		sc.mem.seek(mem, start, end)
		srcs = append(srcs, &sc.mem)
	}
	i := 0
	for _, level := range levels {
		for _, r := range level {
			tables[i].seek(r, start, end)
			srcs = append(srcs, &tables[i])
			i++
		}
	}
	sc.merge.srcs = srcs
	sc.merge.prime()
	return &sc.merge
}

// scanVisible walks the key range [start, end) and calls fn with the logical
// key of every tuple live in this view. Entries of one logical key sort
// newest-first, so the first entry that clears the version bound and the
// sequence ceiling decides: a set is live, a tombstone hides everything
// older. Invisible entries (too-new version or sequence) are skipped without
// deciding, letting an older entry of the same logical key speak.
func (v *View) scanVisible(sc *scanScratch, start, end []byte, fn func(logical []byte) bool) {
	m := sc.mergeSources(v.mem, v.tables.levels, start, end)
	var decided []byte
	for m.next() {
		key := m.key()
		logical := logicalOf(key)
		if decided != nil && bytes.Equal(decided, logical) {
			continue
		}
		version, seq := stampOf(key)
		if version > v.maxVersion || seq >= v.seqCeil {
			continue
		}
		decided = logical // aliasing is safe: blocks and nodes are immutable
		if m.op() == opSet {
			if !fn(logical) {
				return
			}
		}
	}
}

// RelView is the per-relation read surface, satisfying eval.RelView.
type RelView struct {
	v  *View
	rs *storage.RelSchema
	n  int
}

// Schema returns the relation schema.
func (r *RelView) Schema() *storage.RelSchema { return r.rs }

// Len returns the exact number of live tuples at the view's version, served
// from the per-version count history rather than a scan.
func (r *RelView) Len() int { return r.n }

// Scan visits every live tuple in ordering-0 key order.
func (r *RelView) Scan(fn func(t storage.Tuple) bool) {
	sc := getScratch()
	defer sc.put()
	sc.prefix = appendLogicalPrefix(sc.prefix[:0], r.rs.Name, 0)
	r.scanRows(sc, 0, len(sc.prefix), fn)
}

// Lookup visits live tuples whose projection on cols equals vals. It picks
// the ordering whose leading columns cover the longest contiguous run of
// bound columns, prefix-scans that keyspace, and filters any residual bound
// columns after decoding.
func (r *RelView) Lookup(cols []int, vals []string, fn func(t storage.Tuple) bool) {
	if len(cols) == 0 {
		r.Scan(fn)
		return
	}
	k := r.rs.Arity()
	// want[c] is the value column c is bound to, where bound[c]; two small
	// slices, on the stack for any relation of ordinary width.
	var wantBuf [8]string
	var boundBuf [8]bool
	want, bound := wantBuf[:], boundBuf[:]
	if k > len(wantBuf) {
		want, bound = make([]string, k), make([]bool, k)
	}
	for i, c := range cols {
		if c < 0 || c >= k {
			return
		}
		want[c], bound[c] = vals[i], true
	}
	bestOrd, bestRun := 0, 0
	for o := 0; o < k; o++ {
		run := 0
		for run < k && bound[(o+run)%k] {
			run++
		}
		if run > bestRun {
			bestOrd, bestRun = o, run
		}
	}
	sc := getScratch()
	defer sc.put()
	sc.prefix = appendLogicalPrefix(sc.prefix[:0], r.rs.Name, byte(bestOrd))
	relPrefixLen := len(sc.prefix)
	for i := 0; i < bestRun; i++ {
		sc.prefix = appendField(sc.prefix, want[(bestOrd+i)%k])
	}
	r.scanRows(sc, bestOrd, relPrefixLen, func(t storage.Tuple) bool {
		for _, c := range cols {
			if t[c] != want[c] {
				return true
			}
		}
		return fn(t)
	})
}

// scanRows visits every live tuple whose ordering-ord key starts with
// sc.prefix, each decoded into a fresh row; relPrefixLen is the length of
// the keyspace prefix (rel 0x00 ord). Undecodable entries are skipped
// rather than abort the scan.
func (r *RelView) scanRows(sc *scanScratch, ord, relPrefixLen int, fn func(t storage.Tuple) bool) {
	k := r.rs.Arity()
	r.v.scanVisible(sc, sc.prefix, sc.setRange(), func(logical []byte) bool {
		t, err := sc.dec.decode(logical, relPrefixLen, ord, k)
		if err != nil {
			return true
		}
		return fn(t)
	})
}
