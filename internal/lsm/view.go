package lsm

import (
	"bytes"
	"runtime"
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
	close()
}

// mergeIter interleaves several sorted iterators into one ascending stream.
// Full keys are globally unique (the sequence stamp differs on every write),
// so no tie-breaking is needed.
type mergeIter struct {
	srcs  []kvIter
	valid []bool
	cur   int
}

func newMergeIter(srcs []kvIter) *mergeIter {
	m := &mergeIter{srcs: srcs, valid: make([]bool, len(srcs)), cur: -1}
	for i, s := range srcs {
		m.valid[i] = s.next()
	}
	return m
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

func (m *mergeIter) close() {
	for _, s := range m.srcs {
		s.close()
	}
}

// iterSources builds one iterator per data source over [start, end):
// the pinned memtable plus every table of every level.
func (v *View) iterSources(start, end []byte) []kvIter {
	n := 1
	for _, level := range v.tables.levels {
		n += len(level)
	}
	srcs := append(make([]kvIter, 0, n), v.mem.iter(start, end))
	for _, level := range v.tables.levels {
		for _, r := range level {
			srcs = append(srcs, r.iter(start, end))
		}
	}
	return srcs
}

// scanVisible walks the key range [start, end) and calls fn with the logical
// key of every tuple live in this view. Entries of one logical key sort
// newest-first, so the first entry that clears the version bound and the
// sequence ceiling decides: a set is live, a tombstone hides everything
// older. Invisible entries (too-new version or sequence) are skipped without
// deciding, letting an older entry of the same logical key speak.
func (v *View) scanVisible(start, end []byte, fn func(logical []byte) bool) {
	m := newMergeIter(v.iterSources(start, end))
	defer m.close()
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
	prefix := appendLogicalPrefix(nil, r.rs.Name, 0)
	r.v.scanVisible(prefix, prefixSuccessor(prefix), func(logical []byte) bool {
		fields, err := decodeFields(logical, len(prefix))
		if err != nil || len(fields) != r.rs.Arity() {
			return true // skip undecodable entries rather than abort the scan
		}
		return fn(storage.Tuple(fields))
	})
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
	prefix := appendLogicalPrefix(nil, r.rs.Name, byte(bestOrd))
	relPrefixLen := len(prefix)
	for i := 0; i < bestRun; i++ {
		prefix = appendField(prefix, want[(bestOrd+i)%k])
	}
	r.v.scanVisible(prefix, prefixSuccessor(prefix), func(logical []byte) bool {
		fields, err := decodeFields(logical, relPrefixLen)
		if err != nil || len(fields) != k {
			return true
		}
		t := storage.Tuple(unrotate(fields, bestOrd))
		for _, c := range cols {
			if t[c] != want[c] {
				return true
			}
		}
		return fn(t)
	})
}
