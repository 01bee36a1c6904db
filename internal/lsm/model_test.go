package lsm

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"

	"citare/internal/storage"
)

// modelVals are the values model tuples draw from: the empty string, the
// escape byte 0x00 alone and inside values, the largest byte 0xff, and runs
// of shared prefixes whose encodings differ only after the escape.
var modelVals = []string{
	"", "\x00", "\x00\x00", "\x00\xff", "\xff", "\xff\xff",
	"a", "ab", "ab\x00", "ab\x00c", "abc", "a\x00b", "b", "x\x01",
}

func modelSchema() *storage.Schema {
	s := storage.NewSchema()
	s.MustAddRelation(&storage.RelSchema{
		Name: "t",
		Cols: []storage.Column{{Name: "a"}, {Name: "b"}, {Name: "c"}},
	})
	s.MustAddRelation(&storage.RelSchema{
		Name: "u",
		Cols: []storage.Column{{Name: "k"}, {Name: "v"}},
		Key:  []string{"k"},
	})
	return s
}

// lsmModel is the sorted-map model of a store: the live tuples of every
// relation at the head, and a frozen copy and the label per committed
// version.
type lsmModel struct {
	head     map[string]map[string]storage.Tuple // rel → row key → tuple
	versions map[uint64]map[string]map[string]storage.Tuple
	labels   map[uint64]string
}

func newLSMModel() *lsmModel {
	return &lsmModel{
		head:     map[string]map[string]storage.Tuple{"t": {}, "u": {}},
		versions: map[uint64]map[string]map[string]storage.Tuple{},
		labels:   map[uint64]string{},
	}
}

func rowKey(t storage.Tuple) string { return t.Key() }

func (m *lsmModel) clone() map[string]map[string]storage.Tuple {
	out := make(map[string]map[string]storage.Tuple, len(m.head))
	for rel, rows := range m.head {
		cp := make(map[string]storage.Tuple, len(rows))
		for k, t := range rows {
			cp[k] = t
		}
		out[rel] = cp
	}
	return out
}

// keyTaken reports whether a live u tuple other than t holds t's key.
func (m *lsmModel) keyTaken(t storage.Tuple) bool {
	for _, live := range m.head["u"] {
		if live[0] == t[0] && live[1] != t[1] {
			return true
		}
	}
	return false
}

// modelRun drives random writes into a store and its model: inserts (live
// duplicates and duplicate keys included), deletes of live and dead tuples,
// re-inserts of deleted ones, and commits.
type modelRun struct {
	t     *testing.T
	rng   *rand.Rand
	st    *Store
	model *lsmModel
	dead  []storage.Tuple // tuples deleted once, candidates for re-insert
}

func (r *modelRun) randTuple(arity int) storage.Tuple {
	t := make(storage.Tuple, arity)
	for i := range t {
		t[i] = modelVals[r.rng.Intn(len(modelVals))]
	}
	return t
}

func (r *modelRun) write(ops int) {
	for i := 0; i < ops; i++ {
		rel, arity := "t", 3
		if r.rng.Intn(4) == 0 {
			rel, arity = "u", 2
		}
		tu := r.randTuple(arity)
		switch p := r.rng.Intn(10); {
		case p < 6 || (p < 7 && len(r.dead) == 0):
			r.insert(rel, tu)
		case p < 7:
			tu = r.dead[r.rng.Intn(len(r.dead))]
			rel = "t"
			if len(tu) == 2 {
				rel = "u"
			}
			r.insert(rel, tu)
		default:
			if rows := r.model.head[rel]; len(rows) > 0 && r.rng.Intn(3) > 0 {
				for _, live := range rows { // a random live tuple
					tu = live
					break
				}
			}
			r.delete(rel, tu)
		}
		if r.rng.Intn(150) == 0 {
			r.commit(fmt.Sprintf("v%d", r.st.Version()))
		}
	}
}

func (r *modelRun) insert(rel string, tu storage.Tuple) {
	r.t.Helper()
	err := r.st.Insert(rel, tu...)
	_, live := r.model.head[rel][rowKey(tu)]
	if wantErr := !live && rel == "u" && r.model.keyTaken(tu); wantErr != (err != nil) {
		r.t.Fatalf("Insert(%s, %q) = %v, model expects an error: %v", rel, tu, err, wantErr)
	}
	if err == nil {
		r.model.head[rel][rowKey(tu)] = tu
	}
}

func (r *modelRun) delete(rel string, tu storage.Tuple) {
	r.t.Helper()
	ok, err := r.st.Delete(rel, tu...)
	if err != nil {
		r.t.Fatal(err)
	}
	if _, live := r.model.head[rel][rowKey(tu)]; ok != live {
		r.t.Fatalf("Delete(%s, %q) = %v, model has it live: %v", rel, tu, ok, live)
	}
	if ok {
		delete(r.model.head[rel], rowKey(tu))
		r.dead = append(r.dead, tu)
	}
}

func (r *modelRun) commit(label string) {
	r.t.Helper()
	v, err := r.st.Commit(label)
	if err != nil {
		r.t.Fatal(err)
	}
	r.model.versions[v] = r.model.clone()
	r.model.labels[v] = label
}

// check holds the head and every committed version against the model: the
// version list and every label, then Len, Scan and Lookup on every
// bound-column subset, with probe values drawn from live tuples, dead tuples
// and random combinations.
func (r *modelRun) check(stage string) {
	r.t.Helper()
	want := make([]uint64, 0, len(r.model.versions))
	for v := range r.model.versions {
		want = append(want, v)
	}
	slices.Sort(want)
	if got := r.st.Versions(); !slices.Equal(got, want) || r.st.Version() != uint64(len(want))+1 {
		r.t.Fatalf("%s: Versions() = %v, Version() = %d; model committed %v", stage, got, r.st.Version(), want)
	}
	for _, v := range want {
		if got := r.st.Label(v); got != r.model.labels[v] {
			r.t.Fatalf("%s: Label(%d) = %q, model %q", stage, v, got, r.model.labels[v])
		}
	}
	head, err := r.st.Snapshot()
	if err != nil {
		r.t.Fatal(err)
	}
	r.checkView(stage+" head", head, r.model.head)
	head.Release()
	for v, want := range r.model.versions {
		view, err := r.st.AsOf(v)
		if err != nil {
			r.t.Fatal(err)
		}
		r.checkView(fmt.Sprintf("%s AsOf(%d)", stage, v), view, want)
		view.Release()
	}
}

func (r *modelRun) checkView(stage string, v *View, want map[string]map[string]storage.Tuple) {
	r.t.Helper()
	for _, rel := range []string{"t", "u"} {
		rv := v.Relation(rel)
		rows := want[rel]
		if rv.Len() != len(rows) {
			r.t.Fatalf("%s: %s.Len = %d, model %d", stage, rel, rv.Len(), len(rows))
		}
		var got []string
		var prev []byte
		rv.Scan(func(tu storage.Tuple) bool {
			key := appendLogicalPrefix(nil, rel, 0)
			for _, val := range tu {
				key = appendField(key, val)
			}
			if prev != nil && bytes.Compare(prev, key) >= 0 {
				r.t.Fatalf("%s: %s.Scan out of key order at %q", stage, rel, tu)
			}
			prev = key
			got = append(got, rowKey(tu))
			return true
		})
		r.compare(stage, rel, got, rows, nil, nil)

		arity := len(modelSchema().Relation(rel).Cols)
		probes := make([]storage.Tuple, 0, 24)
		for _, tu := range rows {
			if len(probes) == 12 {
				break
			}
			probes = append(probes, tu)
		}
		for len(probes) < 24 {
			if len(r.dead) > 0 && len(r.dead[0]) == arity && r.rng.Intn(2) == 0 {
				probes = append(probes, r.dead[r.rng.Intn(len(r.dead))])
				continue
			}
			probes = append(probes, r.randTuple(arity))
		}
		for mask := 1; mask < 1<<arity; mask++ {
			var cols []int
			for c := 0; c < arity; c++ {
				if mask&(1<<c) != 0 {
					cols = append(cols, c)
				}
			}
			for _, p := range probes {
				if len(p) != arity {
					continue
				}
				vals := make([]string, len(cols))
				for i, c := range cols {
					vals[i] = p[c]
				}
				got = got[:0]
				rv.Lookup(cols, vals, func(tu storage.Tuple) bool {
					got = append(got, rowKey(tu))
					return true
				})
				r.compare(stage, rel, got, rows, cols, vals)
			}
		}
	}
}

// compare checks got — rel's Scan if cols is nil, else its Lookup of vals
// on cols — against the model rows matching vals on cols.
func (r *modelRun) compare(stage, rel string, got []string, rows map[string]storage.Tuple, cols []int, vals []string) {
	r.t.Helper()
	var want []string
	for k, tu := range rows {
		match := true
		for i, c := range cols {
			match = match && tu[c] == vals[i]
		}
		if match {
			want = append(want, k)
		}
	}
	got = slices.Clone(got)
	sort.Strings(got)
	sort.Strings(want)
	if !slices.Equal(got, want) {
		what := rel + ".Scan"
		if cols != nil {
			what = fmt.Sprintf("%s.Lookup(%v, %q)", rel, cols, vals)
		}
		r.t.Fatalf("%s: %s = %q, model %q", stage, what, got, want)
	}
}

// TestLSMModelSeek checks every read surface of a store whose tables have
// hundreds of 256-byte blocks — several flushed L0 tables plus a live
// memtable, then one compacted level, then a reopened store — against a
// sorted-map model, and every table iterator seek against a linear walk of
// the table.
func TestLSMModelSeek(t *testing.T) {
	dir := t.TempDir()
	opt := Options{BlockBytes: 256, MemtableBytes: 1 << 20, DisableBackgroundCompaction: true}
	st, err := Open(dir, modelSchema(), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { st.Close() }()
	model := newLSMModel()
	run := &modelRun{t: t, rng: rand.New(rand.NewSource(27)), st: st, model: model}

	for i := 0; i < 3; i++ {
		run.write(1500)
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	run.write(400) // a live memtable beside the tables
	stats := st.Stats()
	if stats.Levels[0].Tables < 3 || stats.MemtableEntries == 0 {
		t.Fatalf("store shape %+v: want ≥ 3 L0 tables and a live memtable", stats)
	}
	t.Logf("L0 tables %d (%d bytes), memtable entries %d, committed versions %d",
		stats.Levels[0].Tables, stats.Levels[0].Bytes, stats.MemtableEntries, len(model.versions))
	run.check("L0")
	checkTableSeeks(t, st, 200)

	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	run.check("compacted")
	checkTableSeeks(t, st, 0)

	run.write(600)
	run.commit("") // an unlabelled version: Label must answer ""
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = Open(dir, nil, opt); err != nil {
		t.Fatal(err)
	}
	run.st = st
	run.check("reopened")
	checkTableSeeks(t, st, 0)
}

// FuzzLSMOps input is a sequence of 4-byte records [op, x, y, z]: op modulo
// fuzzOps picks the operation, x, y and z are its operands.
const (
	fuzzInsertT  = iota // insert values x, y, z into t
	fuzzInsertT2        // the same: t takes two inserts in three, as in modelRun.write
	fuzzInsertU         // insert values x, y into u
	fuzzDelete          // delete from t (z even) or u: the y-th live tuple if x is odd, else values x>>1, y, z>>1
	fuzzReinsert        // re-insert the (x·256 + y)-th deleted tuple
	fuzzCommit          // commit, labelled "" if x is 0, else "L" and y
	fuzzFlush           // flush, then check
	fuzzCompact         // compact, then check
	fuzzReopen          // close, reopen with a nil schema, then check
	fuzzOps

	// fuzzMaxRecords bounds one input: every check reads each committed
	// version, so checks cost quadratically in the record count.
	fuzzMaxRecords = 64
)

// FuzzLSMOps drives a store with 256-byte blocks through an op sequence
// decoded from its input — inserts, deletes, re-inserts, labelled commits,
// flushes, compactions, closes and reopens — and checks it against
// TestLSMModelSeek's model after every flush, compaction and reopen, and at
// the end: Versions, every Label, and Scan, Lookup on every bound-column
// subset and Len at the head and at every committed version.
func FuzzLSMOps(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(walkSeed(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), 4*fuzzMaxRecords)]
		dir := t.TempDir()
		opt := Options{BlockBytes: 256, MemtableBytes: 1 << 20, DisableBackgroundCompaction: true}
		st, err := Open(dir, modelSchema(), opt)
		if err != nil {
			t.Fatal(err)
		}
		run := &modelRun{t: t, rng: rand.New(rand.NewSource(1)), st: st, model: newLSMModel()}
		defer func() { run.st.Close() }()
		val := func(b byte) string { return modelVals[int(b)%len(modelVals)] }
		for i := 0; i+4 <= len(data); i += 4 {
			op, x, y, z := data[i]%fuzzOps, data[i+1], data[i+2], data[i+3]
			stage := fmt.Sprintf("record %d", i/4)
			switch op {
			case fuzzInsertT, fuzzInsertT2:
				run.insert("t", storage.Tuple{val(x), val(y), val(z)})
			case fuzzInsertU:
				run.insert("u", storage.Tuple{val(x), val(y)})
			case fuzzDelete:
				rel, tu := "t", storage.Tuple{val(x >> 1), val(y), val(z >> 1)}
				if z&1 == 1 {
					rel, tu = "u", tu[:2]
				}
				if live := run.model.head[rel]; x&1 == 1 && len(live) > 0 {
					keys := slices.Sorted(maps.Keys(live))
					tu = live[keys[int(y)%len(keys)]]
				}
				run.delete(rel, tu)
			case fuzzReinsert:
				if len(run.dead) > 0 {
					tu := run.dead[(int(x)<<8|int(y))%len(run.dead)]
					rel := "t"
					if len(tu) == 2 {
						rel = "u"
					}
					run.insert(rel, tu)
				}
			case fuzzCommit:
				label := ""
				if x != 0 {
					label = "L" + strconv.Itoa(int(y))
				}
				run.commit(label)
			case fuzzFlush:
				if err := run.st.Flush(); err != nil {
					t.Fatal(err)
				}
				run.check(stage + " flush")
			case fuzzCompact:
				if err := run.st.Compact(); err != nil {
					t.Fatal(err)
				}
				run.check(stage + " compact")
			case fuzzReopen:
				if err := run.st.Close(); err != nil {
					t.Fatal(err)
				}
				if run.st, err = Open(dir, nil, opt); err != nil {
					t.Fatal(err)
				}
				run.check(stage + " reopen")
			}
		}
		run.check("end")
	})
}

// walkSeed encodes a walk shaped like TestLSMModelSeek's, at fuzzing size:
// three rounds of writes (inserts, deletes, re-inserts, now and then a
// commit) each ended by a flush, a round left in the memtable, a
// compaction, one more round and a commit, and a close and reopen.
func walkSeed(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var out []byte
	rec := func(op byte) {
		out = append(out, op, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	writes := func(n int) {
		for i := 0; i < n; i++ {
			rec([]byte{fuzzInsertT, fuzzInsertT2, fuzzInsertU, fuzzDelete, fuzzReinsert}[rng.Intn(5)])
			if rng.Intn(8) == 0 {
				rec(fuzzCommit)
			}
		}
	}
	for i := 0; i < 3; i++ {
		writes(10)
		rec(fuzzFlush)
	}
	writes(6)
	rec(fuzzCompact)
	writes(6)
	rec(fuzzCommit)
	rec(fuzzReopen)
	return out
}

// checkTableSeeks positions a table iterator of every table at keys chosen
// around block boundaries — each block's first key, a prefix of it, the
// successor of each block's last key — and at logical prefixes and the
// all-0xff start, and compares what it yields over [start, successor) with a
// linear walk. It fails unless both boundary cases were met: a start past
// the last key of the block the index search picks, and a start equal to a
// block's first key. The largest table must have at least minBlocks blocks.
func checkTableSeeks(t *testing.T, st *Store, minBlocks int) {
	t.Helper()
	pastBlock, onFirst, maxBlocks := 0, 0, 0
	for _, level := range st.tables.levels {
		for _, r := range level {
			maxBlocks = max(maxBlocks, len(r.index))
			var all [][]byte
			var it tableIter
			for it.seek(r, nil, nil); it.next(); {
				all = append(all, it.key())
			}
			if it.err != nil {
				t.Fatal(it.err)
			}
			var starts [][]byte
			for i, bm := range r.index {
				blk, err := r.readBlock(i)
				if err != nil {
					t.Fatal(err)
				}
				last, _ := blk.entry(len(blk.offs) - 1)
				if first, _ := blk.entry(0); !bytes.Equal(first, bm.firstKey) {
					t.Fatalf("table %d block %d: first entry %q, index says %q", r.id, i, first, bm.firstKey)
				}
				starts = append(starts,
					bm.firstKey,
					bm.firstKey[:len(bm.firstKey)-1],
					logicalOf(bm.firstKey),
					append(slices.Clip(last), 0x00),
				)
			}
			starts = append(starts, []byte{}, []byte{0xff}, []byte{0xff, 0xff}, []byte("u"))
			for _, start := range starts {
				i := sort.Search(len(r.index), func(i int) bool {
					return bytes.Compare(r.index[i].firstKey, start) > 0
				}) - 1
				if i >= 0 {
					blk, _ := r.readBlock(i)
					if blk.search(start) == len(blk.offs) && i+1 < len(r.index) {
						pastBlock++
					}
					if bytes.Equal(r.index[i].firstKey, start) {
						onFirst++
					}
				}
				end := successor(slices.Clone(start))
				if len(start) > 0 && start[0] == 0xff && end != nil {
					t.Fatalf("successor(%q) = %q, want nil", start, end)
				}
				lo := sort.Search(len(all), func(i int) bool { return bytes.Compare(all[i], start) >= 0 })
				hi := len(all)
				if end != nil {
					hi = sort.Search(len(all), func(i int) bool { return bytes.Compare(all[i], end) >= 0 })
				}
				n := 0
				for it.seek(r, start, end); it.next(); n++ {
					if lo+n >= hi || !bytes.Equal(it.key(), all[lo+n]) {
						t.Fatalf("table %d seek %q: entry %d = %q, walk disagrees", r.id, start, n, it.key())
					}
				}
				if it.err != nil || lo+n != hi {
					t.Fatalf("table %d seek %q: %d entries (%v), walk has %d", r.id, start, n, it.err, hi-lo)
				}
			}
		}
	}
	if pastBlock == 0 || onFirst == 0 {
		t.Fatalf("seek cases not met: past the picked block's last key %d, on a block's first key %d", pastBlock, onFirst)
	}
	t.Logf("largest table %d blocks; seeks past the picked block %d, on a first key %d", maxBlocks, pastBlock, onFirst)
	if maxBlocks < minBlocks {
		t.Fatalf("largest table has %d blocks, want ≥ %d", maxBlocks, minBlocks)
	}
}
