package lsm

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"citare/internal/cache"
	"citare/internal/storage"
)

// Options configures a Store.
type Options struct {
	// MemtableBytes flushes the memtable to an SSTable once its estimated
	// size exceeds this bound. Default 8 MiB.
	MemtableBytes int
	// BlockBytes is the SSTable data-block size, counted as the block cache
	// holds a block (decoded; on disk it is smaller). Default 16 KiB.
	BlockBytes int
	// L0CompactTrigger starts a compaction when L0 accumulates this many
	// tables. Default 4.
	L0CompactTrigger int
	// TargetTableBytes splits compaction output at this size. Default 8 MiB.
	TargetTableBytes int
	// BlockCacheEntries bounds the shared block cache (per-block, so the
	// resident bound is roughly entries × BlockBytes). Default 256 (~4 MiB).
	BlockCacheEntries int
	// DisableBackgroundCompaction makes compaction explicit (Compact only);
	// used by tests that need deterministic file sets.
	DisableBackgroundCompaction bool
	// Failpoint, when set, is invoked at named crash points ("flush:after-sst",
	// "flush:after-manifest"); returning an error aborts the operation there,
	// simulating a crash with the on-disk state of that instant.
	Failpoint func(point string) error
}

func (o *Options) fill() {
	if o.MemtableBytes <= 0 {
		o.MemtableBytes = 8 << 20
	}
	if o.BlockBytes <= 0 {
		o.BlockBytes = defaultBlockSize
	}
	if o.L0CompactTrigger <= 0 {
		o.L0CompactTrigger = 4
	}
	if o.TargetTableBytes <= 0 {
		o.TargetTableBytes = 8 << 20
	}
	if o.BlockCacheEntries <= 0 {
		o.BlockCacheEntries = 256
	}
}

const (
	manifestName = "MANIFEST.json"
	manifestTmp  = "MANIFEST.tmp"
	walName      = "wal.log"
)

var errClosed = errors.New("lsm: store is closed")

// tableMeta is the manifest record of one SSTable.
type tableMeta struct {
	File    uint64
	Entries uint64
	Bytes   uint64
}

// versionCount records a relation's live-tuple count as of a committed
// version; the history answers RelView.Len for AsOf views exactly.
type versionCount struct {
	Version uint64
	Live    int
}

// manifest is the durable catalog: schema, version/sequence state, per-level
// table lists (level 0 newest-first) and the count history. It is replaced
// atomically (write temp, fsync, rename) on every flush and compaction.
type manifest struct {
	Version  uint64
	NextSeq  uint64
	NextFile uint64
	Labels   map[uint64]string
	Live     map[string]int
	Counts   map[string][]versionCount
	Levels   [][]tableMeta
	Schema   []*storage.RelSchema
}

// tableSet is an immutable, reference-counted set of SSTable readers. The
// store's current set holds one reference; every View holds another. When
// the last reference drops, the set returns its per-table references, which
// closes (and, for obsolete tables, deletes) files no set needs anymore.
type tableSet struct {
	levels [][]*sstReader // levels[0] newest-first; levels[1] key-ordered
	refs   atomic.Int32
}

func newTableSet(levels [][]*sstReader) *tableSet {
	ts := &tableSet{levels: levels}
	ts.refs.Store(1)
	for _, level := range levels {
		for _, r := range level {
			r.ref()
		}
	}
	return ts
}

func (ts *tableSet) acquire() { ts.refs.Add(1) }

func (ts *tableSet) release() {
	if ts.refs.Add(-1) == 0 {
		for _, level := range ts.levels {
			for _, r := range level {
				r.unref()
			}
		}
	}
}

func (ts *tableSet) all() []*sstReader {
	var out []*sstReader
	for _, level := range ts.levels {
		out = append(out, level...)
	}
	return out
}

// relMeta caches per-relation write-path facts.
type relMeta struct {
	rs     *storage.RelSchema
	keyIdx []int // set only when the key is a proper subset of the columns
}

// Store is the persistent LSM store. One writer at a time (writeMu); any
// number of concurrent snapshot readers, which never block the writer.
type Store struct {
	dir    string
	opt    Options
	schema *storage.Schema
	rels   map[string]*relMeta
	blocks *cache.Sharded[*dataBlock]

	// writeMu serializes logical mutations (Insert/Delete/Commit), flush,
	// compaction install and Close end to end.
	writeMu sync.Mutex
	// mu guards the fields below for snapshot-consistent reads; writers take
	// it briefly around state mutation. Lock order: writeMu before mu.
	mu       sync.RWMutex
	mem      *skiplist
	tables   *tableSet
	version  uint64
	nextSeq  uint64
	nextFile uint64
	labels   map[uint64]string
	live     map[string]int
	counts   map[string][]versionCount
	closed   bool
	// changes is the write log Changes answers from: the inserts and deletes
	// the memtable holds, per relation in sequence order, from changesFrom —
	// the next sequence number at the last flush, or at open, where WAL
	// replay rebuilds it. It holds changesLen writes; at maxChanges it starts
	// over from the next one. A flush replaces it rather than truncating it,
	// so a slice of it handed to a reader is never overwritten.
	changes     map[string]relLog
	changesFrom uint64
	changesLen  int

	wal      *wal
	walBytes atomic.Int64 // published copy of wal.size for lock-free Stats
	// keyBuf is the write path's one key buffer: Insert and Delete build
	// their probe keys in it, applyInsert and applyDelete every entry's key,
	// which the memtable copies. Guarded by writeMu; Open's replay runs alone.
	keyBuf []byte

	compactMu   sync.Mutex // one compaction at a time
	compactBusy atomic.Bool
	compactWG   sync.WaitGroup
	flushes     atomic.Uint64
	compactions atomic.Uint64
}

// Open opens (or creates) a store in dir. For a fresh directory schema must
// be non-nil; an existing store loads its schema from the manifest and
// ignores the argument. Recovery removes orphaned SSTables, truncates a torn
// WAL tail and replays the surviving records.
func Open(dir string, schema *storage.Schema, opt Options) (*Store, error) {
	opt.fill()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	os.Remove(filepath.Join(dir, manifestTmp))
	var man manifest
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	fresh := errors.Is(err, os.ErrNotExist)
	switch {
	case fresh:
		if schema == nil {
			return nil, errors.New("lsm: new store needs a schema")
		}
		man = manifest{Version: 1, NextSeq: 1, NextFile: 1, Schema: schema.Relations()}
	case err != nil:
		return nil, err
	default:
		if err := json.Unmarshal(raw, &man); err != nil {
			return nil, fmt.Errorf("lsm: corrupt manifest: %w", err)
		}
		schema = storage.NewSchema()
		for _, rs := range man.Schema {
			if err := schema.AddRelation(rs); err != nil {
				return nil, fmt.Errorf("lsm: manifest schema: %w", err)
			}
		}
	}
	s := &Store{
		dir:      dir,
		opt:      opt,
		schema:   schema,
		rels:     make(map[string]*relMeta),
		blocks:   cache.NewSharded[*dataBlock](8, opt.BlockCacheEntries),
		mem:      newSkiplist(),
		version:  man.Version,
		nextSeq:  man.NextSeq,
		nextFile: man.NextFile,
		labels:   man.Labels,
		live:     man.Live,
		counts:   man.Counts,

		changes:     make(map[string]relLog),
		changesFrom: man.NextSeq,
	}
	if s.labels == nil {
		s.labels = make(map[uint64]string)
	}
	if s.live == nil {
		s.live = make(map[string]int)
	}
	if s.counts == nil {
		s.counts = make(map[string][]versionCount)
	}
	for _, rs := range schema.Relations() {
		rm := &relMeta{rs: rs}
		if n := len(rs.Key); n > 0 && n < rs.Arity() {
			for _, kc := range rs.Key {
				rm.keyIdx = append(rm.keyIdx, rs.ColIndex(kc))
			}
		}
		s.rels[rs.Name] = rm
	}
	// Open the manifest's tables; anything else *.sst is an orphan from a
	// crash between SSTable write and manifest install.
	referenced := make(map[uint64]bool)
	levels := make([][]*sstReader, 2)
	// fail releases every table and the WAL opened so far: a failed Open
	// holds no descriptor.
	fail := func(err error) (*Store, error) {
		if s.tables != nil {
			s.tables.release()
		}
		for _, level := range levels {
			for _, r := range level {
				r.unref()
			}
		}
		if s.wal != nil {
			s.wal.close()
		}
		return nil, err
	}
	for lvl, metas := range man.Levels {
		if lvl > 1 {
			return fail(errCorrupt("manifest has more than two levels"))
		}
		for _, tm := range metas {
			r, err := openSSTable(s.tablePath(tm.File), tm.File, s.blocks)
			if err != nil {
				return fail(err)
			}
			levels[lvl] = append(levels[lvl], r)
			referenced[tm.File] = true
		}
	}
	s.tables = newTableSet(levels)
	for _, level := range levels {
		for _, r := range level {
			r.unref() // drop the creation reference; the set owns them now
		}
	}
	levels = nil
	if err := removeUnreferenced(dir, referenced); err != nil {
		return fail(err)
	}
	// Replay the WAL window past the manifest: records below NextSeq are
	// already durable in SSTables and are skipped, which makes a crash
	// between manifest install and WAL truncation harmless.
	recs, err := readWAL(filepath.Join(dir, walName))
	if err != nil {
		return fail(err)
	}
	for _, rec := range recs {
		if rec.seq < man.NextSeq {
			continue
		}
		switch rec.typ {
		case walInsert:
			if rm := s.rels[rec.rel]; rm != nil {
				s.applyInsert(rm, rec.vals, rec.seq)
			}
		case walDelete:
			if rm := s.rels[rec.rel]; rm != nil {
				s.applyDelete(rm, rec.vals, rec.seq)
			}
		case walCommit:
			s.applyCommit(rec.version, rec.label, rec.seq)
		}
	}
	if s.wal, err = openWAL(filepath.Join(dir, walName)); err != nil {
		return fail(err)
	}
	s.walBytes.Store(s.wal.size)
	if fresh {
		if err := s.writeManifest(); err != nil {
			return fail(err)
		}
	}
	return s, nil
}

func (s *Store) tablePath(id uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%06d.sst", id))
}

// Schema returns the store schema.
func (s *Store) Schema() *storage.Schema { return s.schema }

// Version returns the current (uncommitted) version number.
func (s *Store) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// Label returns the label of a committed version, if any.
func (s *Store) Label(version uint64) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.labels[version]
}

// Versions lists committed version numbers in ascending order.
func (s *Store) Versions() []uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []uint64
	for v := uint64(1); v < s.version; v++ {
		out = append(out, v)
	}
	return out
}

func checkVal(rel string, col storage.Column, val string) error {
	if col.Type == storage.TInt {
		if _, err := strconv.ParseInt(val, 10, 64); err != nil {
			return fmt.Errorf("lsm: %s.%s: %q is not an int", rel, col.Name, val)
		}
	}
	return nil
}

// probeLive reports whether the newest entry for a logical key across the
// memtable and every table is a set. Called on the write path under
// writeMu, where the store state is stable and everything written so far is
// visible.
func (s *Store) probeLive(logical []byte) (bool, error) {
	sc := getScratch()
	defer sc.put()
	sc.end = append(sc.end[:0], logical...)
	end := successor(sc.end)
	var op byte
	var ok bool
	var bestSeq uint64
	if sc.mem.seek(s.mem, logical, end); sc.mem.next() {
		_, seq := stampOf(sc.mem.key())
		op, ok, bestSeq = sc.mem.op(), true, seq
	}
	it := &sc.tableIters(1)[0]
	h1, h2 := bloomHash(logical)
	for _, level := range s.tables.levels {
		for _, r := range level {
			top, tseq, tok, terr := r.probe(it, logical, end, h1, h2)
			if terr != nil {
				return false, terr
			}
			if tok && (!ok || tseq > bestSeq) {
				op, ok, bestSeq = top, true, tseq
			}
		}
	}
	return ok && op == opSet, nil
}

func project(vals []string, idx []int) []string {
	out := make([]string, len(idx))
	for i, j := range idx {
		out[i] = vals[j]
	}
	return out
}

// Insert adds a tuple at the current version. Duplicate live tuples are
// ignored; a live tuple with the same primary key but different values is an
// error — mirroring storage.DB.
func (s *Store) Insert(rel string, vals ...string) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if s.closed {
		return errClosed
	}
	rm := s.rels[rel]
	if rm == nil {
		return fmt.Errorf("lsm: unknown relation %s", rel)
	}
	if len(vals) != rm.rs.Arity() {
		return fmt.Errorf("lsm: %s: arity %d, tuple has %d values", rel, rm.rs.Arity(), len(vals))
	}
	for i, col := range rm.rs.Cols {
		if err := checkVal(rel, col, vals[i]); err != nil {
			return err
		}
	}
	// A keyed relation writes a tuple's entries and its key's together, so
	// a tuple whose key is not live is not live either: the key's probe
	// decides, unless the key is live — then the tuple's own probe tells a
	// live duplicate from a key clash.
	probeTuple := rm.keyIdx == nil
	if !probeTuple {
		s.keyBuf = appendKeyProjection(s.keyBuf[:0], rel, vals, rm.keyIdx)
		live, err := s.probeLive(s.keyBuf)
		if err != nil {
			return err
		}
		probeTuple = live
	}
	if probeTuple {
		s.keyBuf = appendRotation(s.keyBuf[:0], rel, 0, vals)
		live, err := s.probeLive(s.keyBuf)
		if err != nil {
			return err
		}
		if live {
			return nil // live duplicate
		}
		if rm.keyIdx != nil {
			return fmt.Errorf("lsm: %s: duplicate key %v", rel, project(vals, rm.keyIdx))
		}
	}
	seq := s.nextSeq
	if err := s.wal.append(walRec{typ: walInsert, seq: seq, rel: rel, vals: vals}); err != nil {
		return err
	}
	s.walBytes.Store(s.wal.size)
	s.mu.Lock()
	s.applyInsert(rm, vals, seq)
	s.mu.Unlock()
	return s.maybeFlush()
}

// applyInsert writes the memtable entries of one insert. Caller holds
// writeMu and mu (or is Open's single-threaded replay).
func (s *Store) applyInsert(rm *relMeta, vals []string, seq uint64) {
	s.putEntries(rm, vals, seq, opSet)
	s.live[rm.rs.Name]++
	s.logChange(rm.rs.Name, seq, false, vals)
	s.nextSeq = seq + 1
}

// putEntries writes one key per ordering, plus the primary-key entry, each
// encoded into keyBuf.
func (s *Store) putEntries(rm *relMeta, vals []string, seq uint64, op byte) {
	for ord := 0; ord < rm.rs.Arity(); ord++ {
		s.keyBuf = appendStamp(appendRotation(s.keyBuf[:0], rm.rs.Name, ord, vals), s.version, seq)
		s.mem.put(s.keyBuf, op)
	}
	if rm.keyIdx != nil {
		s.keyBuf = appendStamp(appendKeyProjection(s.keyBuf[:0], rm.rs.Name, vals, rm.keyIdx), s.version, seq)
		s.mem.put(s.keyBuf, op)
	}
}

// Delete removes a live tuple at the current version, reporting whether it
// was live. Historical versions keep it: the tombstone only hides it from
// views at or past the deleting version.
func (s *Store) Delete(rel string, vals ...string) (bool, error) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if s.closed {
		return false, errClosed
	}
	rm := s.rels[rel]
	if rm == nil {
		return false, fmt.Errorf("lsm: unknown relation %s", rel)
	}
	if len(vals) != rm.rs.Arity() {
		return false, fmt.Errorf("lsm: %s: arity %d, tuple has %d values", rel, rm.rs.Arity(), len(vals))
	}
	s.keyBuf = appendRotation(s.keyBuf[:0], rel, 0, vals)
	if live, err := s.probeLive(s.keyBuf); err != nil || !live {
		return false, err
	}
	seq := s.nextSeq
	if err := s.wal.append(walRec{typ: walDelete, seq: seq, rel: rel, vals: vals}); err != nil {
		return false, err
	}
	s.walBytes.Store(s.wal.size)
	s.mu.Lock()
	s.applyDelete(rm, vals, seq)
	s.mu.Unlock()
	return true, s.maybeFlush()
}

func (s *Store) applyDelete(rm *relMeta, vals []string, seq uint64) {
	s.putEntries(rm, vals, seq, opTombstone)
	s.live[rm.rs.Name]--
	s.logChange(rm.rs.Name, seq, true, vals)
	s.nextSeq = seq + 1
}

// maxChanges bounds the write log: a log that reaches it starts over, and a
// range reaching before the new start answers unknown. A burst of writes
// that large — a bulk load — is past what bringing a cached token forward
// saves anyway, and without the bound the log would hold a second copy of
// the memtable's tuples. A variable only so that tests can make it small.
var maxChanges = 1 << 14

// relLog is one relation's part of the write log: per write its sequence
// number and whether it deleted, and its values back to back, the
// relation's arity of them per write — so logging a write allocates nothing
// of its own.
type relLog struct {
	seqs    []uint64
	deleted []bool
	vals    []string
}

// logChange appends a write to its relation's log; caller holds mu (or is
// Open's replay). The values are copied: the caller may reuse its slice.
func (s *Store) logChange(rel string, seq uint64, deleted bool, vals []string) {
	if s.changesLen == maxChanges {
		s.changes, s.changesFrom, s.changesLen = make(map[string]relLog), seq, 0
	}
	l := s.changes[rel]
	l.seqs, l.deleted, l.vals = append(l.seqs, seq), append(l.deleted, deleted), append(l.vals, vals...)
	s.changes[rel] = l
	s.changesLen++
}

// Changes calls fn with every insert and delete of rel whose sequence number
// lies in [from, to), oldest first, until fn returns false. A head view's
// Position is such a number: between the positions of two head views it
// lists exactly what the later one sees and the earlier does not. Changes
// answers from the writes the store still holds in memory; when the range
// starts before them — before the last flush, before the store was opened,
// or more than maxChanges writes back — it calls fn with nothing and returns
// false: the answer is unknown.
func (s *Store) Changes(rel string, from, to uint64, fn func(deleted bool, t storage.Tuple) bool) bool {
	s.mu.RLock()
	if from < s.changesFrom {
		s.mu.RUnlock()
		return false
	}
	log := s.changes[rel]
	s.mu.RUnlock()
	// Entries below the lengths read are immutable: writers append past
	// them, and a flush or a new start replaces the whole log.
	k := 0
	if rm := s.rels[rel]; rm != nil {
		k = rm.rs.Arity()
	}
	i, _ := slices.BinarySearch(log.seqs, from)
	for ; i < len(log.seqs) && log.seqs[i] < to; i++ {
		if !fn(log.deleted[i], log.vals[i*k:(i+1)*k:(i+1)*k]) {
			break
		}
	}
	return true
}

// Commit freezes the current version under an optional label and advances to
// the next, fsyncing the WAL — durability is to the last committed version.
// It returns the committed version number.
func (s *Store) Commit(label string) (uint64, error) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if s.closed {
		return 0, errClosed
	}
	seq := s.nextSeq
	if err := s.wal.append(walRec{typ: walCommit, seq: seq, version: s.version, label: label}); err != nil {
		return 0, err
	}
	if err := s.wal.sync(); err != nil {
		return 0, err
	}
	s.walBytes.Store(s.wal.size)
	s.mu.Lock()
	committed := s.version
	s.applyCommit(committed, label, seq)
	s.mu.Unlock()
	return committed, nil
}

func (s *Store) applyCommit(version uint64, label string, seq uint64) {
	if label != "" {
		s.labels[version] = label
	}
	for rel, n := range s.live {
		hist := s.counts[rel]
		if len(hist) > 0 && hist[len(hist)-1].Live == n {
			continue // unchanged since the last recorded version
		}
		s.counts[rel] = append(hist, versionCount{Version: version, Live: n})
	}
	s.version = version + 1
	s.nextSeq = seq + 1
}

// liveAt returns a relation's exact live count at a version, from the count
// history (historical) or the live map (current version).
func (s *Store) liveAt(rel string, version uint64) int {
	if version >= s.version {
		return s.live[rel]
	}
	hist := s.counts[rel]
	i := sort.Search(len(hist), func(i int) bool { return hist[i].Version > version })
	if i == 0 {
		return 0
	}
	return hist[i-1].Live
}

// Snapshot returns a view of the current state (committed and uncommitted),
// isolated from subsequent writes. Callers should Release it.
func (s *Store) Snapshot() (*View, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, errClosed
	}
	return s.viewLocked(s.version), nil
}

// AsOf returns a view of the database as of a committed version — one that
// Versions lists, 1 ≤ version < Version(). Committed versions are immutable,
// so the view is stable forever; the version still being written is not one
// of them (Snapshot views it).
func (s *Store) AsOf(version uint64) (*View, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, errClosed
	}
	if version == 0 || version >= s.version {
		return nil, fmt.Errorf("lsm: version %d is not committed (committed versions: 1 to %d)", version, s.version-1)
	}
	return s.viewLocked(version), nil
}

// viewLocked builds a view at maxVersion; caller holds mu (read or write).
func (s *Store) viewLocked(maxVersion uint64) *View {
	s.tables.acquire()
	ceil := s.nextSeq
	if maxVersion < s.version {
		// Entries at or below a committed version can no longer appear;
		// no sequence ceiling is needed and the view stays valid as the
		// current version keeps moving.
		ceil = ^uint64(0)
	}
	counts := make(map[string]int, len(s.rels))
	for rel := range s.rels {
		counts[rel] = s.liveAt(rel, maxVersion)
	}
	return newView(s.schema, s.mem, s.tables, maxVersion, ceil, counts)
}

func (s *Store) failpoint(point string) error {
	if s.opt.Failpoint == nil {
		return nil
	}
	return s.opt.Failpoint(point)
}

func (s *Store) maybeFlush() error {
	s.mu.RLock()
	full := s.mem.bytes >= s.opt.MemtableBytes
	s.mu.RUnlock()
	if !full {
		return nil
	}
	return s.flushLocked()
}

// Flush persists the memtable to a new level-0 SSTable and empties the WAL.
func (s *Store) Flush() error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if s.closed {
		return errClosed
	}
	return s.flushLocked()
}

// flushLocked runs a flush; caller holds writeMu. Ordering is what makes a
// crash at any point recoverable: SSTable (fsync) → manifest (atomic rename)
// → in-memory swap → WAL reset. Before the manifest lands, the table is an
// orphan and the WAL replays everything; after it lands, replay skips the
// now-durable window via the manifest's NextSeq.
func (s *Store) flushLocked() error {
	if s.mem.count == 0 {
		return nil
	}
	if err := s.wal.sync(); err != nil {
		return err
	}
	id := s.allocFileID()
	sw, err := newSSTWriter(s.tablePath(id), s.opt.BlockBytes)
	if err != nil {
		return err
	}
	var it memIter
	for it.seek(s.mem, nil, nil); it.next(); {
		if err := sw.add(it.key(), it.op()); err != nil {
			sw.f.Close()
			return err
		}
	}
	if err := sw.finish(); err != nil {
		return err
	}
	if err := s.failpoint("flush:after-sst"); err != nil {
		return err
	}
	r, err := openSSTable(s.tablePath(id), id, s.blocks)
	if err != nil {
		return err
	}
	levels := [][]*sstReader{append([]*sstReader{r}, s.tables.levels[0]...), s.tables.levels[1]}
	newSet := newTableSet(levels)
	if err := s.writeManifestLevels(levels); err != nil {
		newSet.release()
		r.unref()
		return err
	}
	if err := s.failpoint("flush:after-manifest"); err != nil {
		newSet.release()
		r.unref()
		return err
	}
	s.mu.Lock()
	old := s.tables
	s.tables = newSet
	s.mem = newSkiplist()
	s.changes, s.changesFrom, s.changesLen = make(map[string]relLog), s.nextSeq, 0
	s.mu.Unlock()
	old.release()
	r.unref() // creation reference; the new set owns it
	if err := s.wal.reset(); err != nil {
		return err
	}
	s.walBytes.Store(0)
	s.flushes.Add(1)
	s.maybeCompactAsync()
	return nil
}

func (s *Store) writeManifest() error {
	return s.writeManifestLevels(s.tables.levels)
}

// allocFileID reserves the next SSTable file number. Flush allocates under
// writeMu and compaction allocates mid-merge without it, so the counter is
// guarded by mu.
func (s *Store) allocFileID() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextFile
	s.nextFile++
	return id
}

// writeManifestLevels persists the catalog of the store's current state
// with the given table levels — at a flush, when the memtable's writes are
// in those tables; caller holds writeMu (version/sequence state is stable —
// only nextFile can move concurrently, bumped by a background compaction
// under mu).
func (s *Store) writeManifestLevels(levels [][]*sstReader) error {
	return s.installManifest(&manifest{
		Version: s.version,
		NextSeq: s.nextSeq,
		Labels:  s.labels,
		Live:    s.live,
		Counts:  s.counts,
		Schema:  s.schema.Relations(),
	}, levels)
}

// relevelManifest persists the durable catalog with new table levels and
// its version and sequence state unchanged — at a compaction, which moves
// tables while the memtable's writes are durable only in the WAL: replay
// skips every record below the catalog's NextSeq, which must stay the last
// flush's. Caller holds writeMu.
func (s *Store) relevelManifest(levels [][]*sstReader) error {
	raw, err := os.ReadFile(filepath.Join(s.dir, manifestName))
	if err != nil {
		return err
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return fmt.Errorf("lsm: corrupt manifest: %w", err)
	}
	return s.installManifest(&man, levels)
}

// installManifest gives man the table levels and the file counter and
// replaces the catalog with it atomically.
func (s *Store) installManifest(man *manifest, levels [][]*sstReader) error {
	s.mu.RLock()
	man.NextFile = s.nextFile
	s.mu.RUnlock()
	man.Levels = make([][]tableMeta, len(levels))
	for lvl, level := range levels {
		metas := []tableMeta{}
		for _, r := range level {
			metas = append(metas, tableMeta{File: r.id, Entries: r.entries, Bytes: r.size})
		}
		man.Levels[lvl] = metas
	}
	raw, err := json.MarshalIndent(man, "", " ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(s.dir, manifestTmp)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, manifestName)); err != nil {
		return err
	}
	// The rename is durable only once the directory is synced.
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (s *Store) maybeCompactAsync() {
	if s.opt.DisableBackgroundCompaction {
		return
	}
	if len(s.tables.levels[0]) < s.opt.L0CompactTrigger {
		return
	}
	if !s.compactBusy.CompareAndSwap(false, true) {
		return
	}
	s.compactWG.Add(1)
	go func() {
		defer s.compactWG.Done()
		defer s.compactBusy.Store(false)
		s.Compact()
	}()
}

// removeUnreferenced deletes every *.sst file of dir whose id is not listed.
func removeUnreferenced(dir string, referenced map[uint64]bool) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".sst") {
			continue
		}
		id, err := strconv.ParseUint(strings.TrimSuffix(e.Name(), ".sst"), 10, 64)
		if err != nil || !referenced[id] {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	return nil
}

// Close flushes the memtable, waits for compaction and releases every file.
// A view must not be used once its store is closed, so an obsolete table that
// a view never released still pins is deleted here rather than whenever that
// view's finalizer runs: a closed store's directory holds the tables its
// manifest names and nothing else, exactly as Open would leave it.
func (s *Store) Close() error {
	s.writeMu.Lock()
	if s.closed {
		s.writeMu.Unlock()
		return nil
	}
	err := s.flushLocked()
	s.writeMu.Unlock()
	s.compactWG.Wait()
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.mu.Lock()
	s.closed = true
	tables := s.tables
	s.mu.Unlock()
	if werr := s.wal.sync(); err == nil {
		err = werr
	}
	if cerr := s.wal.close(); err == nil {
		err = cerr
	}
	current := make(map[uint64]bool)
	for _, r := range tables.all() {
		current[r.id] = true
	}
	tables.release()
	if rerr := removeUnreferenced(s.dir, current); err == nil {
		err = rerr
	}
	return err
}

// LevelStats summarizes one level for /stats and /metrics.
type LevelStats struct {
	Tables  int    `json:"tables"`
	Entries uint64 `json:"entries"`
	Bytes   uint64 `json:"bytes"`
}

// StoreStats is a point-in-time snapshot of store internals.
type StoreStats struct {
	Version         uint64          `json:"version"`
	MemtableEntries int             `json:"memtable_entries"`
	MemtableBytes   int             `json:"memtable_bytes"`
	WALBytes        int64           `json:"wal_bytes"`
	Levels          []LevelStats    `json:"levels"`
	Flushes         uint64          `json:"flushes"`
	Compactions     uint64          `json:"compactions"`
	Live            map[string]int  `json:"live"`
	BlockCache      BlockCacheStats `json:"block_cache"`
}

// BlockCacheStats counts the shared data-block cache's traffic over the
// store's lifetime: a miss is a block read from disk, CRC-checked and parsed.
type BlockCacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// Stats reports current store internals.
func (s *Store) Stats() StoreStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := StoreStats{
		Version:         s.version,
		MemtableEntries: s.mem.count,
		MemtableBytes:   s.mem.bytes,
		WALBytes:        s.walBytes.Load(),
		Flushes:         s.flushes.Load(),
		Compactions:     s.compactions.Load(),
		Live:            make(map[string]int, len(s.live)),
	}
	bc := s.blocks.Stats()
	st.BlockCache = BlockCacheStats{Hits: bc.Hits, Misses: bc.Misses, Evictions: bc.Evictions}
	for rel, n := range s.live {
		st.Live[rel] = n
	}
	for _, level := range s.tables.levels {
		ls := LevelStats{Tables: len(level)}
		for _, r := range level {
			ls.Entries += r.entries
			ls.Bytes += r.size
		}
		st.Levels = append(st.Levels, ls)
	}
	return st
}
