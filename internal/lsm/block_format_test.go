package lsm

// The data-block format against its reference: a block stores each logical
// key once against the entry before it, and the block cache's fill decodes
// it back into exactly the bytes the full-key format wrote, cut at the same
// entries. Everything above the fill — search, entry, table iterators,
// compaction's merge — reads those bytes, so it cannot tell the two apart.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"citare/internal/cache"
)

// refBlock is a data block as the full-key format laid it out on disk,
// which is what the block cache holds.
type refBlock struct{ firstKey, data []byte }

// refEncode is the reference encoder: the full-key format's sstWriter.add,
// which wrote every entry as (uvarint key length, full key, op byte) and cut
// a block once its bytes reached blockSize.
func refEncode(keys [][]byte, ops []byte, blockSize int) []refBlock {
	var out []refBlock
	var cur refBlock
	for i, key := range keys {
		if cur.firstKey == nil {
			cur.firstKey = key
		}
		cur.data = binary.AppendUvarint(cur.data, uint64(len(key)))
		cur.data = append(cur.data, key...)
		cur.data = append(cur.data, ops[i])
		if len(cur.data) >= blockSize {
			out = append(out, cur)
			cur = refBlock{}
		}
	}
	if cur.data != nil {
		out = append(out, cur)
	}
	return out
}

// randomEntries draws a sorted set of distinct full keys and their ops: one-
// to three-field relations under rotation and key orderings, values with
// escaped 0x00 bytes and long shared runs, several stamps on one logical key,
// and versions and sequences near 2^64 (their uvarints are the longest).
func randomEntries(rng *rand.Rand) ([][]byte, []byte) {
	values := []string{"", "a", "ab", "abc", "\x00", "a\x00", "\x00\x00b", "\xff", strings.Repeat("x", 40), strings.Repeat("x", 41)}
	stamp := func() uint64 {
		switch rng.Intn(3) {
		case 0:
			return uint64(rng.Intn(4))
		case 1:
			return uint64(rng.Int63())
		}
		return ^uint64(0) - uint64(rng.Intn(3))
	}
	seen := map[string]bool{}
	var keys [][]byte
	for n := 1 + rng.Intn(300); len(keys) < n; {
		rel := []string{"r", "family", "family_intro"}[rng.Intn(3)]
		arity := 1 + rng.Intn(3)
		vals := make([]string, arity)
		for i := range vals {
			vals[i] = values[rng.Intn(len(values))]
		}
		var logical []byte
		if rng.Intn(5) == 0 {
			logical = appendKeyProjection(nil, rel, vals, []int{0})
		} else {
			logical = appendRotation(nil, rel, rng.Intn(arity), vals)
		}
		for range 1 + rng.Intn(3) { // entries sharing the whole logical key
			key := appendStamp(bytes.Clone(logical), stamp(), stamp())
			if !seen[string(key)] {
				seen[string(key)] = true
				keys = append(keys, key)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	ops := make([]byte, len(keys))
	for i := range ops {
		ops[i] = byte(opSet + rng.Intn(2))
	}
	return keys, ops
}

// TestBlockFormatMatchesReference: over random key sets and block sizes, a
// table written in the shared-prefix format and read back through the block
// cache's fill has the reference's block count and first keys, and every
// decoded block is the reference's bytes, with no spare capacity.
func TestBlockFormatMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dir := t.TempDir()
	blocks := cache.NewSharded[*dataBlock](1, 64)
	multi := 0
	for iter := range 300 {
		keys, ops := randomEntries(rng)
		blockSize := []int{1, 64, 256, 1024, 16 << 10}[iter%5]
		path := filepath.Join(dir, fmt.Sprintf("%d.sst", iter))
		sw, err := newSSTWriter(path, blockSize)
		if err != nil {
			t.Fatal(err)
		}
		for i, key := range keys {
			if err := sw.add(key, ops[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := sw.finish(); err != nil {
			t.Fatal(err)
		}
		r, err := openSSTable(path, uint64(iter), blocks)
		if err != nil {
			t.Fatal(err)
		}
		want := refEncode(keys, ops, blockSize)
		if len(r.index) != len(want) {
			t.Fatalf("set %d, block size %d: %d blocks, reference %d", iter, blockSize, len(r.index), len(want))
		}
		if len(want) > 1 && blockSize > 1 {
			multi++
		}
		for i, bm := range r.index {
			if !bytes.Equal(bm.firstKey, want[i].firstKey) {
				t.Fatalf("set %d block %d: first key %q, reference %q", iter, i, bm.firstKey, want[i].firstKey)
			}
			blk, err := r.readBlock(i)
			if err != nil {
				t.Fatalf("set %d block %d: %v", iter, i, err)
			}
			if !bytes.Equal(blk.data, want[i].data) || cap(blk.data) != len(blk.data) {
				t.Fatalf("set %d block %d: decoded %d bytes (cap %d) differ from the reference's %d", iter, i, len(blk.data), cap(blk.data), len(want[i].data))
			}
		}
		if r.entries != uint64(len(keys)) {
			t.Fatalf("set %d: footer counts %d entries, wrote %d", iter, r.entries, len(keys))
		}
		r.unref()
	}
	if multi < 50 {
		t.Fatalf("only %d key sets spanned several blocks of more than one entry", multi)
	}
}

// A table of the full-key format fails to open with the error that names
// it, not as a corrupt file, and not by being read as the current format.
func TestOldTableFormatFailsOpen(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, Options{DisableBackgroundCompaction: true})
	if err := st.Insert("cites", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	tables, _ := filepath.Glob(filepath.Join(dir, "*.sst"))
	if len(tables) == 0 {
		t.Fatal("the flush wrote no table")
	}
	for _, path := range tables {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(raw[len(raw)-8:], sstMagicFullKeys)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := Open(dir, nil, Options{DisableBackgroundCompaction: true})
	if err == nil {
		st.Close()
		t.Fatal("a store of full-key tables opened")
	}
	if !errors.Is(err, ErrOldTableFormat) || !strings.Contains(err.Error(), "format 1") {
		t.Fatalf("open: %v, want ErrOldTableFormat naming format 1", err)
	}
}

// Compaction reads every block of its inputs once, so it does not go
// through the block cache: over uncached tables it leaves the cache's
// contents and its hit and miss counts as they were. A block it reads
// itself is still checked — a flipped byte fails the compaction.
func TestCompactionDoesNotFillBlockCache(t *testing.T) {
	st := openTestStore(t, t.TempDir(), Options{DisableBackgroundCompaction: true, BlockBytes: 256})
	defer st.Close()
	flushRound := func(round int) {
		t.Helper()
		for i := range 50 {
			if err := st.Insert("cites", fmt.Sprintf("s%d-%d", round, i), "d"); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := st.Commit(""); err != nil {
			t.Fatal(err)
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for round := range 3 {
		flushRound(round)
	}
	st.blocks.Purge() // the inserts' probes cached blocks
	before, n := st.blocks.Stats(), st.blocks.Len()
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if after := st.blocks.Stats(); st.blocks.Len() != n || after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("compaction moved the block cache: %d entries → %d, %+v → %+v", n, st.blocks.Len(), before, after)
	}
	if lv := st.Stats().Levels; lv[0].Tables != 0 || lv[1].Tables == 0 {
		t.Fatalf("levels after compaction: %+v", lv)
	}
	v, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(scanAll(t, v, "cites")); got != 150 {
		t.Fatalf("%d tuples after compaction, want 150", got)
	}
	v.Release()

	flushRound(3)
	st.blocks.Purge()
	r := st.tables.levels[0][0]
	f, err := os.OpenFile(r.path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := []byte{0}
	off := int64(r.index[0].off) + 1
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := st.Compact(); err == nil || !strings.Contains(err.Error(), "block checksum") {
		t.Fatalf("compaction over a flipped block byte: %v, want a block checksum error", err)
	}
}
