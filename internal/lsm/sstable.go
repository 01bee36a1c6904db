package lsm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"os"
	"sort"
	"strconv"
	"sync/atomic"

	"citare/internal/cache"
)

// SSTable file layout:
//
//	block*  index  bloom  footer
//
// A data block holds sorted entries, each storing its logical key once
// against the entry before it:
//
//	entry := uvarint shared  uvarint unshared  unshared-bytes
//	         uvarint version  uvarint seq  op
//
// shared counts the leading bytes the entry's logical key has in common
// with the previous entry's (0 for a block's first entry), and the stamp is
// the plain version and sequence, not the inverted fixed-width suffix of a
// full key. Blocks are cut when their decoded size (below) reaches
// blockBytes. The index records every block's first full key, offset,
// length, decoded length and CRC; the bloom filter covers the logical key of
// every entry. The fixed-size footer points at both and carries a CRC over
// them, so a torn write anywhere in the metadata is detected at open.
//
// A reader decodes a block when it enters the block cache: the fill checks
// the CRC and the framing of every entry once and rebuilds the entries as
// (uvarint full-key length, full key, op byte), keeping each entry's offset
// beside the bytes (dataBlock). So everything above the fill sees full keys,
// and a seek is a binary search over the index and then over the block's
// entries, O(log entries) key compares.

const (
	sstMagic         = 0xC17A_4E5D_B01D_FAD0
	sstMagicFullKeys = 0xC17A_4E5D_B01D_FACE // format 1: full keys in blocks
	footerLen        = 5*8 + 4 + 8
	defaultBlockSize = 16 << 10
)

// ErrOldTableFormat is what opening a store returns for an SSTable of format
// 1, whose blocks held every entry's full key. No reader for it is kept:
// rebuild the store from its source data.
var ErrOldTableFormat = errors.New("lsm: sstable format 1 (full-key blocks) is no longer read")

func errCorrupt(what string) error { return fmt.Errorf("lsm: corrupt sstable: %s", what) }

type blockMeta struct {
	firstKey []byte
	off      uint64
	len      uint64
	dlen     uint64 // decoded length: the block's size in the block cache
	crc      uint32
}

// sstWriter streams sorted entries into an SSTable file.
type sstWriter struct {
	f         *os.File
	w         *bufio.Writer
	blockSize int
	block     []byte // the current block, encoded
	dlen      int    // the current block's decoded length
	firstKey  []byte
	index     []blockMeta
	keys      [][]byte // logical keys for the bloom, deduplicated while sorted
	off       uint64
	entries   uint64
}

func newSSTWriter(path string, blockSize int) (*sstWriter, error) {
	if blockSize <= 0 {
		blockSize = defaultBlockSize
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &sstWriter{f: f, w: bufio.NewWriterSize(f, 1<<20), blockSize: blockSize}, nil
}

// add appends one entry; keys must arrive in ascending full-key order.
func (sw *sstWriter) add(key []byte, op byte) error {
	if sw.firstKey == nil {
		sw.firstKey = append([]byte(nil), key...)
	}
	logical := logicalOf(key)
	shared := 0
	if sw.dlen > 0 { // the last bloom key is the previous entry's logical key
		prev := sw.keys[len(sw.keys)-1]
		for shared < min(len(prev), len(logical)) && prev[shared] == logical[shared] {
			shared++
		}
	}
	version, seq := stampOf(key)
	sw.block = binary.AppendUvarint(sw.block, uint64(shared))
	sw.block = binary.AppendUvarint(sw.block, uint64(len(logical)-shared))
	sw.block = append(sw.block, logical[shared:]...)
	sw.block = binary.AppendUvarint(binary.AppendUvarint(sw.block, version), seq)
	sw.block = append(sw.block, op)
	sw.dlen += uvarintLen(uint64(len(key))) + len(key) + 1
	sw.entries++
	if len(sw.keys) == 0 || !bytes.Equal(sw.keys[len(sw.keys)-1], logical) {
		sw.keys = append(sw.keys, append([]byte(nil), logical...))
	}
	if sw.dlen >= sw.blockSize {
		return sw.cutBlock()
	}
	return nil
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// size is the file's length so far, the current block included.
func (sw *sstWriter) size() uint64 { return sw.off + uint64(len(sw.block)) }

func (sw *sstWriter) cutBlock() error {
	if len(sw.block) == 0 {
		return nil
	}
	if _, err := sw.w.Write(sw.block); err != nil {
		return err
	}
	sw.index = append(sw.index, blockMeta{
		firstKey: sw.firstKey,
		off:      sw.off,
		len:      uint64(len(sw.block)),
		dlen:     uint64(sw.dlen),
		crc:      crc32.ChecksumIEEE(sw.block),
	})
	sw.off += uint64(len(sw.block))
	sw.block, sw.dlen = sw.block[:0], 0
	sw.firstKey = nil
	return nil
}

// finish writes index, bloom and footer, syncs and closes the file.
func (sw *sstWriter) finish() (err error) {
	defer func() {
		if err != nil {
			sw.f.Close()
		}
	}()
	if err := sw.cutBlock(); err != nil {
		return err
	}
	var meta []byte
	meta = binary.AppendUvarint(meta, uint64(len(sw.index)))
	for _, bm := range sw.index {
		meta = binary.AppendUvarint(meta, uint64(len(bm.firstKey)))
		meta = append(meta, bm.firstKey...)
		meta = binary.AppendUvarint(meta, bm.off)
		meta = binary.AppendUvarint(meta, bm.len)
		meta = binary.AppendUvarint(meta, bm.dlen)
		meta = binary.LittleEndian.AppendUint32(meta, bm.crc)
	}
	bl := newBloom(len(sw.keys))
	for _, k := range sw.keys {
		bl.add(k)
	}
	blm := bl.marshal()
	idxOff, idxLen := sw.off, uint64(len(meta))
	bloomOff, bloomLen := idxOff+idxLen, uint64(len(blm))
	if _, err := sw.w.Write(meta); err != nil {
		return err
	}
	if _, err := sw.w.Write(blm); err != nil {
		return err
	}
	crc := crc32.ChecksumIEEE(meta)
	crc = crc32.Update(crc, crc32.IEEETable, blm)
	var footer [footerLen]byte
	binary.LittleEndian.PutUint64(footer[0:], idxOff)
	binary.LittleEndian.PutUint64(footer[8:], idxLen)
	binary.LittleEndian.PutUint64(footer[16:], bloomOff)
	binary.LittleEndian.PutUint64(footer[24:], bloomLen)
	binary.LittleEndian.PutUint64(footer[32:], sw.entries)
	binary.LittleEndian.PutUint32(footer[40:], crc)
	binary.LittleEndian.PutUint64(footer[44:], sstMagic)
	if _, err := sw.w.Write(footer[:]); err != nil {
		return err
	}
	if err := sw.w.Flush(); err != nil {
		return err
	}
	if err := sw.f.Sync(); err != nil {
		return err
	}
	return sw.f.Close()
}

// sstReader serves reads from one immutable SSTable. Index and bloom live in
// memory; data blocks are read on demand through the store's shared block
// cache. Readers are reference-counted: snapshots pin the tables they see,
// and an obsolete table's file is deleted only when the last reference
// drops.
type sstReader struct {
	path    string
	id      uint64
	f       *os.File
	index   []blockMeta
	bloom   *bloom
	entries uint64
	size    uint64
	refs    atomic.Int32
	dead    atomic.Bool // obsolete: remove the file when refs hit zero
	blocks  *cache.Sharded[*dataBlock]
	keys    []string // block cache key of every block, built at open
}

func openSSTable(path string, id uint64, blocks *cache.Sharded[*dataBlock]) (*sstReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() < footerLen {
		f.Close()
		return nil, errCorrupt("file shorter than footer")
	}
	var footer [footerLen]byte
	if _, err := f.ReadAt(footer[:], st.Size()-footerLen); err != nil {
		f.Close()
		return nil, err
	}
	switch binary.LittleEndian.Uint64(footer[44:]) {
	case sstMagic:
	case sstMagicFullKeys:
		f.Close()
		return nil, fmt.Errorf("%w: %s", ErrOldTableFormat, path)
	default:
		f.Close()
		return nil, errCorrupt("bad magic")
	}
	idxOff := binary.LittleEndian.Uint64(footer[0:])
	idxLen := binary.LittleEndian.Uint64(footer[8:])
	bloomOff := binary.LittleEndian.Uint64(footer[16:])
	bloomLen := binary.LittleEndian.Uint64(footer[24:])
	entries := binary.LittleEndian.Uint64(footer[32:])
	wantCRC := binary.LittleEndian.Uint32(footer[40:])
	// Index and bloom tile the bytes between the data blocks and the
	// footer; every comparison is on differences, so no extent can wrap.
	metaEnd := uint64(st.Size()) - footerLen
	if idxOff > metaEnd || idxLen > metaEnd-idxOff || bloomOff != idxOff+idxLen || bloomLen != metaEnd-bloomOff {
		f.Close()
		return nil, errCorrupt("metadata extents")
	}
	meta := make([]byte, idxLen+bloomLen)
	if _, err := f.ReadAt(meta, int64(idxOff)); err != nil {
		f.Close()
		return nil, err
	}
	if crc32.ChecksumIEEE(meta) != wantCRC {
		f.Close()
		return nil, errCorrupt("metadata checksum")
	}
	r := &sstReader{path: path, id: id, f: f, entries: entries, size: uint64(st.Size()), blocks: blocks}
	raw := meta[:idxLen]
	nblocks, n := binary.Uvarint(raw)
	if n <= 0 {
		f.Close()
		return nil, errCorrupt("index count")
	}
	raw = raw[n:]
	for i := uint64(0); i < nblocks; i++ {
		klen, n := binary.Uvarint(raw)
		if n <= 0 || uint64(len(raw[n:])) < klen {
			f.Close()
			return nil, errCorrupt("index key")
		}
		bm := blockMeta{firstKey: append([]byte(nil), raw[n:n+int(klen)]...)}
		raw = raw[n+int(klen):]
		if bm.off, n = binary.Uvarint(raw); n <= 0 {
			f.Close()
			return nil, errCorrupt("index offset")
		}
		raw = raw[n:]
		if bm.len, n = binary.Uvarint(raw); n <= 0 {
			f.Close()
			return nil, errCorrupt("index length")
		}
		raw = raw[n:]
		if bm.dlen, n = binary.Uvarint(raw); n <= 0 {
			f.Close()
			return nil, errCorrupt("index decoded length")
		}
		raw = raw[n:]
		if bm.len > idxOff || bm.off > idxOff-bm.len {
			f.Close()
			return nil, errCorrupt("index block extent")
		}
		if len(raw) < 4 {
			f.Close()
			return nil, errCorrupt("index crc")
		}
		bm.crc = binary.LittleEndian.Uint32(raw)
		raw = raw[4:]
		r.index = append(r.index, bm)
		r.keys = append(r.keys, strconv.FormatUint(id, 16)+":"+strconv.FormatUint(i, 10))
	}
	if r.bloom, err = unmarshalBloom(meta[idxLen:]); err != nil {
		f.Close()
		return nil, err
	}
	r.refs.Store(1) // owner reference, dropped by markObsolete or Close
	return r, nil
}

func (r *sstReader) ref() { r.refs.Add(1) }

func (r *sstReader) unref() {
	if r.refs.Add(-1) == 0 {
		r.f.Close()
		if r.dead.Load() {
			os.Remove(r.path)
		}
	}
}

// markObsolete drops the owner reference; the file is removed once every
// snapshot still reading it releases.
func (r *sstReader) markObsolete() {
	r.dead.Store(true)
	r.unref()
}

// dataBlock is one verified data block as the block cache holds it: the
// block's decoded bytes and the offset of every entry in them.
type dataBlock struct {
	data []byte
	offs []uint32
}

// Framing errors of a data block, shared so a hot path never formats one.
var (
	errBlockSize = errCorrupt("data block size")
	errEntry     = errCorrupt("data block entry")
)

// parseBlock decodes an encoded block into its cached form in one pass,
// checking the framing of every entry, then records where each decoded entry
// starts. dlen is the decoded length the index records: the decode fills one
// buffer of exactly that size. A block of n encoded bytes holds at most n/5
// entries of at most n+32 decoded bytes each, so a dlen past that is corrupt
// rather than an allocation size.
func parseBlock(enc []byte, dlen uint64) (*dataBlock, error) {
	n := uint64(len(enc))
	if n == 0 || dlen == 0 || dlen > 1<<31 || dlen/(n+32) > n/5 {
		return nil, errBlockSize
	}
	data := make([]byte, 0, dlen)
	var prev []byte // the previous entry's logical key, inside data
	pos, entries := 0, 0
	uvarint := func() (uint64, bool) {
		v, k := binary.Uvarint(enc[pos:])
		pos += max(k, 0)
		return v, k > 0
	}
	for ; pos < len(enc); entries++ {
		shared, ok1 := uvarint()
		unshared, ok2 := uvarint()
		if !ok1 || !ok2 || shared > uint64(len(prev)) || unshared > uint64(len(enc)-pos) {
			return nil, errEntry
		}
		suffix := enc[pos : pos+int(unshared)]
		pos += int(unshared)
		version, ok1 := uvarint()
		seq, ok2 := uvarint()
		if !ok1 || !ok2 || pos == len(enc) {
			return nil, errEntry
		}
		klen := shared + unshared + stampLen
		if uint64(uvarintLen(klen))+klen+1 > uint64(cap(data)-len(data)) {
			return nil, errBlockSize
		}
		data = binary.AppendUvarint(data, klen)
		start := len(data)
		data = append(append(data, prev[:shared]...), suffix...)
		prev = data[start:]
		data = append(appendStamp(data, version, seq), enc[pos])
		pos++
	}
	if uint64(len(data)) != dlen {
		return nil, errBlockSize
	}
	offs := make([]uint32, 0, entries)
	for pos := 0; pos < len(data); {
		offs = append(offs, uint32(pos))
		pos, _ = entryEnd(data, pos)
	}
	return &dataBlock{data: data, offs: offs}, nil
}

// entryEnd returns where the decoded entry starting at pos ends, or false
// when it does not frame: a bad length, a key shorter than its stamp, or a
// key or op byte running past the block.
func entryEnd(data []byte, pos int) (int, bool) {
	klen, n := binary.Uvarint(data[pos:])
	if n <= 0 || klen < stampLen || klen >= uint64(len(data)-pos-n) {
		return 0, false
	}
	return pos + n + int(klen) + 1, true
}

// entry returns the key and op of entry i; parseBlock vouched for its framing.
func (b *dataBlock) entry(i int) ([]byte, byte) {
	pos := int(b.offs[i])
	klen, n := binary.Uvarint(b.data[pos:])
	key := b.data[pos+n : pos+n+int(klen)]
	return key, b.data[pos+n+int(klen)]
}

// search returns the index of the first entry whose key is ≥ target.
func (b *dataBlock) search(target []byte) int {
	return sort.Search(len(b.offs), func(i int) bool {
		key, _ := b.entry(i)
		return bytes.Compare(key, target) >= 0
	})
}

// loadBlock reads one data block, verifies its CRC and decodes it: the
// block cache's fill.
func loadBlock(f io.ReaderAt, bm blockMeta, path string) (*dataBlock, error) {
	buf := make([]byte, bm.len)
	if _, err := f.ReadAt(buf, int64(bm.off)); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(buf) != bm.crc {
		return nil, errCorrupt("block checksum " + path)
	}
	blk, err := parseBlock(buf, bm.dlen)
	if err != nil {
		return nil, fmt.Errorf("%w in %s", err, path)
	}
	return blk, nil
}

// readBlock fetches (and caches) one verified data block.
func (r *sstReader) readBlock(i int) (*dataBlock, error) {
	blk, _, err := r.blocks.GetOrCompute(r.keys[i], func() (*dataBlock, error) {
		return loadBlock(r.f, r.index[i], r.path)
	})
	return blk, err
}

// peekBlock is readBlock for compaction, which reads every block once: it
// takes a cached block if there is one and leaves the cache, its order and
// its counters as they are.
func (r *sstReader) peekBlock(i int) (*dataBlock, error) {
	if blk, ok := r.blocks.Peek(r.keys[i]); ok {
		return blk, nil
	}
	return loadBlock(r.f, r.index[i], r.path)
}

// tableIter iterates one SSTable ascending within [start, end). It is the
// only table iterator: lookups, scans, write-path probes and compaction all
// position it with seek. A zero tableIter is ready for seek, so iterators
// live in pooled scan state rather than on the heap per call.
type tableIter struct {
	r        *sstReader
	blockIdx int
	blk      *dataBlock // nil once the table or the range is exhausted
	pos      int        // index of the next entry of blk
	end      []byte
	curKey   []byte
	curOp    byte
	err      error
	noFill   bool // compaction's: read blocks with peekBlock; kept by seek
}

// seek positions the iterator before the first key ≥ start of r: a binary
// search over the index picks the last block whose first key is ≤ start
// (earlier blocks cannot contain it), a second one over that block's entry
// offsets finds the entry.
func (it *tableIter) seek(r *sstReader, start, end []byte) {
	i := sort.Search(len(r.index), func(i int) bool {
		return bytes.Compare(r.index[i].firstKey, start) > 0
	}) - 1
	if i < 0 {
		i = 0
	}
	*it = tableIter{r: r, blockIdx: i, end: end, noFill: it.noFill}
	if it.load(); it.blk != nil {
		it.pos = it.blk.search(start)
	}
}

// load makes block blockIdx current, or leaves blk nil past the last block,
// at a block starting at or past end (it cannot contribute), or on error.
func (it *tableIter) load() {
	it.blk, it.pos = nil, 0
	if it.blockIdx >= len(it.r.index) ||
		it.end != nil && bytes.Compare(it.r.index[it.blockIdx].firstKey, it.end) >= 0 {
		return
	}
	if it.noFill {
		it.blk, it.err = it.r.peekBlock(it.blockIdx)
	} else {
		it.blk, it.err = it.r.readBlock(it.blockIdx)
	}
}

func (it *tableIter) next() bool {
	for it.blk != nil {
		if it.pos == len(it.blk.offs) {
			it.blockIdx++
			it.load()
			continue
		}
		key, op := it.blk.entry(it.pos)
		it.pos++
		if it.end != nil && bytes.Compare(key, it.end) >= 0 {
			it.blk = nil
			return false
		}
		it.curKey, it.curOp = key, op
		return true
	}
	return false
}

func (it *tableIter) key() []byte { return it.curKey }
func (it *tableIter) op() byte    { return it.curOp }

// probe returns the newest (first-sorting) entry whose logical key equals
// logical, using the bloom filter to skip tables that cannot contain it;
// h1, h2 are logical's bloomHash. end is the successor of logical; it
// positions the caller's iterator.
func (r *sstReader) probe(it *tableIter, logical, end []byte, h1, h2 uint64) (op byte, seq uint64, ok bool, err error) {
	if !r.bloom.mayContain(h1, h2) {
		return 0, 0, false, nil
	}
	it.seek(r, logical, end)
	if it.next() && bytes.Equal(logicalOf(it.key()), logical) {
		_, seq := stampOf(it.key())
		return it.op(), seq, true, nil
	}
	return 0, 0, false, it.err
}
