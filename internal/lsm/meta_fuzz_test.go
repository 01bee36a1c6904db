package lsm

// The WAL record and SSTable metadata decoders against arbitrary bytes: they
// error, never panic and never size an allocation by a count the input
// cannot back. The regression tests pin the three bounds the fuzz targets
// found missing.

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"citare/internal/cache"
)

// A value count beyond the bytes left is corrupt, not an allocation size.
func TestWALRecordBoundsValueCount(t *testing.T) {
	p := appendWALPayload(nil, walRec{typ: walInsert, seq: 1, rel: "R"})
	p = binary.AppendUvarint(p[:len(p)-1], 1<<62) // replace the count 0
	if _, err := parseWALRecord(p); err != io.ErrUnexpectedEOF {
		t.Fatalf("count 2^62 over %d bytes: %v, want io.ErrUnexpectedEOF", len(p), err)
	}
	p = appendWALPayload(nil, walRec{typ: walInsert, seq: 1, rel: "R", vals: []string{"a", "b"}})
	p[len(p)-5]++ // count 3, two values follow
	if _, err := parseWALRecord(p); err != io.ErrUnexpectedEOF {
		t.Fatalf("count 3 with two values: %v, want io.ErrUnexpectedEOF", err)
	}
}

// FuzzWALRecord: a record either fails to parse or parses into one that
// re-encodes to itself, with no more values than the record had bytes.
func FuzzWALRecord(f *testing.F) {
	for _, rec := range []walRec{
		{typ: walInsert, seq: 7, rel: "Family", vals: []string{"11", "Calcitonin", "gpcr"}},
		{typ: walDelete, seq: 8, rel: "FC", vals: []string{"11", ""}},
		{typ: walCommit, seq: 9, version: 3, label: "curation"},
	} {
		f.Add(appendWALPayload(nil, rec))
	}
	f.Add(binary.AppendUvarint([]byte{walInsert, 1, 1, 'R'}, 1<<62))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		rec, err := parseWALRecord(p)
		if err != nil {
			return
		}
		if len(rec.vals) > len(p) {
			t.Fatalf("%d values from a %d-byte record", len(rec.vals), len(p))
		}
		again, err := parseWALRecord(appendWALPayload(nil, rec))
		if err != nil || !reflect.DeepEqual(again, rec) {
			t.Fatalf("re-encoded %+v parses as %+v, %v", rec, again, err)
		}
	})
}

// sstParts writes a small SSTable and returns its data blocks, its metadata
// (index then bloom) and the index length — the pieces writeSST reassembles.
func sstParts(tb testing.TB) (data, meta []byte, idxLen uint64) {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "seed.sst")
	sw, err := newSSTWriter(path, 64)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := sw.add(appendStamp(appendRotation(nil, "R", 0, []string{string(rune('a' + i))}), 1, uint64(i)), opSet); err != nil {
			tb.Fatal(err)
		}
	}
	if err := sw.finish(); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	footer := raw[len(raw)-footerLen:]
	idxOff := binary.LittleEndian.Uint64(footer[0:])
	return raw[:idxOff], raw[idxOff : len(raw)-footerLen], binary.LittleEndian.Uint64(footer[8:])
}

// writeSST writes data, meta and a footer whose extents are consistent
// modulo 2^64 — idxOff + idxLen = bloomOff, bloomOff + bloomLen = the
// footer's offset — with a valid magic and a CRC over meta, so a reader gets
// past every check that does not look at the extents themselves.
func writeSST(tb testing.TB, path string, data, meta []byte, idxLen uint64) {
	tb.Helper()
	idxOff := uint64(len(data))
	metaEnd := idxOff + uint64(len(meta))
	var footer [footerLen]byte
	binary.LittleEndian.PutUint64(footer[0:], idxOff)
	binary.LittleEndian.PutUint64(footer[8:], idxLen)
	binary.LittleEndian.PutUint64(footer[16:], idxOff+idxLen)
	binary.LittleEndian.PutUint64(footer[24:], metaEnd-(idxOff+idxLen))
	binary.LittleEndian.PutUint32(footer[40:], crc32.ChecksumIEEE(meta))
	binary.LittleEndian.PutUint64(footer[44:], sstMagic)
	file := append(append(append([]byte(nil), data...), meta...), footer[:]...)
	if err := os.WriteFile(path, file, 0o644); err != nil {
		tb.Fatal(err)
	}
}

// openAndScan opens the table at path and, if it opens, reads every entry
// and probes its bloom filter.
func openAndScan(path string) error {
	r, err := openSSTable(path, 1, cache.NewSharded[*dataBlock](1, 8))
	if err != nil {
		return err
	}
	defer r.unref()
	var it tableIter
	for it.seek(r, nil, nil); it.next(); {
	}
	r.bloom.mayContain(bloomHash([]byte("R")))
	return it.err
}

// An index length near 2^64 whose sum with the index offset wraps onto the
// bloom offset is corrupt: the extents are checked on differences.
func TestSSTableMetaExtentsDoNotWrap(t *testing.T) {
	data, meta, idxLen := sstParts(t)
	path := filepath.Join(t.TempDir(), "t.sst")
	writeSST(t, path, data, meta, idxLen)
	if err := openAndScan(path); err != nil {
		t.Fatalf("the table as written: %v", err)
	}
	writeSST(t, path, data, meta, ^uint64(0)-7)
	if err := openAndScan(path); err == nil {
		t.Fatal("an index length of 2^64-8 opened")
	}
}

// A bloom filter of no bits (every probe divides by the bit count), more
// bits than its array holds, or a probe count outside [1, 32] is corrupt.
func TestBloomRejectsBadGeometry(t *testing.T) {
	enc := func(nbits, k uint64, bits int) []byte {
		out := binary.AppendUvarint(binary.AppendUvarint(nil, nbits), k)
		return append(out, make([]byte, bits)...)
	}
	for _, tc := range []struct {
		name string
		raw  []byte
		ok   bool
	}{
		{"written", newBloom(10).marshal(), true},
		{"64 bits, 7 probes", enc(64, 7, 8), true},
		{"9 bits in 2 bytes", enc(9, 1, 2), true},
		{"no bits", enc(0, 7, 0), false},
		{"2^64-1 bits in 0 bytes", enc(^uint64(0), 7, 0), false},
		{"9 bits in 1 byte", enc(9, 7, 1), false},
		{"0 probes", enc(64, 0, 8), false},
		{"33 probes", enc(64, 33, 8), false},
		{"2^32 probes", enc(64, 1<<32, 8), false},
	} {
		b, err := unmarshalBloom(tc.raw)
		if (err == nil) != tc.ok {
			t.Fatalf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if b != nil {
			b.mayContain(bloomHash([]byte("probe")))
		}
	}
}

// FuzzSSTableMeta: arbitrary data and metadata bytes under a footer with a
// valid magic and metadata CRC either fail to open or open into a table
// whose every entry reads and whose bloom filter probes — never a panic, and
// never an allocation sized by a length the file cannot back.
func FuzzSSTableMeta(f *testing.F) {
	data, meta, idxLen := sstParts(f)
	f.Add(data, meta, idxLen)
	f.Add(data, meta, ^uint64(0)-7)
	f.Add([]byte{}, meta[idxLen:], uint64(0))
	bad := append([]byte(nil), meta...)
	bad[idxLen] = 0 // bloom nbits 0
	f.Add(data, bad, idxLen)
	path := filepath.Join(f.TempDir(), "fuzz.sst")
	f.Fuzz(func(t *testing.T, data, meta []byte, idxLen uint64) {
		writeSST(t, path, data, meta, idxLen)
		_ = openAndScan(path)
	})
}
