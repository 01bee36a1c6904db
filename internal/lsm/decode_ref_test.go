package lsm

import (
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"testing"
)

// decodeFields is the reference field parser rowDecoder.decode replaced: it
// parses the escaped fields of a logical key after the given prefix length
// (rel 0x00 ord), one byte at a time, into a fresh string per field.
func decodeFields(logical []byte, prefixLen int) ([]string, error) {
	var out []string
	buf := logical[prefixLen:]
	var cur []byte
	for i := 0; i < len(buf); {
		c := buf[i]
		if c != 0x00 {
			cur = append(cur, c)
			i++
			continue
		}
		if i+1 >= len(buf) {
			return nil, fmt.Errorf("lsm: truncated field escape in key")
		}
		switch buf[i+1] {
		case 0x01: // terminator
			out = append(out, string(cur))
			cur = cur[:0]
			i += 2
		case 0xff: // escaped 0x00
			cur = append(cur, 0x00)
			i += 2
		default:
			return nil, fmt.Errorf("lsm: invalid field escape 0x%02x", buf[i+1])
		}
	}
	if len(cur) != 0 {
		return nil, fmt.Errorf("lsm: unterminated field in key")
	}
	return out, nil
}

// unrotate inverts rotate: fields holds vals rotated by ord.
func unrotate(fields []string, ord int) []string {
	k := len(fields)
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[(ord+i)%k] = fields[i]
	}
	return out
}

// checkDecodeAgainstReference decodes logical as a row of arity k in
// ordering ord both ways: the decoder must fail exactly when the reference
// fails or frames a different number of fields, and agree otherwise.
func checkDecodeAgainstReference(t *testing.T, d *rowDecoder, logical []byte, prefixLen, ord, k int) {
	t.Helper()
	got, err := d.decode(logical, prefixLen, ord, k)
	fields, refErr := decodeFields(logical, prefixLen)
	if refErr != nil || len(fields) != k {
		if err == nil {
			t.Fatalf("decode(%q, ord %d, k %d) = %q, reference fails (%v, %d fields)", logical, ord, k, got, refErr, len(fields))
		}
		return
	}
	if err != nil {
		t.Fatalf("decode(%q, ord %d, k %d): %v; reference %q", logical, ord, k, err, fields)
	}
	if want := unrotate(fields, ord); !slices.Equal([]string(got), want) {
		t.Fatalf("decode(%q, ord %d, k %d) = %q, reference %q", logical, ord, k, got, want)
	}
}

func TestRowDecoderMatchesReference(t *testing.T) {
	var d rowDecoder
	rows := [][]string{
		{"a", "b"}, {"", ""}, {"with\x00null", "x"}, {"\x00", "\x00\x00"},
		{"z\xff", "tail"}, {"one"}, {"p", "\x00q\x00", "", "r\xff\x00"},
	}
	for _, vals := range rows {
		for ord := range vals {
			key := appendRotation(nil, "rel", ord, vals)
			got, err := d.decode(key, len("rel")+2, ord, len(vals))
			if err != nil || !slices.Equal([]string(got), vals) {
				t.Fatalf("decode %q ord %d: %q, %v", vals, ord, got, err)
			}
			for k := 0; k <= len(vals)+1; k++ {
				checkDecodeAgainstReference(t, &d, key, len("rel")+2, ord%max(k, 1), k)
			}
		}
	}
	malformed := []string{
		"a\x00", "a\x00\x02", "a\x00\x01b", "a\x00\x01\x00\xff", "\x00\xff", "\x00\x01\x00\x01\x00\x01",
	}
	for _, m := range malformed {
		for k := 0; k <= 3; k++ {
			checkDecodeAgainstReference(t, &d, []byte(m), 0, 0, k)
		}
	}
}

// A decoded row must not alias the decoder's reused buffer: decoding the
// next key cannot change a row already handed out.
func TestRowDecoderRowsAreFresh(t *testing.T) {
	var d rowDecoder
	first, err := d.decode(appendField(appendField(nil, "a\x00b"), "c"), 0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.decode(appendField(appendField(nil, "x\x00y"), "z"), 0, 0, 2); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal([]string(first), []string{"a\x00b", "c"}) {
		t.Fatalf("first row changed under the decoder: %q", first)
	}
}

// FuzzDecodeRow: on arbitrary bytes the decoder either errors together with
// the reference decodeFields + unrotate or equals it, and never panics.
func FuzzDecodeRow(f *testing.F) {
	f.Add([]byte("a\x00\x01b\x00\x01"), uint8(0), uint8(2))
	f.Add([]byte("\x00\xff\x00\x01\x00\x01"), uint8(1), uint8(2))
	f.Add([]byte("a\x00\x01\x00\xff"), uint8(0), uint8(1))
	f.Add([]byte("x\x00\x02"), uint8(0), uint8(1))
	f.Add([]byte{}, uint8(0), uint8(0))
	var d rowDecoder
	f.Fuzz(func(t *testing.T, logical []byte, ord, k uint8) {
		arity := int(k % 9)
		o := 0
		if arity > 0 {
			o = int(ord) % arity
		}
		checkDecodeAgainstReference(t, &d, logical, 0, o, arity)
	})
}

// FuzzDataBlock: arbitrary bytes given a matching CRC and an arbitrary
// decoded length, opened through the block cache's fill, yield a framing
// corruption error (errEntry, errBlockSize) or a decoded block exactly the
// index's decoded length long whose entries all frame in bounds; the fill
// never panics and never allocates beyond the decoded length.
func FuzzDataBlock(f *testing.F) {
	sw := &sstWriter{blockSize: 1 << 30} // never cuts: block holds the encoding
	for i := 0; i < 4; i++ {
		key := appendStamp(appendRotation(nil, "r", 0, []string{fmt.Sprint(i * 11)}), 1, uint64(i))
		if err := sw.add(key, opSet); err != nil {
			f.Fatal(err)
		}
	}
	good, dlen := sw.block, uint32(sw.dlen)
	f.Add(good, dlen)
	f.Add(good, dlen-1)
	f.Add(good, dlen+1)
	f.Add(good[:len(good)-1], dlen)
	f.Add([]byte{0, 1, 'a', 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0, opSet}, uint32(1+17+1))
	f.Add([]byte{1, 0, 0, 0, opSet}, uint32(1+16+1))
	f.Add([]byte{0, 0x80}, uint32(1<<31))
	f.Add([]byte{}, uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, dlen uint32) {
		bm := blockMeta{off: 0, len: uint64(len(data)), dlen: uint64(dlen), crc: crc32.ChecksumIEEE(data)}
		blk, err := loadBlock(bytesReaderAt(data), bm, "fuzz.sst")
		if err != nil {
			if !errors.Is(err, errBlockSize) && !errors.Is(err, errEntry) {
				t.Fatalf("fill error %v is not a framing corruption error", err)
			}
			return
		}
		if uint64(len(blk.data)) != bm.dlen || cap(blk.data) != len(blk.data) {
			t.Fatalf("decoded %d bytes (cap %d), the index says %d", len(blk.data), cap(blk.data), dlen)
		}
		// A decoded entry is at least a length byte, a stamp and an op.
		if len(blk.offs) == 0 || (stampLen+2)*cap(blk.offs) > len(blk.data) {
			t.Fatalf("%d offsets (cap %d) for a %d-byte decoded block", len(blk.offs), cap(blk.offs), len(blk.data))
		}
		for i, off := range blk.offs {
			end, ok := entryEnd(blk.data, int(off))
			if !ok || (i > 0 && off <= blk.offs[i-1]) {
				t.Fatalf("entry %d at %d out of order or unframed (block %d bytes)", i, off, len(blk.data))
			}
			if i == len(blk.offs)-1 && end != len(blk.data) {
				t.Fatalf("last entry ends at %d of %d decoded bytes", end, len(blk.data))
			}
		}
		blk.search(good)
	})
}

// bytesReaderAt serves ReadAt from memory, standing in for a table file.
type bytesReaderAt []byte

func (b bytesReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > int64(len(b)) {
		return 0, errors.New("read past end")
	}
	return copy(p, b[off:]), nil
}
