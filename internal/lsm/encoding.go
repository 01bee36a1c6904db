// Package lsm is a dependency-free log-structured persistent backend for the
// citation store: a write-ahead log in front of a sorted memtable, flushed to
// immutable SSTable files with a sort-order-preserving composite key encoding
// (relation / index ordering / column values / version), per-table block
// indexes and bloom filters, and leveled background compaction.
//
// Versions are encoded into the keys themselves (inverted, so newer versions
// sort first within a logical key), which makes time travel durable: AsOf(V)
// reads are answered directly from the persistent key space by skipping
// entries stamped after V — no materialized per-version database.
// Snapshot isolation mirrors storage.DB's copy-on-write Snapshot: a snapshot
// pins the immutable SSTable set plus a memtable sequence-number ceiling, so
// concurrent writers never perturb an in-flight reader.
package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"

	"citare/internal/storage"
)

// Key layout
//
//	logical  := rel 0x00 ord field*            (field per column, rotated)
//	field    := escape(value) 0x00 0x01        (0x00 inside values → 0x00 0xFF)
//	full     := logical ^version(8) ^seq(8)    (big-endian bitwise-NOT stamps)
//
// The escaping preserves lexicographic value order across field boundaries
// (the 0x00 0x01 terminator sorts below every continuation byte), so a range
// scan over a prefix of encoded fields enumerates exactly the tuples whose
// leading columns match. Version and sequence stamps are inverted so that,
// within one logical key, the newest write sorts first — an AsOf(V) read
// seeks to the logical key and takes the first entry with version ≤ V.
//
// Full keys are what the memtable, the block cache and every reader see. An
// SSTable data block on disk stores them smaller — each logical key against
// the previous entry's, the stamp as two plain uvarints — and the block
// cache's fill rebuilds the full keys (sstable.go).
//
// Each relation is stored under arity many orderings: ordering o holds the
// tuple rotated to start at column o, giving every column a covering index a
// prefix scan can serve. Ordering pkOrd additionally indexes relations whose
// primary key is a proper subset of their columns, keyed by the key columns
// only, for O(1) uniqueness probes on the write path.

// Entry op codes (the value byte of every entry).
const (
	opSet       = 1
	opTombstone = 2
)

// pkOrd is the pseudo-ordering holding primary-key uniqueness probes. It
// sorts above all rotation orderings (arity is far below 0x7e) and below
// nothing that matters.
const pkOrd = 0x7e

// stampLen is the fixed-width version+sequence suffix of a full key.
const stampLen = 16

// appendField appends one escaped, terminated column value.
func appendField(dst []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		if v[i] == 0x00 {
			dst = append(dst, 0x00, 0xff)
		} else {
			dst = append(dst, v[i])
		}
	}
	return append(dst, 0x00, 0x01)
}

// appendLogicalPrefix appends rel 0x00 ord — the shared prefix of every key
// of one (relation, ordering) keyspace.
func appendLogicalPrefix(dst []byte, rel string, ord byte) []byte {
	dst = append(dst, rel...)
	return append(dst, 0x00, ord)
}

// appendStamp appends the inverted version and sequence suffix.
func appendStamp(dst []byte, version, seq uint64) []byte {
	var b [stampLen]byte
	binary.BigEndian.PutUint64(b[:8], ^version)
	binary.BigEndian.PutUint64(b[8:], ^seq)
	return append(dst, b[:]...)
}

// appendRotation appends the logical key of vals in ordering ord: the tuple
// rotated to start at column ord. A full key appends the stamp after it.
func appendRotation(dst []byte, rel string, ord int, vals []string) []byte {
	dst = appendLogicalPrefix(dst, rel, byte(ord))
	for i := range vals {
		dst = appendField(dst, vals[(ord+i)%len(vals)])
	}
	return dst
}

// appendKeyProjection appends the pkOrd logical key of vals: the values of
// the key columns idx.
func appendKeyProjection(dst []byte, rel string, vals []string, idx []int) []byte {
	dst = appendLogicalPrefix(dst, rel, pkOrd)
	for _, j := range idx {
		dst = appendField(dst, vals[j])
	}
	return dst
}

// logicalOf strips the version/sequence stamp, returning the logical key.
func logicalOf(full []byte) []byte { return full[:len(full)-stampLen] }

// stampOf decodes the version and sequence of a full key.
func stampOf(full []byte) (version, seq uint64) {
	s := full[len(full)-stampLen:]
	return ^binary.BigEndian.Uint64(s[:8]), ^binary.BigEndian.Uint64(s[8:])
}

// Errors of a malformed logical key, shared so a scan skipping one formats
// nothing.
var (
	errFieldEscape = errors.New("lsm: invalid field escape in key")
	errFieldCount  = errors.New("lsm: key field count differs from arity")
)

// rowDecoder turns logical keys into tuples. Its buffers are reused across
// rows; the tuples it returns are fresh and never alias them.
type rowDecoder struct {
	ends []int  // end offset of every field's terminator in the key
	buf  []byte // unescaped field bytes of a key with an escaped 0x00
}

// decode parses the k escaped fields of a logical key after prefixLen
// (rel 0x00 ord) straight into their unrotated slots: field i of ordering
// ord is column (ord+i) mod k. A key without an escape costs one string,
// sliced at the terminators, and the row; a key with one is unescaped into
// the decoder's buffer first, then made one string. A key that does not
// frame exactly k fields is an error.
func (d *rowDecoder) decode(logical []byte, prefixLen, ord, k int) (storage.Tuple, error) {
	src := logical[prefixLen:]
	d.ends = d.ends[:0]
	escaped := false
	tail := 0 // where the bytes after the last terminator start
	for i := 0; ; i += 2 {
		j := bytes.IndexByte(src[i:], 0x00)
		if j < 0 {
			break
		}
		i += j
		if i+1 >= len(src) {
			return nil, errFieldEscape
		}
		switch src[i+1] {
		case 0x01:
			if len(d.ends) == k {
				return nil, errFieldCount
			}
			d.ends = append(d.ends, i)
			tail = i + 2
		case 0xff:
			escaped = true
		default:
			return nil, errFieldEscape
		}
	}
	if tail != len(src) {
		return nil, errFieldEscape // an unterminated last field
	}
	if len(d.ends) != k {
		return nil, errFieldCount
	}
	row := make(storage.Tuple, k)
	if !escaped {
		s := string(src)
		from := 0
		for i, end := range d.ends {
			row[(ord+i)%k] = s[from:end]
			from = end + 2
		}
		return row, nil
	}
	// Unescape field by field; ends switch to offsets into buf.
	d.buf = d.buf[:0]
	from := 0
	for i, end := range d.ends {
		for p := from; p < end; p++ {
			d.buf = append(d.buf, src[p])
			if src[p] == 0x00 {
				p++ // the 0xff of an escape
			}
		}
		d.ends[i] = len(d.buf)
		from = end + 2
	}
	s := string(d.buf)
	from = 0
	for i, end := range d.ends {
		row[(ord+i)%k] = s[from:end]
		from = end
	}
	return row, nil
}

// successor turns prefix, in place, into the smallest byte string greater
// than every string with that prefix, or returns nil when the prefix is all
// 0xff (scan to end).
func successor(prefix []byte) []byte {
	for i := len(prefix) - 1; i >= 0; i-- {
		if prefix[i] != 0xff {
			prefix[i]++
			return prefix[:i+1]
		}
	}
	return nil
}
