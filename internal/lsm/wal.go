package lsm

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
)

// Write-ahead log. Every mutation is framed and appended before it touches
// the memtable:
//
//	record  := crc32(4 LE) len(4 LE) payload
//	payload := type(1) uvarint(seq) body
//	insert/delete body := uvarint(len rel) rel uvarint(n) n×(uvarint(len) bytes)
//	commit body        := uvarint(version) uvarint(len label) label
//
// The log is fsynced on Commit (and before every flush), so durability is
// "to the last committed version" — the semantics the paper's fixity
// argument needs. Records carry the sequence number they were assigned at
// write time; replay skips records already covered by the manifest's NextSeq,
// which makes a crash between manifest install and WAL truncation harmless
// (the re-applied window is empty). A torn record at the tail is detected by
// CRC and truncated away rather than failing the open.

const (
	walInsert byte = 1
	walDelete byte = 2
	walCommit byte = 3
)

type walRec struct {
	typ     byte
	seq     uint64
	rel     string
	vals    []string
	version uint64
	label   string
}

type wal struct {
	path  string
	f     *os.File
	buf   []byte
	size  int64
	dirty bool // appended since last sync
}

func openWAL(path string) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &wal{path: path, f: f, size: st.Size()}, nil
}

// readWAL replays the log, returning every intact record in order. A corrupt
// or torn tail truncates the file to the last good record.
func readWAL(path string) ([]walRec, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var recs []walRec
	good := 0
	for off := 0; off < len(raw); {
		if off+8 > len(raw) {
			break
		}
		crc := binary.LittleEndian.Uint32(raw[off:])
		plen := int(binary.LittleEndian.Uint32(raw[off+4:]))
		if off+8+plen > len(raw) {
			break
		}
		payload := raw[off+8 : off+8+plen]
		if crc32.ChecksumIEEE(payload) != crc {
			break
		}
		rec, err := parseWALRecord(payload)
		if err != nil {
			break
		}
		recs = append(recs, rec)
		off += 8 + plen
		good = off
	}
	if good < len(raw) {
		if err := os.Truncate(path, int64(good)); err != nil {
			return nil, err
		}
	}
	return recs, nil
}

func parseWALRecord(p []byte) (walRec, error) {
	var rec walRec
	if len(p) < 1 {
		return rec, io.ErrUnexpectedEOF
	}
	rec.typ = p[0]
	p = p[1:]
	readU := func() (uint64, bool) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, false
		}
		p = p[n:]
		return v, true
	}
	readS := func() (string, bool) {
		l, ok := readU()
		if !ok || uint64(len(p)) < l {
			return "", false
		}
		s := string(p[:l])
		p = p[l:]
		return s, true
	}
	var ok bool
	if rec.seq, ok = readU(); !ok {
		return rec, io.ErrUnexpectedEOF
	}
	switch rec.typ {
	case walInsert, walDelete:
		if rec.rel, ok = readS(); !ok {
			return rec, io.ErrUnexpectedEOF
		}
		n, ok := readU()
		// Every value takes at least its length byte: a count beyond the
		// bytes left is corrupt, and must not size an allocation.
		if !ok || n > uint64(len(p)) {
			return rec, io.ErrUnexpectedEOF
		}
		rec.vals = make([]string, n)
		for i := range rec.vals {
			if rec.vals[i], ok = readS(); !ok {
				return rec, io.ErrUnexpectedEOF
			}
		}
	case walCommit:
		if rec.version, ok = readU(); !ok {
			return rec, io.ErrUnexpectedEOF
		}
		if rec.label, ok = readS(); !ok {
			return rec, io.ErrUnexpectedEOF
		}
	default:
		return rec, errCorrupt("wal record type")
	}
	return rec, nil
}

// appendWALPayload appends rec's payload, the bytes parseWALRecord reads.
func appendWALPayload(p []byte, rec walRec) []byte {
	p = append(p, rec.typ)
	p = binary.AppendUvarint(p, rec.seq)
	switch rec.typ {
	case walInsert, walDelete:
		p = binary.AppendUvarint(p, uint64(len(rec.rel)))
		p = append(p, rec.rel...)
		p = binary.AppendUvarint(p, uint64(len(rec.vals)))
		for _, v := range rec.vals {
			p = binary.AppendUvarint(p, uint64(len(v)))
			p = append(p, v...)
		}
	case walCommit:
		p = binary.AppendUvarint(p, rec.version)
		p = binary.AppendUvarint(p, uint64(len(rec.label)))
		p = append(p, rec.label...)
	}
	return p
}

func (w *wal) append(rec walRec) error {
	p := append(w.buf[:0], 0, 0, 0, 0, 0, 0, 0, 0) // room for crc+len
	p = appendWALPayload(p, rec)
	payload := p[8:]
	binary.LittleEndian.PutUint32(p[0:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(p[4:], uint32(len(payload)))
	w.buf = p
	if _, err := w.f.Write(p); err != nil {
		return err
	}
	w.size += int64(len(p))
	w.dirty = true
	return nil
}

func (w *wal) sync() error {
	if !w.dirty {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.dirty = false
	return nil
}

// reset empties the log after a flush made its contents durable elsewhere.
func (w *wal) reset() error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	// O_APPEND writes follow the new (zero) end of file.
	w.size = 0
	w.dirty = false
	return nil
}

func (w *wal) close() error { return w.f.Close() }
