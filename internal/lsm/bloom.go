package lsm

import "encoding/binary"

// bloom is a split-free bloom filter over logical keys, sized at build time
// for ~10 bits per key (k=7 hashes, ≈1% false positives). Point reads probe
// it before touching a table's block index, so a key-only existence check on
// a table that cannot contain the key costs seven bit tests and no I/O.
type bloom struct {
	bits  []byte
	nbits uint64
	k     uint32
}

// bloomHash is FNV-1a 64 over the key; the two halves seed a double-hashing
// scheme (h1 + i*h2), the standard way to derive k independent probes.
func bloomHash(key []byte) (uint64, uint64) {
	h := uint64(14695981039346656037)
	for _, c := range key {
		h ^= uint64(c)
		h *= 1099511628211
	}
	h2 := h>>33 | h<<31
	if h2 == 0 {
		h2 = 1
	}
	return h, h2
}

func newBloom(nkeys int) *bloom {
	if nkeys < 1 {
		nkeys = 1
	}
	nbits := uint64(nkeys) * 10
	if nbits < 64 {
		nbits = 64
	}
	return &bloom{bits: make([]byte, (nbits+7)/8), nbits: nbits, k: 7}
}

func (b *bloom) add(key []byte) {
	h1, h2 := bloomHash(key)
	for i := uint64(0); i < uint64(b.k); i++ {
		bit := (h1 + i*h2) % b.nbits
		b.bits[bit/8] |= 1 << (bit % 8)
	}
}

func (b *bloom) mayContain(key []byte) bool {
	h1, h2 := bloomHash(key)
	for i := uint64(0); i < uint64(b.k); i++ {
		bit := (h1 + i*h2) % b.nbits
		if b.bits[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}

// marshal serializes the filter (nbits, k, bit array).
func (b *bloom) marshal() []byte {
	out := make([]byte, 0, 12+len(b.bits))
	out = binary.AppendUvarint(out, b.nbits)
	out = binary.AppendUvarint(out, uint64(b.k))
	return append(out, b.bits...)
}

// maxBloomProbes bounds the hash probes a stored filter may ask of every
// lookup; the writer uses 7.
const maxBloomProbes = 32

// unmarshalBloom parses a serialized filter. The bit count must be positive
// and fit the bit array, which holds exactly the bytes it needs, and the
// probe count must lie in [1, maxBloomProbes]: mayContain divides by nbits
// and probes k times per lookup.
func unmarshalBloom(raw []byte) (*bloom, error) {
	nbits, n := binary.Uvarint(raw)
	if n <= 0 || nbits == 0 {
		return nil, errCorrupt("bloom nbits")
	}
	raw = raw[n:]
	k, n := binary.Uvarint(raw)
	if n <= 0 || k < 1 || k > maxBloomProbes {
		return nil, errCorrupt("bloom k")
	}
	raw = raw[n:]
	if uint64(len(raw)) != (nbits-1)/8+1 { // ⌈nbits/8⌉, without wrapping
		return nil, errCorrupt("bloom bits length")
	}
	return &bloom{bits: raw, nbits: nbits, k: uint32(k)}, nil
}
