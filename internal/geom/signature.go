package geom

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Signature is a deterministic content hash of a geometric object. Two
// objects have equal signatures exactly when their canonical encodings
// are byte-identical, so a signature can stand in for the object as a
// cache key (the partition cache is content-addressed by hierarchy
// signature). SHA-256 keeps accidental collisions out of the picture.
type Signature [sha256.Size]byte

// String returns the full hexadecimal form of the signature.
func (s Signature) String() string { return hex.EncodeToString(s[:]) }

// appendBox appends the canonical little-endian encoding of b: Dim,
// then every Lo and Hi component. Unused components are pinned at
// Lo=0/Hi=1 by construction, so boxes of different dimensionality can
// never alias.
func appendBox(buf []byte, b Box) []byte {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], uint64(b.Dim))
	buf = append(buf, w[:]...)
	for d := 0; d < MaxDim; d++ {
		binary.LittleEndian.PutUint64(w[:], uint64(int64(b.Lo[d])))
		buf = append(buf, w[:]...)
	}
	for d := 0; d < MaxDim; d++ {
		binary.LittleEndian.PutUint64(w[:], uint64(int64(b.Hi[d])))
		buf = append(buf, w[:]...)
	}
	return buf
}

// AppendEncoding appends the canonical encoding of the list (length
// header plus every box, in order) to buf. Hashes that cover several
// lists — e.g. a hierarchy signature spanning levels — compose these
// encodings instead of mixing finished digests.
func (bl BoxList) AppendEncoding(buf []byte) []byte {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], uint64(len(bl)))
	buf = append(buf, w[:]...)
	for _, b := range bl {
		buf = appendBox(buf, b)
	}
	return buf
}
