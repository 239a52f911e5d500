// Package tier is the fleet cache tier: a pluggable second-level cache
// behind the in-process memoization substrate (internal/memo), letting
// N samrd daemons act as one logical content-addressed cache. It has
// three parts, each usable alone:
//
//   - DiskStore: content-addressed blobs in one append-only log per
//     directory, CRC-framed, with an in-memory index (about 100 B
//     an entry), an LRU bound on an in-memory clock and compaction once
//     dead records outweigh live ones, so a restarted daemon comes
//     back warm and no entry creates a file.
//   - Ring: a rendezvous-hash ring over a static peer set, assigning
//     every key an owner daemon consistently across the fleet.
//   - PeerClient: an HTTP client for the GET/PUT /v1/tier/{key} peer
//     protocol served by internal/server that tries each exchange once,
//     never waiting out a Retry-After, with a circuit breaker on
//     repeatedly failing peers.
//
// Tier composes them. Lookup consults disk then the key's owner peer,
// and LookupAs decodes what it finds, quarantining a blob its decoder
// refuses: that is the read-through lookup behind memo.Tier. Store,
// which the server calls for a result it computed before it answers,
// writes disk and offers the blob to the owner. While an owner's
// breaker is open both go to the next peer in rendezvous order
// instead, and a member that comes back empty refills from its own
// misses and the offers it is sent: nothing runs in the background.
// The codec gives partition assignments and session snapshots a
// versioned, checksummed binary encoding, so a corrupt or truncated
// entry — disk bit-rot, a torn peer response — degrades to a cache
// miss, never a wrong answer. Geometry inside a
// blob (a snapshot's hierarchies, a fragment's box) is written and read
// by grid's geometry codec (grid.AppendHierarchy, grid.Reader), the
// strict reader that checks every count against the bytes left and
// refuses a box that is not planar. The checksum is an envelope, not a
// signature: anyone who can reach the peer protocol can seal a blob, so
// the typed decoders also refuse what no caller could survive (that
// box, an owner past the processor count, a level past maxLevel) and
// what the packed form a decoded assignment is read into cannot hold
// (a corner or an owner outside int32). A
// peer that lies with a well-formed value is a matter for
// authentication, which the tier does not have.
//
// The tier is an optimization layer by contract: every failure path
// (peer down, circuit open, corrupt blob, disk error) reports a miss
// and the caller recomputes locally. Values crossing the tier must be
// pure functions of their key: a postmap spec is tiered under its inner
// partitioner's key, and the relabel against a session's history
// happens after the lookup.
package tier

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"iter"
	"math"
	"slices"

	"samr/internal/geom"
	"samr/internal/grid"
	"samr/internal/partition"
)

// Blob kinds carried by the codec (one byte on the wire).
const (
	// KindAssignment is a partition.Assignment blob.
	KindAssignment byte = 1
	// Kind bytes 2 and 3 are retired layouts — simulator step artifacts,
	// and session snapshots that carried per-level digests and sha256
	// midstates beside the signature. They stay reserved and are never
	// reused: old disk dirs and mixed-version peers may still hold such
	// blobs, which pass the envelope check and fail every typed decoder
	// as a miss.
	// KindSessionSnapshot is a streaming-session snapshot: everything a
	// peer needs to resume a session under the same token (see
	// SessionSnapshot).
	KindSessionSnapshot byte = 4
)

// codecVersion is bumped whenever the payload layout changes; a blob
// from a different version decodes as corrupt (a miss), never as a
// wrong value, so mixed-version fleets stay correct.
const codecVersion byte = 1

// magic brands every tier blob; len(header) = 4 magic + 1 version + 1 kind.
var magic = [4]byte{'s', 'm', 't', 'r'}

const headerLen = 6
const checksumLen = sha256.Size

// ErrCorrupt is returned by the decoders for any blob that is not a
// byte-exact encoding of a value in bounds: wrong magic/version/kind,
// failed checksum, truncation, trailing garbage, or a box, owner, level
// or processor count out of range. Callers treat it as a cache miss.
var ErrCorrupt = fmt.Errorf("tier: corrupt blob")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// seal prepends the header and appends the sha256 checksum over
// header+payload.
func seal(kind byte, payload []byte) []byte {
	blob := make([]byte, 0, headerLen+len(payload)+checksumLen)
	blob = append(blob, magic[:]...)
	blob = append(blob, codecVersion, kind)
	blob = append(blob, payload...)
	sum := sha256.Sum256(blob)
	return append(blob, sum[:]...)
}

// open verifies the envelope and returns the payload.
func open(kind byte, blob []byte) ([]byte, error) {
	payload, gotKind, err := Open(blob)
	if err != nil {
		return nil, err
	}
	if gotKind != kind {
		return nil, corrupt("kind %d, want %d", gotKind, kind)
	}
	return payload, nil
}

// Open verifies a blob's envelope (magic, version, checksum) and
// returns its payload and kind. The server's PUT handler uses it to
// reject garbage before storing; the typed decoders build on it.
func Open(blob []byte) (payload []byte, kind byte, err error) {
	if len(blob) < headerLen+checksumLen {
		return nil, 0, corrupt("%d bytes, below minimum %d", len(blob), headerLen+checksumLen)
	}
	if [4]byte(blob[:4]) != magic {
		return nil, 0, corrupt("bad magic %q", blob[:4])
	}
	if blob[4] != codecVersion {
		return nil, 0, corrupt("version %d, want %d", blob[4], codecVersion)
	}
	body, sum := blob[:len(blob)-checksumLen], blob[len(blob)-checksumLen:]
	if sha256.Sum256(body) != [checksumLen]byte(sum) {
		return nil, 0, corrupt("checksum mismatch")
	}
	return body[headerLen:], blob[5], nil
}

// done ends a decode: the reader's error, or trailing bytes, is
// ErrCorrupt.
func done(r *grid.Reader) error {
	if err := r.Done(); err != nil {
		return corrupt("%v", err)
	}
	return nil
}

// appendFragments appends the canonical payload encoding of an
// assignment of nprocs processors whose n fragments frags yields:
// NumProcs, fragment count, then each fragment's level, owner, and box.
func appendFragments(buf []byte, nprocs, n int, frags iter.Seq[partition.Fragment]) []byte {
	buf = binary.AppendUvarint(buf, uint64(nprocs))
	buf = binary.AppendUvarint(buf, uint64(n))
	for f := range frags {
		buf = binary.AppendUvarint(buf, uint64(f.Level))
		buf = binary.AppendUvarint(buf, uint64(f.Owner))
		buf = grid.AppendBox(buf, f.Box)
	}
	return buf
}

// appendAssignment appends a's payload encoding.
func appendAssignment(buf []byte, a *partition.Assignment) []byte {
	return appendFragments(buf, a.NumProcs, len(a.Fragments), slices.Values(a.Fragments))
}

// maxLevel bounds a decoded fragment's level: grid.Hierarchy.StepFactor
// loops that many times.
const maxLevel = 64

// readPacked transcodes an assignment's payload straight into its
// packed stream. A fragment the packed form cannot hold — a corner
// outside int32, an owner past int32 — fails the reader like any other
// value out of bounds, so it is never truncated.
func readPacked(r *grid.Reader) partition.Packed {
	nprocs := r.Uvarint()
	// A fragment is level, owner, and a box: >= 2 + grid.BoxMinBytes.
	n := r.Count(r.Uvarint(), 2+grid.BoxMinBytes)
	if r.Err() == nil && (nprocs < 1 || nprocs > math.MaxInt) {
		r.Fail(fmt.Errorf("nprocs %d", nprocs))
	}
	if r.Err() != nil {
		return partition.Packed{}
	}
	p := partition.NewPacker(int(nprocs))
	for i := 0; i < n && r.Err() == nil; i++ {
		level, owner := r.Uvarint(), r.Uvarint()
		if r.Err() == nil && (level > maxLevel || owner >= nprocs) {
			r.Fail(fmt.Errorf("fragment %d: level %d, owner %d of %d", i, level, owner, nprocs))
		}
		box := r.Box()
		if r.Err() == nil {
			if err := p.Append(partition.Fragment{Level: int(level), Owner: int(owner), Box: box}); err != nil {
				r.Fail(fmt.Errorf("fragment %d: %v", i, err))
			}
		}
	}
	if r.Err() != nil {
		return partition.Packed{}
	}
	return p.Packed()
}

// EncodePacked seals p into a versioned, checksummed blob: the bytes
// EncodeAssignment seals for the assignment p was packed from, transcoded
// from p's stream.
func EncodePacked(p partition.Packed) []byte {
	return seal(KindAssignment, appendFragments(nil, p.NumProcs(), p.Len(), p.Fragments()))
}

// DecodePacked reverses EncodePacked and EncodeAssignment. Any altered,
// truncated, or mis-kinded blob, and any whose fragments the packed
// form cannot hold, returns an error wrapping ErrCorrupt.
func DecodePacked(blob []byte) (partition.Packed, error) {
	payload, err := open(KindAssignment, blob)
	if err != nil {
		return partition.Packed{}, err
	}
	r := grid.NewReader(payload)
	p := readPacked(r)
	if err := done(r); err != nil {
		return partition.Packed{}, err
	}
	return p, nil
}

// EncodeAssignment seals a into a versioned, checksummed blob.
func EncodeAssignment(a *partition.Assignment) []byte {
	return seal(KindAssignment, appendAssignment(nil, a))
}

// DecodeAssignment is DecodePacked, unpacked.
func DecodeAssignment(blob []byte) (*partition.Assignment, error) {
	p, err := DecodePacked(blob)
	if err != nil {
		return nil, err
	}
	return p.Unpack(), nil
}

// SessionSnapshot is the durable form of one streaming session — the
// committed state a peer daemon needs to resume the session under the
// same token after its owner dies: the current hierarchy geometry, the
// signature the owner last served for it (a rebuilt hierarchy that
// re-hashes to anything else means a damaged or stale snapshot and is a
// resume miss), the canonical partitioner spec, and — for postmap
// sessions — the mapping history. Snapshots are keyed
// per session token, so unlike the content-addressed result blobs a
// later snapshot for the same token legitimately overwrites an earlier
// one.
type SessionSnapshot struct {
	// Name is the canonical partitioner spec; NProcs the fixed count.
	Name   string
	NProcs int
	// Hierarchy is the session's committed regrid state; Sig is its
	// signature at snapshot time.
	Hierarchy *grid.Hierarchy
	Sig       geom.Signature
	// Stateful marks a postmap session; PrevHierarchy/PrevAssignment
	// carry its mapping history, the last committed step's hierarchy
	// and relabeled assignment (both nil before the first step).
	Stateful       bool
	PrevHierarchy  *grid.Hierarchy
	PrevAssignment *partition.Assignment
}

// appendBytes appends a length-prefixed byte string.
func appendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

func appendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func readBool(r *grid.Reader) bool {
	b := r.Bytes(1)
	if len(b) == 1 && b[0] > 1 {
		r.Fail(fmt.Errorf("bad bool %d", b[0]))
	}
	return len(b) == 1 && b[0] == 1
}

// EncodeSessionSnapshot seals ss into a versioned, checksummed blob.
func EncodeSessionSnapshot(ss *SessionSnapshot) []byte {
	payload := appendBytes(nil, []byte(ss.Name))
	payload = binary.AppendUvarint(payload, uint64(ss.NProcs))
	payload = grid.AppendHierarchy(payload, ss.Hierarchy)
	payload = append(payload, ss.Sig[:]...)
	payload = appendBool(payload, ss.Stateful)
	if ss.Stateful {
		hasHistory := ss.PrevHierarchy != nil && ss.PrevAssignment != nil
		payload = appendBool(payload, hasHistory)
		if hasHistory {
			payload = grid.AppendHierarchy(payload, ss.PrevHierarchy)
			payload = appendAssignment(payload, ss.PrevAssignment)
		}
	}
	return seal(KindSessionSnapshot, payload)
}

// DecodeSessionSnapshot reverses EncodeSessionSnapshot. The signature
// is decoded, not verified — the resuming server re-hashes the rebuilt
// hierarchy against it, so a snapshot that decodes cleanly can still be
// rejected as stale there.
func DecodeSessionSnapshot(blob []byte) (*SessionSnapshot, error) {
	payload, err := open(KindSessionSnapshot, blob)
	if err != nil {
		return nil, err
	}
	r := grid.NewReader(payload)
	ss := &SessionSnapshot{}
	ss.Name = string(r.Bytes(r.Count(r.Uvarint(), 1)))
	ss.NProcs = int(r.Uvarint())
	ss.Hierarchy = r.Hierarchy()
	copy(ss.Sig[:], r.Bytes(len(ss.Sig)))
	ss.Stateful = readBool(r)
	if ss.Stateful && readBool(r) {
		ss.PrevHierarchy = r.Hierarchy()
		ss.PrevAssignment = readPacked(r).Unpack()
	}
	if err := done(r); err != nil {
		return nil, err
	}
	return ss, nil
}
