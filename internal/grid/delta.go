package grid

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"fmt"
	"hash"

	"samr/internal/geom"
)

// Incremental signature maintenance. A regrid sequence replaces a few
// levels per step and keeps the rest, yet Signature() re-encodes and
// re-hashes the whole hierarchy every time — the dominant per-request
// cost of a partitioning service whose compute side is memoized. A
// *tracked* hierarchy caches, per level, the canonical encoding, its
// sha256 sub-digest, and the sha256 midstate of the top-level hash just
// before that level's bytes. Applying a delta then re-encodes and
// re-digests only the replaced levels and resumes the top hash from the
// midstate of the first changed level, so a step that replaces the
// finest level re-hashes one level. The signature value itself is
// unchanged: it is still sha256 over the exact canonical encoding
// AppendEncoding produces, byte-identical to a cold full re-hash (the
// delta property suite pins this).
//
// Contract: WithDelta is the only legal mutation of a tracked
// hierarchy. Direct writes to Domain, RefRatio, or Levels leave the
// cached digests stale. Clone deliberately drops the cache
// (clones are routinely mutated directly, e.g. by tests and the
// post-mapping partitioner's history snapshot).

// LevelDelta describes one level of a regrid step: either the level
// survives unchanged from the previous state (Keep) or its patch set is
// replaced wholesale by Boxes. A step is a []LevelDelta whose length is
// the new level count, so levels are appended by extending the slice
// and dropped by shortening it.
type LevelDelta struct {
	// Keep marks the level as surviving unchanged; Boxes is ignored.
	Keep bool
	// Boxes is the replacement patch set when !Keep (may be empty).
	Boxes geom.BoxList
}

// Replace returns the delta replacing a level's patches with boxes.
func Replace(boxes geom.BoxList) LevelDelta { return LevelDelta{Boxes: boxes} }

// Keep returns the delta keeping a level unchanged.
func Keep() LevelDelta { return LevelDelta{Keep: true} }

// sigCache is the incrementally maintained signature state of a tracked
// hierarchy. Every byte slice it holds is immutable once stored:
// updates replace whole entries, so caches may share entries with the
// states they were derived from (WithDelta chains).
type sigCache struct {
	// header is the encoding prefix before any level: domain box,
	// refinement ratio, level count.
	header []byte
	// levelEnc[l] is level l's canonical encoding
	// (levelEncoding(Levels[l].Boxes)).
	levelEnc [][]byte
	// levelDig[l] is sha256 over levelEnc[l]: the per-level sub-digest
	// the session wire protocol exposes for delta validation.
	levelDig []geom.Signature
	// mid[l] is the marshaled sha256 state after header and levels < l
	// — the resume point when level l is the first change.
	mid [][]byte
	// top is the full-hierarchy signature, identical to sha256 over
	// AppendEncoding.
	top geom.Signature
}

// appendHeader appends the encoding prefix (domain, ref ratio, level
// count) that AppendEncoding writes before the levels.
func (h *Hierarchy) appendHeader(buf []byte) []byte {
	return AppendEncodingHeader(buf, h.Domain, h.RefRatio, len(h.Levels))
}

// AppendEncodingHeader appends the prefix AppendEncoding writes before
// the levels of a hierarchy of domain, refRatio and levels levels, so
// that a caller holding the levels in another form (geom.Corners) can
// write the rest and hash the same bytes.
func AppendEncodingHeader(buf []byte, domain geom.Box, refRatio, levels int) []byte {
	buf = geom.BoxList{domain}.AppendEncoding(buf)
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], uint64(int64(refRatio)))
	buf = append(buf, w[:]...)
	binary.LittleEndian.PutUint64(w[:], uint64(levels))
	return append(buf, w[:]...)
}

// TrackSignature builds (or rebuilds from scratch) the incremental
// signature cache: per-level encodings, sub-digests, and hash
// midstates. It is the O(hierarchy) entry fee paid once — per session,
// at create — after which every delta costs O(changed levels) in
// encoding and hashing. Calling it on an already-tracked hierarchy
// rebuilds the cache, which also re-syncs after a direct mutation.
func (h *Hierarchy) TrackSignature() {
	c := &sigCache{
		header:   h.appendHeader(nil),
		levelEnc: make([][]byte, len(h.Levels)),
		levelDig: make([]geom.Signature, len(h.Levels)),
		mid:      make([][]byte, len(h.Levels)),
	}
	for l, lev := range h.Levels {
		c.levelEnc[l] = levelEncoding(lev.Boxes)
		c.levelDig[l] = sha256.Sum256(c.levelEnc[l])
	}
	c.rehashFrom(0)
	h.sig = c
}

// Tracked reports whether the hierarchy carries the incremental
// signature cache.
func (h *Hierarchy) Tracked() bool { return h.sig != nil }

// LevelSignature returns the sub-digest of level l: sha256 over the
// level's canonical box-list encoding. Tracked hierarchies serve it
// from the cache; untracked ones compute it on the fly.
func (h *Hierarchy) LevelSignature(l int) geom.Signature {
	if h.sig != nil {
		return h.sig.levelDig[l]
	}
	return sha256.Sum256(levelEncoding(h.Levels[l].Boxes))
}

// levelEncoding is a level's canonical encoding in an exact-size
// slice: a tracked hierarchy keeps one a level for as long as it lives.
func levelEncoding(bl geom.BoxList) []byte {
	return bl.AppendEncoding(make([]byte, 0, bl.EncodedLen()))
}

// rehashFrom resumes the top-level hash at level k (0 restarts at the
// header), refreshing mid[k:] and top. Midstates before k must be
// valid: the header and every level below k unchanged.
func (c *sigCache) rehashFrom(k int) {
	d := sha256.New()
	if k > 0 {
		if !restoreDigest(d, c.mid[k]) {
			k = 0 // defensive: unusable midstate, start over
		}
	}
	if k == 0 {
		d.Write(c.header) //nolint:errcheck // sha256 never fails
	}
	for l := k; l < len(c.levelEnc); l++ {
		c.mid[l] = marshalDigest(d)
		d.Write(c.levelEnc[l]) //nolint:errcheck
	}
	sum := d.Sum(nil)
	copy(c.top[:], sum)
}

// marshalDigest snapshots a sha256 midstate.
func marshalDigest(d hash.Hash) []byte {
	m, err := d.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		return nil
	}
	return m
}

// restoreDigest resumes d from a snapshot, reporting success.
func restoreDigest(d hash.Hash, state []byte) bool {
	if state == nil {
		return false
	}
	return d.(encoding.BinaryUnmarshaler).UnmarshalBinary(state) == nil
}

// WithDelta returns a new hierarchy: the regrid state reached by
// applying step to h, leaving h untouched. Entry l of step is level l
// of the new state — kept (shared with h, which both states treat as
// immutable from then on) or replaced. The new state has exactly
// len(step) levels, so appending a level is a step one entry longer
// and dropping one is a step one entry shorter.
//
// The delta is validated by Validate's own check, restricted to what a
// replacement can break: a replaced level's dimensionality, extent,
// disjointness, domain containment and (level 0) cover, and nesting
// across every boundary with a replaced level on either side. That
// costs, for each replaced level, a plane sweep over it and one over it
// and its refined parent; for a kept level under a replaced parent the
// second of those; nothing for the other levels. The signature cache is
// carried over: only replaced
// levels are re-encoded and re-digested, and the top
// signature resumes from the midstate of the first change (on a level
// count change the length header forces a re-hash of the cached level
// encodings, with no re-encoding). An error leaves every state, cache
// included, exactly as it was — the caller can retry or discard.
func (h *Hierarchy) WithDelta(step []LevelDelta) (*Hierarchy, error) {
	if len(step) == 0 {
		return nil, fmt.Errorf("grid: delta has no levels (level 0 is mandatory)")
	}
	old := len(h.Levels)
	levels := make([]Level, len(step))
	changed := make([]bool, len(step))
	first := len(step) // first changed level
	for l, d := range step {
		if d.Keep {
			if l >= old {
				return nil, fmt.Errorf("grid: delta keeps level %d, but the previous state has %d levels", l, old)
			}
			levels[l] = h.Levels[l]
			continue
		}
		levels[l] = Level{Boxes: d.Boxes}
		changed[l] = true
		if l < first {
			first = l
		}
	}
	out := &Hierarchy{Domain: h.Domain, RefRatio: h.RefRatio, Levels: levels}
	if err := out.check("delta level", changed); err != nil {
		return nil, err
	}

	if h.sig == nil {
		out.TrackSignature()
		return out, nil
	}
	c := &sigCache{
		levelEnc: make([][]byte, len(step)),
		levelDig: make([]geom.Signature, len(step)),
		mid:      make([][]byte, len(step)),
	}
	for l := range step {
		if !changed[l] {
			c.levelEnc[l] = h.sig.levelEnc[l]
			c.levelDig[l] = h.sig.levelDig[l]
			continue
		}
		c.levelEnc[l] = levelEncoding(levels[l].Boxes)
		c.levelDig[l] = sha256.Sum256(c.levelEnc[l])
	}
	if len(step) != old {
		// The level-count header changed, invalidating every midstate:
		// re-hash all (cached) level encodings from the new header.
		c.header = out.appendHeader(nil)
		c.rehashFrom(0)
	} else {
		c.header = h.sig.header
		if first == len(step) {
			// Pure-keep step: the state, and so the signature, is
			// unchanged.
			copy(c.levelEnc, h.sig.levelEnc)
			copy(c.levelDig, h.sig.levelDig)
			copy(c.mid, h.sig.mid)
			c.top = h.sig.top
		} else {
			copy(c.mid[:first+1], h.sig.mid[:first+1])
			c.rehashFrom(first)
		}
	}
	out.sig = c
	return out, nil
}
