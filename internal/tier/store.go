package tier

import (
	"bufio"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// logName is the store's log inside its directory; anything else there
// but put-*.tmp leftovers and legacy entries is left alone.
const logName = "tier.log"

// legacySuffix marks an entry of the one-file-per-entry layout that
// builds before the log wrote (<key>.tier); open imports them.
const legacySuffix = ".tier"

// A record is the key as 64 hex bytes, the blob's length as a
// little-endian uint32, the blob, and a little-endian CRC-32C over the
// three. A zero-length blob is a tombstone.
const (
	recHeader = keyLen + 4
	recFramed = recHeader + 4 // a record's bytes besides its blob
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// binKey is a tier key decoded from hex: the index's map key.
type binKey [sha256.Size]byte

// DiskStore is the persistent level of the cache tier: content-
// addressed blobs in one append-only log under a directory, with an
// in-memory index from key to the blob's offset. After open a Put is
// one write(2) of a record and a Get one pread of a blob, each behind
// one fstat of the log; no entry ever creates a file. Open reads the
// log as a stream: a record that runs past the end is a torn tail and
// is truncated, and a record whose CRC fails is skipped, so bit rot
// costs that record and not the rest of the log. A rotted length field
// reads as a torn tail and costs the records after it. The CRC is
// checked only there: a Get returns the blob's bytes as they lie on
// disk.
//
// The bound is an LRU over an in-memory clock that Get and Put
// advance; a restart reads the log's order as the initial recency.
// Past its bound the store drops least-recently-used entries down to
// 7/8 of it, and once the log's dead bytes (overwritten, deleted and
// evicted records) outweigh its live ones, the next Put or Delete
// rewrites the live records, oldest first, into a put-*.tmp renamed
// over the log: one file created per at least a log's worth of
// appends, inline, and nothing runs in the background. The index holds
// 84–105 B an entry (go 1.24's map): about 8 MB at the default 256 MiB
// bound full of 3 KB blobs.
//
// Two stores may share a directory (a restarted daemon's twin, in
// tests). Every record goes out in one O_APPEND write, so neither
// tears the other's, and every operation fstats the log first: a log
// that grew is indexed up to its new end, and one whose path no longer
// names it (the other store compacted, or the directory was lost) is
// reopened and reindexed. A record that one store appends while the
// other compacts, between the compacting store's last fstat and its
// rename, is lost with the old file, which a cache can afford.
//
// The store never interprets blob contents: corruption is the
// decoder's concern, and a decode failure comes back through Delete,
// whose tombstone keeps the entry gone across restarts.
type DiskStore struct {
	dir      string
	maxBytes int64

	mu      sync.Mutex
	log     *os.File // opened O_APPEND; nil while it cannot be opened
	fd      int      // log's descriptor, fstat'ed without allocating
	index   map[binKey]logEntry
	clock   uint64 // LRU clock: every Get and Put advances it
	scanned int64  // the log is indexed up to here
	end     int64  // the log's length as last seen
	live    int64  // indexed records' bytes, framing included
	bytes   int64  // indexed blobs' bytes

	puts, evictions, errors atomic.Uint64
}

// logEntry is where the index finds a key's blob.
type logEntry struct {
	off  int64  // the record's offset in the log
	n    uint32 // the blob's length
	used uint64 // the LRU clock at the last Get or Put
}

// OpenDiskStore opens (creating if needed) a store under dir bounded
// to maxBytes of blob data (the entry just written is always kept;
// maxBytes <= 0 selects 256 MiB). Entries already there — a previous
// daemon's log and any legacy <key>.tier files, which are moved into
// the log — are kept, evicting the oldest if they exceed the bound.
func OpenDiskStore(dir string, maxBytes int64) (*DiskStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("tier: empty disk store directory")
	}
	if maxBytes <= 0 {
		maxBytes = 256 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tier: %w", err)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("tier: %w", err)
	}
	s := &DiskStore{dir: dir, maxBytes: maxBytes}
	s.mu.Lock()
	defer s.mu.Unlock()
	// A leftover put-*.tmp is a compaction (or, from an older build, a
	// put) that a crash interrupted before its rename: never the log.
	for _, de := range des {
		name := de.Name()
		if !de.IsDir() && strings.HasPrefix(name, "put-") && strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name)) //nolint:errcheck
		}
	}
	torn, err := s.openLogLocked()
	if err != nil {
		return nil, err
	}
	if torn {
		if err := s.log.Truncate(s.scanned); err != nil {
			return nil, fmt.Errorf("tier: truncating the log's torn tail: %w", err)
		}
		s.end = s.scanned
	}
	s.importLegacyLocked(des)
	s.evictLocked(nil)
	return s, nil
}

// parseKey decodes a tier key, fixed-length lowercase hex (a content
// hash): every wire-supplied key passes it before it reaches the index
// or the log.
func parseKey[T string | []byte](key T) (id binKey, ok bool) {
	if len(key) != keyLen {
		return id, false
	}
	for i := range id {
		hi, ok1 := unhex(key[2*i])
		lo, ok2 := unhex(key[2*i+1])
		if !ok1 || !ok2 {
			return id, false
		}
		id[i] = hi<<4 | lo
	}
	return id, true
}

func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}

// validKey reports whether key is a well-formed tier key.
func validKey(key string) bool {
	_, ok := parseKey(key)
	return ok
}

// appendRecord appends key's record of blob to dst.
func appendRecord(dst []byte, key string, blob []byte) []byte {
	start := len(dst)
	dst = append(dst, key...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(blob)))
	dst = append(dst, blob...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// Get returns the blob stored under key and marks it recently used.
func (s *DiskStore) Get(key string) ([]byte, bool) {
	id, ok := parseKey(key)
	if !ok {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.syncLocked(); err != nil {
		s.errors.Add(1)
		return nil, false
	}
	e, ok := s.index[id]
	if !ok {
		return nil, false
	}
	blob := make([]byte, e.n)
	if _, err := s.log.ReadAt(blob, e.off+recHeader); err != nil {
		s.errors.Add(1)
		s.dropLocked(id, e)
		return nil, false
	}
	s.clock++
	e.used = s.clock
	s.index[id] = e
	return blob, true
}

// Put appends blob's record under key, then evicts least-recently-used
// entries (never this one) if the store passed its bound, and compacts
// the log if it is due.
func (s *DiskStore) Put(key string, blob []byte) error {
	id, ok := parseKey(key)
	if !ok {
		return fmt.Errorf("tier: invalid key %q", key)
	}
	if len(blob) == 0 || uint64(len(blob)) > math.MaxUint32 {
		return fmt.Errorf("tier: cannot store a blob of %d bytes", len(blob))
	}
	rec := appendRecord(make([]byte, 0, recFramed+len(blob)), key, blob)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.syncLocked(); err != nil {
		s.errors.Add(1)
		return err
	}
	off, err := s.appendLocked(rec)
	if err != nil {
		s.errors.Add(1)
		return err
	}
	s.puts.Add(1)
	s.applyLocked(id, off, uint32(len(blob)))
	s.evictLocked(&id)
	s.compactLocked()
	return nil
}

// Delete drops the entry under key (a no-op if absent) and appends its
// tombstone, so it stays gone across restarts. Callers use it to drop
// entries whose blobs failed to decode.
func (s *DiskStore) Delete(key string) {
	id, ok := parseKey(key)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.syncLocked(); err != nil {
		s.errors.Add(1)
		return
	}
	e, ok := s.index[id]
	if !ok {
		return
	}
	s.dropLocked(id, e)
	if _, err := s.appendLocked(appendRecord(nil, key, nil)); err != nil {
		s.errors.Add(1)
		return
	}
	s.compactLocked()
}

// Len returns the number of resident entries.
func (s *DiskStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Bytes returns the resident entries' blob bytes.
func (s *DiskStore) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// MaxBytes returns the store's byte bound.
func (s *DiskStore) MaxBytes() int64 { return s.maxBytes }

func (s *DiskStore) logPath() string { return filepath.Join(s.dir, logName) }

// openLogLocked (re)opens the log and indexes it from the start,
// forgetting what the store indexed before, and reports whether it
// ends in a torn record. The tail stays where it is: OpenDiskStore
// truncates it, and a store that reopens a log another store is
// writing must not.
func (s *DiskStore) openLogLocked() (torn bool, err error) {
	if s.log != nil {
		s.log.Close() //nolint:errcheck // read-only use from here on
		s.log = nil
	}
	s.index = make(map[binKey]logEntry)
	s.scanned, s.end, s.live, s.bytes = 0, 0, 0, 0
	f, err := os.OpenFile(s.logPath(), os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return false, fmt.Errorf("tier: %w", err)
	}
	s.log, s.fd = f, int(f.Fd())
	var st syscall.Stat_t
	if err := syscall.Fstat(s.fd, &st); err != nil {
		return false, fmt.Errorf("tier: %w", err)
	}
	return s.scanLocked(st.Size), nil
}

// syncLocked brings the index up to the log as it lies on disk, at
// the cost of one fstat when nothing changed: a log another store
// appended to is indexed up to its new end, and a log that its path no
// longer names, or that shrank, is reopened and reindexed.
func (s *DiskStore) syncLocked() error {
	var st syscall.Stat_t
	if s.log != nil {
		if err := syscall.Fstat(s.fd, &st); err != nil {
			return fmt.Errorf("tier: %w", err)
		}
	}
	switch {
	case s.log == nil || st.Nlink == 0 || st.Size < s.scanned:
		_, err := s.openLogLocked()
		return err
	case st.Size > s.scanned:
		s.scanLocked(st.Size)
	}
	return nil
}

// scanLocked indexes the records between s.scanned and size through a
// small buffer. It stops at a record that runs past size, a torn tail
// or a record another store is still writing, and reports whether it
// did. A record whose CRC fails or whose key is not hex is skipped and
// counted.
func (s *DiskStore) scanLocked(size int64) (torn bool) {
	s.end = max(s.end, size)
	r := bufio.NewReaderSize(io.NewSectionReader(s.log, s.scanned, size-s.scanned), 32<<10)
	var hdr [recHeader]byte
	var sum [4]byte
	for off := s.scanned; off < size; off = s.scanned {
		if size-off < recFramed {
			return true
		}
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			s.errors.Add(1)
			return false
		}
		n := binary.LittleEndian.Uint32(hdr[keyLen:])
		if size-off < recFramed+int64(n) {
			return true
		}
		crc := crc32.Update(0, castagnoli, hdr[:])
		for left := int(n); left > 0; {
			chunk, err := r.Peek(min(left, r.Size()))
			if err != nil {
				s.errors.Add(1)
				return false
			}
			crc = crc32.Update(crc, castagnoli, chunk)
			r.Discard(len(chunk)) //nolint:errcheck // Peek buffered them
			left -= len(chunk)
		}
		if _, err := io.ReadFull(r, sum[:]); err != nil {
			s.errors.Add(1)
			return false
		}
		if id, ok := parseKey(hdr[:keyLen]); ok && crc == binary.LittleEndian.Uint32(sum[:]) {
			s.applyLocked(id, off, n)
		} else {
			s.errors.Add(1)
		}
		s.scanned = off + recFramed + int64(n)
	}
	return false
}

// appendLocked writes rec at the end of the log, which syncLocked has
// just seen open, in one write and returns its offset.
func (s *DiskStore) appendLocked(rec []byte) (int64, error) {
	if _, err := s.log.Write(rec); err != nil {
		return 0, fmt.Errorf("tier: %w", err)
	}
	end, err := s.log.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, fmt.Errorf("tier: %w", err)
	}
	off := end - int64(len(rec))
	if off == s.scanned {
		s.scanned = end
	}
	s.end = max(s.end, end)
	return off, nil
}

// applyLocked indexes the record of an n-byte blob at off: the later
// of two records for a key wins, and a tombstone drops the key.
func (s *DiskStore) applyLocked(id binKey, off int64, n uint32) {
	if old, ok := s.index[id]; ok {
		if old.off >= off {
			return
		}
		s.dropLocked(id, old)
	}
	if n == 0 {
		return
	}
	s.clock++
	s.index[id] = logEntry{off: off, n: n, used: s.clock}
	s.live += recFramed + int64(n)
	s.bytes += int64(n)
}

func (s *DiskStore) dropLocked(id binKey, e logEntry) {
	delete(s.index, id)
	s.live -= recFramed + int64(e.n)
	s.bytes -= int64(e.n)
}

// keyed is an index entry with its key, for the passes that order the
// index by recency.
type keyed struct {
	id binKey
	logEntry
}

// byRecency lists the index least recently used first. It and the
// legacy import sort with sort.Slice: slices.SortFunc's two
// instantiations add about 30 KB of text to every daemon, tier or not,
// and measured +0.1 MB of peak RSS on tier-less workloads.
func (s *DiskStore) byRecency() []keyed {
	all := make([]keyed, 0, len(s.index))
	for id, e := range s.index {
		all = append(all, keyed{id, e})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].used < all[j].used })
	return all
}

// evictLocked drops least-recently-used entries once the store's blobs
// pass its bound, down to 7/8 of it so that a stream of puts sorts the
// index only every so often. keep, the entry just written, is spared:
// even if it alone passes the bound, serving it beats thrashing.
func (s *DiskStore) evictLocked(keep *binKey) {
	if s.bytes <= s.maxBytes {
		return
	}
	low := s.maxBytes - s.maxBytes/8
	for _, e := range s.byRecency() {
		if s.bytes <= low {
			break
		}
		if keep != nil && e.id == *keep {
			continue
		}
		s.dropLocked(e.id, e.logEntry)
		s.evictions.Add(1)
	}
}

// compactLocked rewrites the log with only its live records once its
// dead ones outweigh them, least recently used first so that a restart
// reads the LRU order back. It copies each record as it lies, into a
// put-*.tmp renamed over the log. A failure leaves the old log in use.
func (s *DiskStore) compactLocked() {
	if s.log == nil || s.end-s.live <= s.live {
		return
	}
	all := s.byRecency()
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		s.errors.Add(1)
		return
	}
	w := bufio.NewWriterSize(tmp, 64<<10)
	offs := make([]int64, len(all))
	var buf []byte
	var off int64
	for i, e := range all {
		n := recFramed + int(e.n)
		buf = slices.Grow(buf[:0], n)[:n]
		if _, err = s.log.ReadAt(buf, e.off); err != nil {
			break
		}
		if _, err = w.Write(buf); err != nil {
			break
		}
		offs[i] = off
		off += int64(n)
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), s.logPath())
	}
	if err != nil {
		os.Remove(tmp.Name()) //nolint:errcheck
		s.errors.Add(1)
		return
	}
	s.log.Close() //nolint:errcheck // the old log is only read
	f, err := os.OpenFile(s.logPath(), os.O_RDWR|os.O_APPEND, 0)
	if err != nil {
		// The next operation reopens and reindexes the new log.
		s.log = nil
		s.errors.Add(1)
		return
	}
	s.log, s.fd = f, int(f.Fd())
	for i, e := range all {
		e.off = offs[i]
		s.index[e.id] = e.logEntry
	}
	s.scanned, s.end = off, off
}

// importLegacyLocked moves the <key>.tier files of the one-file-per-
// entry layout into the log, oldest modification first so that log
// order keeps their LRU order, removing each once its record is
// written.
func (s *DiskStore) importLegacyLocked(des []os.DirEntry) {
	type legacy struct {
		key string
		mod time.Time
	}
	var found []legacy
	for _, de := range des {
		key, ok := strings.CutSuffix(de.Name(), legacySuffix)
		if !ok || de.IsDir() || !validKey(key) {
			continue
		}
		fi, err := de.Info()
		if err != nil {
			continue
		}
		found = append(found, legacy{key, fi.ModTime()})
	}
	sort.Slice(found, func(i, j int) bool {
		return cmp.Or(found[i].mod.Compare(found[j].mod), strings.Compare(found[i].key, found[j].key)) < 0
	})
	for _, l := range found {
		path := filepath.Join(s.dir, l.key+legacySuffix)
		blob, err := os.ReadFile(path)
		if err != nil || uint64(len(blob)) > math.MaxUint32 {
			s.errors.Add(1)
			continue
		}
		if len(blob) > 0 {
			off, err := s.appendLocked(appendRecord(nil, l.key, blob))
			if err != nil {
				s.errors.Add(1)
				continue
			}
			id, _ := parseKey(l.key)
			s.applyLocked(id, off, uint32(len(blob)))
		}
		os.Remove(path) //nolint:errcheck // imported: a leftover re-imports as the same record
	}
}
