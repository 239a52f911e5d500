package tier

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// fileStoreReference is the disk store's body before the log, kept as
// the oracle TestDiskStoreMatchesReference and BenchmarkDiskStore hold
// the log to: content-addressed blobs as flat files under one
// directory. Writes are atomic (temp file + rename in the same
// directory), and reads touch the file's mtime, making modification
// time the LRU clock: when the store exceeds its byte bound, the
// oldest-mtime entries are evicted first.
type fileStoreReference struct {
	dir      string
	maxBytes int64

	mu    sync.Mutex
	bytes int64 // resident entry bytes, maintained incrementally

	puts, evictions, errors atomic.Uint64
}

// openFileStoreReference opens (creating if needed) a store under dir
// bounded to maxBytes of entry data (minimum one entry is always kept;
// maxBytes <= 0 selects 256 MiB). Entries already on disk are kept,
// evicting oldest-first if they exceed the bound.
func openFileStoreReference(dir string, maxBytes int64) (*fileStoreReference, error) {
	if dir == "" {
		return nil, fmt.Errorf("tier: empty disk store directory")
	}
	if maxBytes <= 0 {
		maxBytes = 256 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tier: %w", err)
	}
	s := &fileStoreReference{dir: dir, maxBytes: maxBytes}
	s.mu.Lock()
	defer s.mu.Unlock()
	// A leftover put-*.tmp is an interrupted write from a crashed
	// daemon. The rename is the commit point, so such a file was never
	// an entry — the warm-restart rescan deletes it and never decodes
	// it (entriesLocked already ignores anything without the entry
	// suffix).
	if des, err := os.ReadDir(dir); err == nil {
		for _, de := range des {
			name := de.Name()
			if !de.IsDir() && strings.HasPrefix(name, "put-") && strings.HasSuffix(name, ".tmp") {
				os.Remove(filepath.Join(dir, name)) //nolint:errcheck
			}
		}
	}
	for _, e := range s.entriesLocked() {
		s.bytes += e.size
	}
	s.evictLocked("")
	return s, nil
}

func (s *fileStoreReference) path(key string) string { return filepath.Join(s.dir, key+legacySuffix) }

// Get returns the blob stored under key. A read marks the entry
// recently used (best-effort mtime touch).
func (s *fileStoreReference) Get(key string) ([]byte, bool) {
	if !validKey(key) {
		return nil, false
	}
	blob, err := os.ReadFile(s.path(key))
	if err != nil {
		if !os.IsNotExist(err) {
			s.errors.Add(1)
		}
		return nil, false
	}
	now := time.Now()
	os.Chtimes(s.path(key), now, now) //nolint:errcheck // LRU hint only
	return blob, true
}

// Put stores blob under key atomically, then evicts oldest-mtime
// entries (never the one just written) until the store is back under
// its byte bound.
func (s *fileStoreReference) Put(key string, blob []byte) error {
	if !validKey(key) {
		return fmt.Errorf("tier: invalid key %q", key)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var replaced int64
	if fi, err := os.Stat(s.path(key)); err == nil {
		replaced = fi.Size()
	}
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		s.errors.Add(1)
		return fmt.Errorf("tier: %w", err)
	}
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(tmp.Name()) //nolint:errcheck
		s.errors.Add(1)
		return fmt.Errorf("tier: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name()) //nolint:errcheck
		s.errors.Add(1)
		return fmt.Errorf("tier: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name()) //nolint:errcheck
		s.errors.Add(1)
		return fmt.Errorf("tier: %w", err)
	}
	s.puts.Add(1)
	s.bytes += int64(len(blob)) - replaced
	s.evictLocked(key)
	return nil
}

// Delete removes the entry under key (a no-op if absent). Callers use
// it to drop entries whose blobs failed to decode.
func (s *fileStoreReference) Delete(key string) {
	if !validKey(key) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if fi, err := os.Stat(s.path(key)); err == nil {
		if os.Remove(s.path(key)) == nil {
			s.bytes -= fi.Size()
		}
	}
}

type referenceEntry struct {
	key   string
	size  int64
	mtime time.Time
}

// entriesLocked lists the resident entries. Called with s.mu held.
func (s *fileStoreReference) entriesLocked() []referenceEntry {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		s.errors.Add(1)
		return nil
	}
	var out []referenceEntry
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, legacySuffix) {
			continue
		}
		key := strings.TrimSuffix(name, legacySuffix)
		if !validKey(key) {
			continue
		}
		fi, err := de.Info()
		if err != nil {
			continue
		}
		out = append(out, referenceEntry{key: key, size: fi.Size(), mtime: fi.ModTime()})
	}
	return out
}

// evictLocked removes oldest-mtime entries until the store fits its
// bound, sparing keep (the entry just written: even if it alone
// exceeds the bound, serving it beats thrashing). Called with s.mu
// held.
func (s *fileStoreReference) evictLocked(keep string) {
	if s.bytes <= s.maxBytes {
		return
	}
	entries := s.entriesLocked()
	sort.Slice(entries, func(i, j int) bool { return entries[i].mtime.Before(entries[j].mtime) })
	// Recompute from the listing: incremental accounting can drift if
	// another process shares the directory.
	s.bytes = 0
	for _, e := range entries {
		s.bytes += e.size
	}
	for _, e := range entries {
		if s.bytes <= s.maxBytes {
			break
		}
		if e.key == keep {
			continue
		}
		if os.Remove(s.path(e.key)) == nil {
			s.bytes -= e.size
			s.evictions.Add(1)
		}
	}
}

// Len returns the number of resident entries.
func (s *fileStoreReference) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entriesLocked())
}

// Bytes returns the resident entry bytes as accounted.
func (s *fileStoreReference) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// MaxBytes returns the store's byte bound.
func (s *fileStoreReference) MaxBytes() int64 { return s.maxBytes }
