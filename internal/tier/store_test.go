package tier

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// k returns a distinct valid tier key per index.
func k(i byte) string { return Key(string([]byte{i})) }

func TestDiskStorePutGetDelete(t *testing.T) {
	s, err := OpenDiskStore(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte("hello tier")
	if err := s.Put(k(1), blob); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k(1))
	if !ok || !bytes.Equal(got, blob) {
		t.Fatalf("Get = (%q, %v), want the stored blob", got, ok)
	}
	if _, ok := s.Get(k(2)); ok {
		t.Fatal("absent key reported present")
	}
	if s.Len() != 1 || s.Bytes() != int64(len(blob)) {
		t.Fatalf("occupancy = (%d, %d), want (1, %d)", s.Len(), s.Bytes(), len(blob))
	}
	s.Delete(k(1))
	if _, ok := s.Get(k(1)); ok {
		t.Fatal("deleted key reported present")
	}
	if s.Bytes() != 0 {
		t.Fatalf("bytes = %d after delete, want 0", s.Bytes())
	}
}

func TestDiskStoreRejectsBadKeys(t *testing.T) {
	s, err := OpenDiskStore(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "short", "../../../../etc/passwd", strings.Repeat("Z", keyLen), strings.Repeat("a", keyLen-1)} {
		if err := s.Put(bad, []byte("x")); err == nil {
			t.Fatalf("Put accepted invalid key %q", bad)
		}
		if _, ok := s.Get(bad); ok {
			t.Fatalf("Get answered invalid key %q", bad)
		}
	}
}

func TestDiskStoreReplaceAccountsBytes(t *testing.T) {
	s, err := OpenDiskStore(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k(1), make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k(1), make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	if s.Bytes() != 40 || s.Len() != 1 {
		t.Fatalf("occupancy = (%d, %d bytes), want (1, 40)", s.Len(), s.Bytes())
	}
}

func TestDiskStoreEvictsOldestMtime(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir, 250)
	if err != nil {
		t.Fatal(err)
	}
	// Three 100-byte entries: the third Put must evict the coldest.
	for i := byte(1); i <= 3; i++ {
		if err := s.Put(k(i), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
		// The mtime clock needs distinct stamps; coarse filesystems get
		// explicit ones.
		stamp := time.Now().Add(time.Duration(i) * time.Second)
		if err := os.Chtimes(filepath.Join(dir, k(i)+suffix), stamp, stamp); err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			// Touch 1 hotter than 2 so eviction order is 2 then 1.
			hot := time.Now().Add(10 * time.Second)
			if err := os.Chtimes(filepath.Join(dir, k(1)+suffix), hot, hot); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, ok := s.Get(k(2)); ok {
		t.Fatal("coldest entry survived eviction")
	}
	if _, ok := s.Get(k(1)); !ok {
		t.Fatal("hot entry was evicted")
	}
	if _, ok := s.Get(k(3)); !ok {
		t.Fatal("just-written entry was evicted")
	}
	if s.Bytes() > 250 {
		t.Fatalf("store over bound after eviction: %d bytes", s.Bytes())
	}
	if got := s.evictions.Load(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
}

func TestDiskStoreKeepsJustWrittenOversizedEntry(t *testing.T) {
	s, err := OpenDiskStore(t.TempDir(), 50)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k(1), make([]byte, 200)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k(1)); !ok {
		t.Fatal("oversized single entry was evicted instead of kept")
	}
}

func TestDiskStoreReopenKeepsEntries(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k(1), []byte("survives restarts")); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenDiskStore(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get(k(1)); !ok || string(got) != "survives restarts" {
		t.Fatalf("reopened store lost the entry: (%q, %v)", got, ok)
	}
	if s2.Bytes() != int64(len("survives restarts")) {
		t.Fatalf("reopened accounting = %d bytes", s2.Bytes())
	}
}

func TestDiskStoreReopenEnforcesBound(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i := byte(1); i <= 4; i++ {
		if err := s.Put(k(i), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
		stamp := time.Now().Add(time.Duration(i) * time.Second)
		os.Chtimes(filepath.Join(dir, k(i)+suffix), stamp, stamp) //nolint:errcheck
	}
	s2, err := OpenDiskStore(dir, 250)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Len(); got != 2 {
		t.Fatalf("reopened store holds %d entries, want 2 after bound enforcement", got)
	}
	if _, ok := s2.Get(k(4)); !ok {
		t.Fatal("newest entry evicted on reopen")
	}
}

// TestDiskStoreCleansCrashedPutTemp pins the crash-window contract: a
// put-*.tmp left by a daemon killed mid-Put (before the rename commit
// point) is never surfaced as an entry and is removed by the
// warm-restart rescan.
func TestDiskStoreCleansCrashedPutTemp(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, "put-1234567.tmp")
	if err := os.WriteFile(tmp, []byte("torn half-written blob"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, k(1)+suffix), []byte("committed"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenDiskStore(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("crashed put temp file survived the warm-restart rescan")
	}
	if s.Len() != 1 || s.Bytes() != int64(len("committed")) {
		t.Fatalf("occupancy = (%d, %d), want only the committed entry", s.Len(), s.Bytes())
	}
	if _, ok := s.Get(k(1)); !ok {
		t.Fatalf("committed entry %s is not served", k(1))
	}
}

// TestDiskStoreInjectedFaults breaks the store from outside, through
// the directory and the bytes it owns. A tier directory replaced by a
// regular file, which is how a failed or full disk looks here, fails
// every write and read: each failure is counted, never a hit, never an
// entry. A byte flipped in a resident file is real bit rot: the store
// serves it as it lies on disk, and the envelope refuses it.
func TestDiskStoreInjectedFaults(t *testing.T) {
	blob := smallBlob()
	open := func(t *testing.T, dir string) *DiskStore {
		t.Helper()
		s, err := OpenDiskStore(dir, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	lose := func(t *testing.T, dir string) {
		t.Helper()
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("put on a lost directory", func(t *testing.T) {
		dir := t.TempDir()
		s := open(t, dir)
		lose(t, dir)
		if err := s.Put(k(1), blob); err == nil {
			t.Fatal("Put into a lost directory succeeded")
		}
		if s.errors.Load() == 0 || s.Len() != 0 {
			t.Fatal("failed put went uncounted or landed an entry")
		}
	})

	t.Run("get on a lost directory", func(t *testing.T) {
		dir := t.TempDir()
		s := open(t, dir)
		if err := s.Put(k(1), blob); err != nil {
			t.Fatal(err)
		}
		lose(t, dir)
		if _, ok := s.Get(k(1)); ok {
			t.Fatal("a read from a lost directory reported a hit")
		}
		if s.errors.Load() == 0 {
			t.Fatal("failed read went uncounted")
		}
	})

	t.Run("get corrupt", func(t *testing.T) {
		dir := t.TempDir()
		s := open(t, dir)
		if err := s.Put(k(1), blob); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, k(1)+suffix)
		rotted := bytes.Clone(blob)
		rotted[len(rotted)/2] ^= 0xFF
		if err := os.WriteFile(path, rotted, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get(k(1))
		if !ok || !bytes.Equal(got, rotted) {
			t.Fatalf("Get of a rotted entry = (%x, %v), want its bytes as they lie on disk", got, ok)
		}
		if _, _, err := Open(got); err == nil {
			t.Fatal("the envelope accepted a rotted blob")
		}
	})
}

func TestDiskStoreIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README.md"), []byte("not a tier entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenDiskStore(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Fatalf("foreign file counted: (%d, %d)", s.Len(), s.Bytes())
	}
}
