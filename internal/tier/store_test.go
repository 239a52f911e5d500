package tier

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// k returns a distinct valid tier key per index.
func k(i byte) string { return Key(string([]byte{i})) }

// openStore opens a store under dir or fails the test.
func openStore(t testing.TB, dir string, maxBytes int64) *DiskStore {
	t.Helper()
	s, err := OpenDiskStore(dir, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// rotBlob flips the middle byte of key's blob where it lies in s's log,
// as bit rot would, and returns the blob as it now reads.
func rotBlob(t *testing.T, s *DiskStore, key string) []byte {
	t.Helper()
	id, _ := parseKey(key)
	s.mu.Lock()
	e, ok := s.index[id]
	s.mu.Unlock()
	if !ok {
		t.Fatalf("%s is not in the log", key)
	}
	f, err := os.OpenFile(s.logPath(), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	blob := make([]byte, e.n)
	if _, err := f.ReadAt(blob, e.off+recHeader); err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0xFF
	if _, err := f.WriteAt(blob[len(blob)/2:len(blob)/2+1], e.off+recHeader+int64(len(blob)/2)); err != nil {
		t.Fatal(err)
	}
	return blob
}

// logSize is the length of the store's log on disk.
func logSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

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

// TestDiskStoreEvictsLeastRecentlyUsed: past its bound the store drops
// the entry whose last Get or Put is oldest, never the one just written.
func TestDiskStoreEvictsLeastRecentlyUsed(t *testing.T) {
	s := openStore(t, t.TempDir(), 250)
	// Three 100-byte entries: the third Put must evict the coldest, and
	// a Get of 1 after 2's Put makes 2 the coldest.
	for i := byte(1); i <= 3; i++ {
		if err := s.Put(k(i), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			if _, ok := s.Get(k(1)); !ok {
				t.Fatal("entry 1 missing before the bound was reached")
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
	// Log order is the reopened store's recency: 1 is the oldest.
	for i := byte(1); i <= 4; i++ {
		if err := s.Put(k(i), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
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
// put-*.tmp left by a daemon killed mid-compaction (before the rename
// commit point) is never surfaced as an entry and is removed by the
// warm-restart rescan.
func TestDiskStoreCleansCrashedPutTemp(t *testing.T) {
	dir := t.TempDir()
	if err := openStore(t, dir, 1<<20).Put(k(1), []byte("committed")); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "put-1234567.tmp")
	torn := appendRecord(nil, k(2), []byte("torn half-written blob"))
	if err := os.WriteFile(tmp, torn[:len(torn)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	s := openStore(t, dir, 1<<20)
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
// entry. A byte flipped in a resident blob inside the log is real bit
// rot: the store serves it as it lies on disk, and the envelope
// refuses it.
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
		rotted := rotBlob(t, s, k(1))
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

// TestDiskStorePutsCreateNoFile: after open, puts of distinct keys
// leave the directory's listing as it was; only the log grows, by one
// record a put.
func TestDiskStorePutsCreateNoFile(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 1<<20)
	listing := func() []string {
		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, de := range des {
			names = append(names, de.Name())
		}
		return names
	}
	want := listing()
	const n = 64
	blob := smallBlob()
	for i := range n {
		if err := s.Put(k(byte(i)), blob); err != nil {
			t.Fatal(err)
		}
	}
	if got := listing(); !slices.Equal(got, want) {
		t.Fatalf("listing after %d puts = %v, want %v", n, got, want)
	}
	if got, want := logSize(t, dir), int64(n*(recFramed+len(blob))); got != want {
		t.Fatalf("log of %d bytes after %d puts, want %d", got, n, want)
	}
}

// TestDiskStoreDeleteSurvivesReopen: a deleted entry's tombstone keeps
// it gone from a reopened store, and a later put of the key revives it.
func TestDiskStoreDeleteSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 1<<20)
	for i := byte(1); i <= 3; i++ {
		if err := s.Put(k(i), []byte{i}); err != nil {
			t.Fatal(err)
		}
	}
	s.Delete(k(2))
	s2 := openStore(t, dir, 1<<20)
	if _, ok := s2.Get(k(2)); ok {
		t.Fatal("deleted entry came back on reopen")
	}
	if s2.Len() != 2 || s2.Bytes() != 2 {
		t.Fatalf("occupancy = (%d, %d), want (2, 2)", s2.Len(), s2.Bytes())
	}
	if err := s2.Put(k(2), []byte("back")); err != nil {
		t.Fatal(err)
	}
	if got, ok := openStore(t, dir, 1<<20).Get(k(2)); !ok || string(got) != "back" {
		t.Fatalf("re-put entry after reopen = (%q, %v)", got, ok)
	}
}

// TestDiskStoreReopenSkipsRotAndTruncatesTornTail: on open, a record
// whose CRC fails costs that record only, and a record that runs past
// the end (a write a crash cut short) is truncated away, so the next
// put lands on a record boundary.
func TestDiskStoreReopenSkipsRotAndTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 1<<20)
	for i := byte(1); i <= 3; i++ {
		if err := s.Put(k(i), bytes.Repeat([]byte{i}, 50)); err != nil {
			t.Fatal(err)
		}
	}
	rotBlob(t, s, k(2))
	whole := logSize(t, dir)
	torn := appendRecord(nil, k(4), []byte("cut short"))
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openStore(t, dir, 1<<20)
	if got := logSize(t, dir); got != whole {
		t.Fatalf("log of %d bytes after open, want the torn tail cut back to %d", got, whole)
	}
	if s2.errors.Load() != 1 {
		t.Fatalf("errors = %d, want the one rotted record counted", s2.errors.Load())
	}
	for i, want := range []bool{1: true, 2: false, 3: true, 4: false} {
		if i == 0 {
			continue
		}
		if _, ok := s2.Get(k(byte(i))); ok != want {
			t.Errorf("entry %d served = %v, want %v", i, ok, want)
		}
	}
	if err := s2.Put(k(5), []byte("after the cut")); err != nil {
		t.Fatal(err)
	}
	if got, ok := openStore(t, dir, 1<<20).Get(k(5)); !ok || string(got) != "after the cut" {
		t.Fatalf("put after the truncation reads back (%q, %v)", got, ok)
	}
}

// TestDiskStoreImportsLegacyEntries: <key>.tier files of the one-file-
// per-entry layout are moved into the log on open, oldest modification
// first, and removed; foreign files stay.
func TestDiskStoreImportsLegacyEntries(t *testing.T) {
	dir := t.TempDir()
	for i := byte(1); i <= 3; i++ {
		path := filepath.Join(dir, k(i)+legacySuffix)
		if err := os.WriteFile(path, []byte{i, i}, 0o644); err != nil {
			t.Fatal(err)
		}
		// 1 is the most recently used, 2 the least.
		stamp := time.Now().Add(time.Duration((int(i)+1)%3) * time.Second)
		if err := os.Chtimes(path, stamp, stamp); err != nil {
			t.Fatal(err)
		}
	}
	foreign := filepath.Join(dir, "README.md")
	if err := os.WriteFile(foreign, []byte("not a tier entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openStore(t, dir, 5)
	if got, _ := filepath.Glob(filepath.Join(dir, "*"+legacySuffix)); len(got) != 0 {
		t.Fatalf("legacy entries left after import: %v", got)
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatal("a foreign file did not survive open")
	}
	// The bound holds two of the three: the least recently used goes.
	if s.Len() != 2 || s.Bytes() != 4 {
		t.Fatalf("occupancy = (%d, %d), want (2, 4)", s.Len(), s.Bytes())
	}
	for i, want := range []bool{1: true, 2: false, 3: true} {
		if i == 0 {
			continue
		}
		if got, ok := s.Get(k(byte(i))); ok != want || ok && !bytes.Equal(got, []byte{byte(i), byte(i)}) {
			t.Errorf("imported entry %d = (%v, %v), want served %v", i, got, ok, want)
		}
	}
}

// TestDiskStoreCompactsDeadRecords: once overwritten records outweigh
// live ones, the log is rewritten with the live records alone, and the
// store and a reopened one serve every entry.
func TestDiskStoreCompactsDeadRecords(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 1<<20)
	for i := byte(1); i <= 4; i++ {
		if err := s.Put(k(i), bytes.Repeat([]byte{i}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	live := logSize(t, dir)
	// The fifth overwrite of 1 makes the dead records outweigh the live.
	for j := byte(1); j <= 5; j++ {
		if err := s.Put(k(1), bytes.Repeat([]byte{j}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if got := logSize(t, dir); got != live {
		t.Fatalf("log of %d bytes after the overwrites, want it compacted to %d", got, live)
	}
	for _, st := range []*DiskStore{s, openStore(t, dir, 1<<20)} {
		for i := byte(1); i <= 4; i++ {
			want := bytes.Repeat([]byte{i}, 100)
			if i == 1 {
				want = bytes.Repeat([]byte{5}, 100)
			}
			if got, ok := st.Get(k(i)); !ok || !bytes.Equal(got, want) {
				t.Fatalf("entry %d after compaction = (%v, %v)", i, got, ok)
			}
		}
	}
}

// TestDiskStoreSharedDirectory: two stores over one directory, as a
// daemon and its restarted twin: the twin, opened first, serves the
// other's later puts and deletes, and still does after the other
// compacts the log under it; the other serves the twin's puts.
func TestDiskStoreSharedDirectory(t *testing.T) {
	dir := t.TempDir()
	twin := openStore(t, dir, 1<<20)
	s := openStore(t, dir, 1<<20)
	serves := func(st *DiskStore, key string, want []byte) {
		t.Helper()
		got, ok := st.Get(key)
		if want == nil && ok {
			t.Fatalf("%s served, want it gone", key)
		}
		if want != nil && (!ok || !bytes.Equal(got, want)) {
			t.Fatalf("Get(%s) = (%q, %v), want %q", key, got, ok, want)
		}
	}
	for i := byte(1); i <= 3; i++ {
		if err := s.Put(k(i), []byte{'s', i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := twin.Put(k(4), []byte("twin")); err != nil {
		t.Fatal(err)
	}
	serves(twin, k(1), []byte{'s', 1})
	serves(s, k(4), []byte("twin"))
	s.Delete(k(2))
	serves(twin, k(2), nil)

	before, err := os.Stat(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; ; j++ {
		if j == 100 {
			t.Fatal("overwrites never compacted the log")
		}
		if err := s.Put(k(3), []byte(fmt.Sprint("s3-", j))); err != nil {
			t.Fatal(err)
		}
		after, err := os.Stat(filepath.Join(dir, logName))
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(before, after) {
			serves(twin, k(3), []byte(fmt.Sprint("s3-", j)))
			break
		}
	}
	if err := s.Put(k(5), []byte("after compaction")); err != nil {
		t.Fatal(err)
	}
	serves(twin, k(1), []byte{'s', 1})
	serves(twin, k(2), nil)
	serves(twin, k(4), []byte("twin"))
	serves(twin, k(5), []byte("after compaction"))
	if err := twin.Put(k(6), []byte("twin again")); err != nil {
		t.Fatal(err)
	}
	serves(s, k(6), []byte("twin again"))
	if s.Len() != twin.Len() || s.Bytes() != twin.Bytes() {
		t.Fatalf("occupancy differs: (%d, %d) and the twin's (%d, %d)", s.Len(), s.Bytes(), twin.Len(), twin.Bytes())
	}
}

// TestDiskStoreConcurrentUse drives one store from several goroutines
// at once (run it under -race): every blob read back is one some
// goroutine wrote under that key.
func TestDiskStoreConcurrentUse(t *testing.T) {
	s := openStore(t, t.TempDir(), 1<<10)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 7))
			for range 300 {
				i := byte(rng.IntN(16))
				switch rng.IntN(4) {
				case 0:
					s.Delete(k(i))
				case 1:
					if blob, ok := s.Get(k(i)); ok && (len(blob) == 0 || blob[0] != i) {
						t.Errorf("entry %d holds %v", i, blob)
					}
				default:
					if err := s.Put(k(i), bytes.Repeat([]byte{i}, 1+rng.IntN(200))); err != nil {
						t.Error(err)
					}
				}
				_ = s.Len()
			}
		}()
	}
	wg.Wait()
	if s.Bytes() > 1<<10 {
		t.Fatalf("store over its bound: %d bytes", s.Bytes())
	}
}

// TestDiskStoreMatchesReference drives the log and the file-per-entry
// body it replaced (store_reference_test.go) with one seeded random
// sequence of puts, overwrites, gets, deletes and reopens below the
// bound, and requires the same answers, Len and Bytes after each step.
func TestDiskStoreMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed ", seed), func(t *testing.T) {
			logDir, refDir := t.TempDir(), t.TempDir()
			s := openStore(t, logDir, 1<<20)
			ref, err := openFileStoreReference(refDir, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(seed, 11))
			for step := range 400 {
				key := k(byte(rng.IntN(24)))
				op := rng.IntN(10)
				switch {
				case op < 4:
					blob := make([]byte, 1+rng.IntN(300))
					for i := range blob {
						blob[i] = byte(rng.Uint32())
					}
					if err, rerr := s.Put(key, blob), ref.Put(key, blob); (err == nil) != (rerr == nil) {
						t.Fatalf("step %d: Put = %v, reference %v", step, err, rerr)
					}
				case op < 8:
					got, ok := s.Get(key)
					want, rok := ref.Get(key)
					if ok != rok || !bytes.Equal(got, want) {
						t.Fatalf("step %d: Get = (%x, %v), reference (%x, %v)", step, got, ok, want, rok)
					}
				case op < 9:
					s.Delete(key)
					ref.Delete(key)
				default:
					s = openStore(t, logDir, 1<<20)
					if ref, err = openFileStoreReference(refDir, 1<<20); err != nil {
						t.Fatal(err)
					}
				}
				if s.Len() != ref.Len() || s.Bytes() != ref.Bytes() {
					t.Fatalf("step %d: occupancy (%d, %d), reference (%d, %d)", step, s.Len(), s.Bytes(), ref.Len(), ref.Bytes())
				}
			}
			if s.errors.Load() != 0 || ref.errors.Load() != 0 {
				t.Fatalf("errors = %d, reference %d", s.errors.Load(), ref.errors.Load())
			}
		})
	}
}

// FuzzDiskStoreOpen: arbitrary bytes as the log, as bit rot or another
// process could leave them. Open never panics and never fails on
// content, leaves the file a prefix of what was there, and every key
// it serves maps to a complete, CRC-valid record of its blob.
func FuzzDiskStoreOpen(f *testing.F) {
	var log []byte
	for i := byte(1); i <= 3; i++ {
		log = appendRecord(log, k(i), bytes.Repeat([]byte{i}, int(i)*7))
	}
	log = appendRecord(log, k(1), []byte("overwritten"))
	log = appendRecord(log, k(2), nil)
	f.Add([]byte{})
	f.Add(log)
	f.Add(log[:len(log)-5])
	rotted := bytes.Clone(log)
	rotted[recHeader+3] ^= 0xFF
	f.Add(rotted)
	f.Add(bytes.Repeat([]byte{'a'}, 2*recFramed))
	// One directory serves a worker's inputs in turn, so an input
	// costs no directory create and remove.
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, log []byte) {
		path := filepath.Join(dir, logName)
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenDiskStore(dir, 1<<40)
		if err != nil {
			t.Fatalf("open failed on content: %v", err)
		}
		defer s.log.Close()
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(log, after) {
			t.Fatalf("open left %d bytes that are no prefix of the %d it found", len(after), len(log))
		}
		var keys []string
		for id := range s.index {
			keys = append(keys, hex.EncodeToString(id[:]))
		}
		var total int64
		for _, key := range keys {
			blob, ok := s.Get(key)
			if !ok {
				t.Fatalf("indexed key %s not served", key)
			}
			if !bytes.Contains(after, appendRecord(nil, key, blob)) {
				t.Fatalf("%s serves %x, which no CRC-valid record of the log holds", key, blob)
			}
			total += int64(len(blob))
		}
		if s.Len() != len(keys) || s.Bytes() != total {
			t.Fatalf("occupancy (%d, %d), want (%d, %d)", s.Len(), s.Bytes(), len(keys), total)
		}
	})
}
