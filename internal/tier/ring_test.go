package tier

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

func peerSet(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://10.0.0.%d:8347", i+1)
	}
	return out
}

func TestRingDeterministicAndOrderIndependent(t *testing.T) {
	peers := peerSet(5)
	reversed := make([]string, len(peers))
	for i, p := range peers {
		reversed[len(peers)-1-i] = p
	}
	a := NewRing("", peers)
	b := NewRing("", append(reversed, peers...)) // duplicates too
	for i := 0; i < 500; i++ {
		key := Key(fmt.Sprint(i))
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("key %d: owner differs across peer-list orderings", i)
		}
	}
}

// TestRingDistribution checks rendezvous hashing spreads the keyspace:
// every peer owns a non-degenerate share.
func TestRingDistribution(t *testing.T) {
	const keys = 20000
	peers := peerSet(5)
	r := NewRing("", peers)
	counts := map[string]int{}
	for i := 0; i < keys; i++ {
		counts[r.Owner(Key(fmt.Sprint(i)))]++
	}
	want := keys / len(peers)
	for _, p := range peers {
		if c := counts[p]; c < want/2 || c > want*2 {
			t.Fatalf("peer %s owns %d of %d keys, want within [%d, %d]", p, c, keys, want/2, want*2)
		}
	}
}

// TestRingRebalanceProperty pins the minimal-disruption property:
// removing one peer moves only the keys that peer owned (≈ K/n), and
// no key moves between surviving peers.
func TestRingRebalanceProperty(t *testing.T) {
	const keys = 10000
	peers := peerSet(5)
	full := NewRing("", peers)
	removed := peers[2]
	reduced := NewRing("", append(append([]string{}, peers[:2]...), peers[3:]...))

	moved := 0
	for i := 0; i < keys; i++ {
		key := Key(fmt.Sprint(i))
		was, is := full.Owner(key), reduced.Owner(key)
		if was == removed {
			moved++
			continue
		}
		if was != is {
			t.Fatalf("key %d moved %s -> %s though its owner survived", i, was, is)
		}
	}
	// moved == keys owned by the removed peer; the distribution bound
	// keeps that within 2x of K/n.
	if bound := 2 * keys / len(peers); moved > bound {
		t.Fatalf("rebalance moved %d keys, want <= %d (≈K/n)", moved, bound)
	}
	if moved == 0 {
		t.Fatal("removed peer owned nothing: distribution is degenerate")
	}
}

// TestRingSpreadsLoopbackTriples: three members on one host, whose
// URLs differ only in the port, each own a fair share of 100 keys, on
// every one of 20000 seeded port draws: none owns fewer than 5 (the
// least-loaded owns 15). Scored by FNV-64a alone, 33 of these draws
// left one member fewer than 3 keys (the worst none), and a fleet test
// that needs every member to own one of its keys failed about 2 runs
// in 1000.
func TestRingSpreadsLoopbackTriples(t *testing.T) {
	keys := make([]string, 100)
	for i := range keys {
		keys[i] = Key(fmt.Sprint(i))
	}
	r := rand.New(rand.NewPCG(1, 2))
	worst := len(keys)
	for trial := 0; trial < 20000; trial++ {
		peers := make([]string, 3)
		for i := range peers {
			peers[i] = fmt.Sprintf("http://127.0.0.1:%d", 1024+r.IntN(65536-1024))
		}
		ring := NewRing("", peers)
		owned := map[string]int{}
		for _, k := range keys {
			owned[ring.Owner(k)]++
		}
		for _, p := range ring.Peers() {
			worst = min(worst, owned[p])
			if owned[p] < 5 {
				t.Fatalf("trial %d: %s owns %d of %d keys among %v, want at least 5", trial, p, owned[p], len(keys), ring.Peers())
			}
		}
	}
	t.Logf("the least-loaded member of any triple owns %d of %d keys", worst, len(keys))
}

// TestRingOwnerAllocatesNothing: Owner is on every tier lookup and
// store, so it scores without allocating.
func TestRingOwnerAllocatesNothing(t *testing.T) {
	r := NewRing("", peerSet(5))
	key := Key("x")
	if n := testing.AllocsPerRun(100, func() { r.Owner(key) }); n != 0 {
		t.Fatalf("Owner made %v allocations, want 0", n)
	}
}

func TestRingSelfShortCircuit(t *testing.T) {
	peers := peerSet(3)
	r := NewRing(peers[1]+"/", peers) // trailing slash canonicalized
	if r.Self() != peers[1] {
		t.Fatalf("Self = %q, want %q", r.Self(), peers[1])
	}
	sawSelf := false
	for i := 0; i < 200; i++ {
		key := Key(fmt.Sprint(i))
		if r.Owner(key) == r.Self() {
			sawSelf = true
		}
	}
	if !sawSelf {
		t.Fatal("self never owns a key")
	}
}

// TestRingRanked pins the failover order's contract: the owner leads,
// the order is a permutation of the peer set, and every member computes
// the identical order (it is a pure function of the key).
func TestRingRanked(t *testing.T) {
	peers := peerSet(5)
	r := NewRing("", peers)
	other := NewRing(peers[0], append([]string{}, peers...)) // different self, same set
	for i := 0; i < 300; i++ {
		key := Key(fmt.Sprint(i))
		ranked := r.Ranked(key)
		if len(ranked) != len(peers) {
			t.Fatalf("Ranked returned %d peers, want %d", len(ranked), len(peers))
		}
		if ranked[0] != r.Owner(key) {
			t.Fatalf("key %d: Ranked[0] = %s, Owner = %s", i, ranked[0], r.Owner(key))
		}
		seen := map[string]bool{}
		for _, p := range ranked {
			if seen[p] {
				t.Fatalf("key %d: peer %s ranked twice", i, p)
			}
			seen[p] = true
		}
		for j, p := range other.Ranked(key) {
			if ranked[j] != p {
				t.Fatalf("key %d: rank %d differs across members", i, j)
			}
		}
	}
	if got := NewRing("", nil).Ranked(Key("x")); len(got) != 0 {
		t.Fatalf("empty ring Ranked = %v", got)
	}
}

func TestEmptyRing(t *testing.T) {
	r := NewRing("", nil)
	if r.Owner(Key("x")) != "" {
		t.Fatal("empty ring produced an owner")
	}
}

func TestKeyShape(t *testing.T) {
	a, b := Key("sig", "name", "8"), Key("sig", "name8", "")
	if a == b {
		t.Fatal("length-prefixing failed: distinct part lists collide")
	}
	if !validKey(a) || len(a) != keyLen {
		t.Fatalf("Key produced non-canonical key %q", a)
	}
}
