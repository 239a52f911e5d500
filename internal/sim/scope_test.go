package sim_test

import (
	"bytes"
	"context"
	"testing"

	"samr/internal/apps"
	"samr/internal/experiments"
	"samr/internal/partition"
	"samr/internal/sim"
	"samr/internal/trace"
)

// chainMisses reads partition.CacheStats' build count and the process
// store's entries.
func chainMisses() (misses uint64, entries int) {
	_, misses, _, entries, _ = partition.CacheStats()
	return
}

// runAll runs experiments.Run's "all" over the quick traces from a cold
// step cache and returns its bytes, the chain artifacts it built, and
// the entries it left in the process store.
func runAll(t *testing.T, ctx context.Context) ([]byte, uint64, int) {
	t.Helper()
	sim.FlushStepCaches()
	m0, e0 := chainMisses()
	var out bytes.Buffer
	if err := experiments.Run(ctx, "all", func(app string) (*trace.Trace, error) {
		return apps.QuickTrace(ctx, app)
	}, experiments.DefaultProcs, false, &out); err != nil {
		t.Fatal(err)
	}
	m1, e1 := chainMisses()
	return out.Bytes(), m1 - m0, e1 - e0
}

// TestRunAllRetainsNoChains is the retention gate of the unit-chain
// scopes: "all" at quick scale, from a cold step cache, builds chains
// and leaves none in the process store (each simulator run owns and
// drops its store), and its bytes equal a run under a scope its caller
// opened, which every run then shares.
func TestRunAllRetainsNoChains(t *testing.T) {
	bg := context.Background()
	got, built, kept := runAll(t, bg)
	if built == 0 || kept != 0 {
		t.Fatalf("all built %d chain artifacts and left %d in the process store, want some and none", built, kept)
	}
	scoped, _, kept := runAll(t, partition.WithChainScope(bg))
	if kept != 0 {
		t.Fatalf("all under a caller's scope left %d entries in the process store", kept)
	}
	if !bytes.Equal(got, scoped) {
		t.Fatal("all under a caller's scope printed other bytes")
	}
}

// TestProcsSweepBuildsChainsOnce: ProcsSweep opens one scope around its
// ladder, so from a cold step cache the whole ladder builds exactly the
// chain artifacts one rung builds: none again per processor count, and
// none served from an earlier sweep's store.
func TestProcsSweepBuildsChainsOnce(t *testing.T) {
	bg := context.Background()
	tr, err := apps.QuickTrace(bg, "BL2D")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []partition.Partitioner{partition.NewNatureFable(), partition.NewDomainSFC()} {
		misses := func(ladder []int) uint64 {
			sim.FlushStepCaches()
			m0, _ := chainMisses()
			if _, err := experiments.ProcsSweep(bg, tr, p, ladder); err != nil {
				t.Fatal(err)
			}
			m1, _ := chainMisses()
			return m1 - m0
		}
		rung := misses([]int{16})
		ladder := misses(experiments.DefaultProcsLadder)
		if rung == 0 || ladder != rung {
			t.Errorf("%s: the %d-rung ladder built %d chain artifacts, one rung %d", p.Name(), len(experiments.DefaultProcsLadder), ladder, rung)
		}
	}
}
