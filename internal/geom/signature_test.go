package geom

import (
	"crypto/sha256"
	"math/rand"
	"testing"
)

// sigOf hashes a list's canonical encoding the way grid.Hierarchy
// hashes its levels.
func sigOf(bl BoxList) Signature { return sha256.Sum256(bl.AppendEncoding(nil)) }

func TestSignatureDeterministicAndCloneStable(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		bl := randomBoxList(r, 1+r.Intn(40))
		sig := sigOf(bl)
		if sig != sigOf(bl) {
			t.Fatal("signature not deterministic")
		}
		if got := sigOf(bl.Clone()); got != sig {
			t.Fatalf("clone signature %s != original %s", got, sig)
		}
	}
}

func TestSignatureSensitivity(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	for trial := 0; trial < 50; trial++ {
		bl := randomBoxList(r, 2+r.Intn(40))
		sig := sigOf(bl)

		// Mutating any coordinate of any box changes the hash.
		mut := bl.Clone()
		i := r.Intn(len(mut))
		if r.Intn(2) == 0 {
			mut[i].Lo[r.Intn(2)]--
		} else {
			mut[i].Hi[r.Intn(2)]++
		}
		if sigOf(mut) == sig {
			t.Fatalf("coordinate mutation of box %d kept signature %s", i, sig)
		}

		// Dropping or appending a box changes the hash.
		if sigOf(bl[:len(bl)-1]) == sig {
			t.Fatal("truncated list kept signature")
		}
		if sigOf(append(bl.Clone(), randomBox(r))) == sig {
			t.Fatal("extended list kept signature")
		}
	}
}

func TestSignatureOrderAndDimMatter(t *testing.T) {
	a, b := NewBox2(0, 0, 4, 4), NewBox2(8, 8, 12, 12)
	if sigOf(BoxList{a, b}) == sigOf(BoxList{b, a}) {
		t.Error("box order should change the signature")
	}
	// Dim is part of the encoding: the same corners under another Dim
	// are structurally distinct.
	twin := NewBox2(0, 0, 4, 4)
	twin.Dim = 3
	if sigOf(BoxList{NewBox2(0, 0, 4, 4)}) == sigOf(BoxList{twin}) {
		t.Error("dimensionality should change the signature")
	}
	if sigOf(BoxList{}) == sigOf(BoxList{{Dim: 2}}) {
		t.Error("empty list and list of one empty box should differ")
	}
}
