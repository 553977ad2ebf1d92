package loadbal

import (
	"testing"
	"testing/quick"
)

// depths is a static LoadView: candidate i reports depth d[i], stamped 1,
// past the minAt of 0 the tests pass, so every report counts as fresh.
type depths []int

func (d depths) Len() int                { return len(d) }
func (d depths) Load(i int) (int, int64) { return d[i], 1 }

func TestRoundRobinCycles(t *testing.T) {
	b := NewRoundRobin()
	v := depths{0, 0, 0}
	for round := 0; round < 3; round++ {
		for i := 0; i < 3; i++ {
			if got := b.PickIndex(v, 0); got != i {
				t.Fatalf("round %d pick %d = %d", round, i, got)
			}
		}
	}
}

// TestRoundRobinEmpty: degenerate views (no candidate, or one) pick index
// 0 without advancing the rotation.
func TestRoundRobinEmpty(t *testing.T) {
	b := NewRoundRobin()
	for _, v := range []depths{nil, {7}} {
		if got := b.PickIndex(v, 0); got != 0 {
			t.Fatalf("PickIndex over %d candidates = %d, want 0", v.Len(), got)
		}
	}
	if got := b.PickIndex(depths{0, 0}, 0); got != 0 {
		t.Fatalf("first pick after degenerate views = %d, want 0", got)
	}
}

func TestRoundRobinFairnessProperty(t *testing.T) {
	// Property: over k*n picks on n candidates, every candidate is picked
	// exactly k times.
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%8) + 1
		k := int(kRaw%8) + 1
		b := NewRoundRobin()
		v := make(depths, n)
		counts := make([]int, n)
		for i := 0; i < k*n; i++ {
			counts[b.PickIndex(v, 0)]++
		}
		for _, c := range counts {
			if c != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLeastLoadedPicksShallowest(t *testing.T) {
	b := NewLeastLoaded()
	if got := b.PickIndex(depths{5, 1, 3}, 0); got != 1 {
		t.Fatalf("picked %d, want the shallowest queue (1)", got)
	}
}

// TestLeastLoadedEmpty: degenerate views (no candidate, or one) pick
// index 0 without scanning.
func TestLeastLoadedEmpty(t *testing.T) {
	b := NewLeastLoaded()
	for _, v := range []depths{nil, {7}} {
		if got := b.PickIndex(v, 0); got != 0 {
			t.Fatalf("PickIndex over %d candidates = %d, want 0", v.Len(), got)
		}
	}
}

// TestLeastLoadedTieBreakRotates: among equally idle candidates the
// rotating scan offset spreads consecutive picks over every candidate.
func TestLeastLoadedTieBreakRotates(t *testing.T) {
	b := NewLeastLoaded()
	v := depths{0, 0, 0, 0}
	for i := 0; i < 8; i++ {
		if got := b.PickIndex(v, 0); got != i%4 {
			t.Fatalf("all-ties pick %d = %d, want %d (rotation)", i, got, i%4)
		}
	}
}

func TestLeastLoadedAdaptsToChangingDepths(t *testing.T) {
	b := NewLeastLoaded()
	v := depths{0, 0}
	first := b.PickIndex(v, 0)
	v[first] = 10
	for i := 0; i < 4; i++ {
		if got := b.PickIndex(v, 0); got == first {
			t.Fatalf("pick %d went back to the loaded candidate %d", i, first)
		}
	}
}
