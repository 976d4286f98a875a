package lattice

import (
	"fmt"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// sameNodeSeq requires equality including order — the batch searches
// promise byte-identical output, not just set equality.
func sameNodeSeq(a, b []Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key() != b[i].Key() {
			return false
		}
	}
	return true
}

// TestMinimalSatisfyingParallelEquivalence is the batch-vs-serial
// property test: for random spaces, random monotone predicates and worker
// counts 1..8, the batch search (nil prefetch) must return the identical node sequence
// and identical Stats (in particular, Evaluated never exceeds — in fact
// equals — the serial count, including at workers=1).
func TestMinimalSatisfyingParallelEquivalence(t *testing.T) {
	f := func(raw []uint8, w uint8) bool {
		if len(raw) < 4 {
			return true
		}
		workers := int(w)%8 + 1
		dims := []int{2 + int(raw[0])%3, 1 + int(raw[1])%3, 1 + int(raw[2])%2}
		s := MustSpace(dims...)
		all := s.All()
		var gens []Node
		for i := 3; i < len(raw) && i < 8; i++ {
			gens = append(gens, all[int(raw[i])%len(all)])
		}
		pred := generatorPred(gens)
		serial, sStats, err1 := MinimalSatisfying(s, pred)
		par, pStats, err2 := MinimalSatisfyingBatch(s, pred, nil, workers)
		if err1 != nil || err2 != nil {
			return false
		}
		return sameNodeSeq(serial, par) && sStats == pStats
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIncognitoParallelEquivalence(t *testing.T) {
	f := func(w0, w1, w2, lim, w uint8) bool {
		workers := int(w)%8 + 1
		s := MustSpace(4, 3, 2)
		weights := []int{int(w0)%4 + 1, int(w1)%4 + 1, int(w2)%4 + 1}
		limit := int(lim) % 12
		check, _ := weightedCheck(s, weights, limit)
		serial, sStats, err1 := Incognito(s, check)
		par, pStats, err2 := IncognitoBatch(s, check, nil, workers)
		if err1 != nil || err2 != nil {
			return false
		}
		return sameNodeSeq(serial, par) && sStats == pStats
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBinarySearchChainParallelEquivalence(t *testing.T) {
	s := MustSpace(5, 4, 3)
	chain := s.Chain()
	for workers := 1; workers <= 8; workers++ {
		for threshold := 0; threshold <= s.MaxHeight()+1; threshold++ {
			pred := func(n Node) (bool, error) { return n.Height() >= threshold, nil }
			wantIdx, wantStats, err := BinarySearchChain(chain, pred)
			if err != nil {
				t.Fatal(err)
			}
			idx, stats, err := BinarySearchChainBatch(chain, pred, nil, workers)
			if err != nil {
				t.Fatal(err)
			}
			if idx != wantIdx {
				t.Errorf("workers=%d threshold=%d: idx = %d, want %d", workers, threshold, idx, wantIdx)
			}
			if workers == 1 && stats != wantStats {
				t.Errorf("workers=1 threshold=%d: stats = %+v, want serial %+v", threshold, stats, wantStats)
			}
			// Multi-section search must not do more rounds' worth of work
			// than serial would across the board: each round costs at most
			// `workers` evaluations but divides the interval by workers+1.
			if workers > 1 && stats.Evaluated > wantStats.Evaluated*workers {
				t.Errorf("workers=%d threshold=%d: %d evaluations vs serial %d", workers, threshold, stats.Evaluated, wantStats.Evaluated)
			}
		}
	}
}

// TestParallelSearchesActuallyRunConcurrently asserts that with workers>1
// at least two predicate evaluations overlap in time, i.e. the pool is not
// secretly serial.
func TestParallelSearchesActuallyRunConcurrently(t *testing.T) {
	s := MustSpace(4, 4, 4)
	var inFlight, peak atomic.Int32
	block := make(chan struct{})
	close(block)
	pred := func(n Node) (bool, error) {
		cur := inFlight.Add(1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		<-block
		// Busy-wait a moment so overlap is observable even on fast machines.
		for i := 0; i < 1000; i++ {
			_ = i
		}
		inFlight.Add(-1)
		return false, nil
	}
	if _, _, err := MinimalSatisfyingBatch(s, pred, nil, 4); err != nil {
		t.Fatal(err)
	}
	if peak.Load() < 2 {
		t.Skip("no overlap observed (single-CPU runner?)")
	}
}

func TestParallelSearchErrorIsDeterministic(t *testing.T) {
	s := MustSpace(4, 4)
	bad := Node{1, 1}
	pred := func(n Node) (bool, error) {
		if n.Key() == bad.Key() {
			return false, fmt.Errorf("poisoned node")
		}
		return false, nil
	}
	wantErr := fmt.Sprintf("lattice: evaluating %v: poisoned node", bad)
	for workers := 1; workers <= 6; workers++ {
		_, _, err := MinimalSatisfyingBatch(s, pred, nil, workers)
		if err == nil || err.Error() != wantErr {
			t.Errorf("workers=%d: err = %v, want %q", workers, err, wantErr)
		}
	}
}

func TestLevels(t *testing.T) {
	s := MustSpace(3, 2, 2)
	levels := s.Levels()
	if len(levels) != s.MaxHeight()+1 {
		t.Fatalf("levels = %d, want %d", len(levels), s.MaxHeight()+1)
	}
	var flat []Node
	for h, level := range levels {
		for _, n := range level {
			if n.Height() != h {
				t.Errorf("node %v in level %d", n, h)
			}
			flat = append(flat, n)
		}
	}
	if !sameNodeSeq(flat, s.All()) {
		t.Error("Levels flattened does not match All() order")
	}
}
