package attack

import (
	"context"
	"testing"

	"mayacache/internal/baseline"
	"mayacache/internal/cachemodel"
)

func trialCache(seed uint64) cachemodel.LLC {
	return mustLLC(baseline.NewChecked(baseline.Config{Sets: 16, Ways: 8, Replacement: baseline.LRU, Seed: seed, MatchSDID: true}))
}

func trialVictims(c cachemodel.LLC) (Victim, Victim) {
	keyA := [16]byte{1}
	keyB := [16]byte{0xff, 0x80, 7}
	return NewAESVictim(keyA, 1<<20, 8, CacheToucher(c, 2)),
		NewAESVictim(keyB, 1<<20, 8, CacheToucher(c, 3))
}

// TestMedianDistinguishWorkerInvariance: the parallel occupancy trials
// return the same median whatever the worker count.
func TestMedianDistinguishWorkerInvariance(t *testing.T) {
	const (
		runs   = 5
		max    = 60
		noise  = 4
		occ    = 16 * 8
		seed   = 3
		thresh = 4.5
	)
	median := func(workers int) float64 {
		got, err := Trials{Runs: runs, Workers: workers, Seed: seed}.
			MedianDistinguishCtx(context.Background(), trialCache, trialVictims, occ, noise, max, thresh)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return got
	}
	serial := median(1)
	for _, workers := range []int{2, 4} {
		if got := median(workers); got != serial {
			t.Fatalf("workers=%d: median %v, one worker %v", workers, got, serial)
		}
	}
}

// TestReplacementPredictabilityCtx: the parallel trials agree with the
// serial function's verdict on both a deterministic and a randomized
// design (fraction near 1 for LRU; determinism across worker counts).
func TestReplacementPredictabilityCtx(t *testing.T) {
	mkLRU := func(seed uint64) cachemodel.LLC {
		return mustLLC(baseline.NewChecked(baseline.Config{Sets: 8, Ways: 4, Replacement: baseline.LRU, Seed: seed, MatchSDID: true}))
	}
	var want float64
	for i, workers := range []int{1, 4} {
		frac, err := Trials{Runs: 20, Workers: workers, Seed: 2}.
			ReplacementPredictabilityCtx(context.Background(), mkLRU)
		if err != nil {
			t.Fatal(err)
		}
		if frac < 0.9 {
			t.Fatalf("LRU predictability %v, want ~1", frac)
		}
		if i == 0 {
			want = frac
		} else if frac != want {
			t.Fatalf("workers=%d: fraction %v != %v", workers, frac, want)
		}
	}
}

// TestTrialsCancellation: a cancelled context aborts the trial fan-out.
func TestTrialsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Trials{Runs: 8, Workers: 2, Seed: 1}.
		MedianDistinguishCtx(ctx, trialCache, trialVictims, 16*8, 2, 1_000_000, 1e9)
	if err == nil {
		t.Fatal("cancelled trial run returned nil error")
	}
}
