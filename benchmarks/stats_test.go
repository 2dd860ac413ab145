package main

import (
	"math"
	"testing"
)

func TestMedianAndSpread(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	if got := spreadPct([]float64{9, 10, 11}); math.Abs(got-20) > 1e-9 {
		t.Errorf("spreadPct = %v, want 20", got)
	}
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5, 4, 6}, 4},
		{[]float64{5, 4, 6, 7}, 4},
		{[]float64{5, 4, 6, 7, 3}, 4},
		{[]float64{8, 7, 6, 5, 4, 3, 2, 1}, 2},
		{[]float64{9, 8, 7, 6, 5, 4, 3, 2, 1}, 3},
	} {
		if got := lowerQuartile(c.xs); got != c.want {
			t.Errorf("lowerQuartile(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestPooledPercentileNearestRank(t *testing.T) {
	// 1..100 pooled from three uneven passes: nearest-rank p50 = 50,
	// p90 = 90 with 10 samples beyond it.
	var passes [][]float64
	var cur []float64
	for i := 100; i >= 1; i-- { // deliberately unsorted input
		cur = append(cur, float64(i))
		if i == 71 || i == 20 {
			passes = append(passes, cur)
			cur = nil
		}
	}
	passes = append(passes, cur)
	if v, beyond := pooledPercentile(passes, 0.50); v != 50 || beyond != 50 {
		t.Errorf("p50 = %v (beyond %d), want 50 (50)", v, beyond)
	}
	if v, beyond := pooledPercentile(passes, 0.90); v != 90 || beyond != 10 {
		t.Errorf("p90 = %v (beyond %d), want 90 (10)", v, beyond)
	}
}

// The pooled-sample rule: a tail percentile is quoted only when at
// least minBeyond samples lie past it. live-swarm pools 4 × 32 ops.
func TestPooledSampleRule(t *testing.T) {
	pool := func(passes, ops int) [][]float64 {
		out := make([][]float64, passes)
		for p := range out {
			for i := 0; i < ops; i++ {
				out[p] = append(out[p], float64(p*ops+i))
			}
		}
		return out
	}
	if _, beyond := pooledPercentile(pool(4, 32), 0.90); beyond < minBeyond {
		t.Errorf("4×32 ops leave %d samples beyond p90, want ≥ %d", beyond, minBeyond)
	}
	if _, beyond := pooledPercentile(pool(1, 32), 0.90); beyond >= minBeyond {
		t.Errorf("a single 32-op pass leaves %d samples beyond p90; the rule should reject it", beyond)
	}
	if v, beyond := pooledPercentile(nil, 0.9); v != 0 || beyond != 0 {
		t.Errorf("empty pool = %v/%d, want 0/0", v, beyond)
	}
	perPass := liveItems / liveClients * liveClients
	if _, beyond := pooledPercentile(pool(livePooled, perPass), 0.90); beyond < minBeyond {
		t.Errorf("live-swarm's own sizing leaves %d samples beyond p90, want ≥ %d", beyond, minBeyond)
	}
}

func TestRelDiff(t *testing.T) {
	if got := relDiff(0, 0); got != 0 {
		t.Errorf("relDiff(0,0) = %v", got)
	}
	if got := relDiff(90, 110); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("relDiff(90,110) = %v, want 0.2", got)
	}
}

func TestSubSeedStreamsDiffer(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(1); seed <= 10; seed++ {
		for stream := 0; stream < 4; stream++ {
			s := subSeed(seed, stream)
			if s < 0 || seen[s] {
				t.Fatalf("subSeed(%d,%d) = %d: negative or repeated", seed, stream, s)
			}
			seen[s] = true
		}
	}
}

func TestFastestPasses(t *testing.T) {
	ps := []measuredPass{{Replica: 0, Host: hostDelta{WallS: 5}}, {Replica: 1, Host: hostDelta{WallS: 3}}, {Replica: 2, Host: hostDelta{WallS: 4}}}
	got := fastestPasses(ps, 2)
	if len(got) != 2 || got[0].Replica != 1 || got[1].Replica != 2 {
		t.Errorf("fastestPasses(…, 2) = %+v, want replicas 1 and 2", got)
	}
	if ps[0].Replica != 0 {
		t.Error("fastestPasses reordered its argument")
	}
	if got := fastestPasses(ps, 5); len(got) != 3 {
		t.Errorf("fastestPasses(…, 5) kept %d passes, want all 3", len(got))
	}
}
