package scenario

import (
	"fmt"
	"slices"

	"pds/internal/attr"
	"pds/internal/core"
	"pds/internal/metrics"
)

// CachePolicyAblation compares cache-eviction policies under a bounded
// per-node cache — the §VII future-work sketch ("data chunk caching
// strategies based on their popularity"). The workload makes caching
// matter: consumer 1 retrieves item A (seeding en-route caches), a
// second retrieval of item B pollutes those caches, then consumer 3
// retrieves A again. A popularity-aware policy preserves more of A's
// chunks through the pollution, so the third retrieval stays cheap.
func CachePolicyAblation(sizeMB int, seed int64, runs int) []*metrics.Series {
	policies := []string{"fifo", "lru", "lfu"}
	out := make([]*metrics.Series, 0, len(policies))
	for _, policy := range policies {
		// A run whose warm-up retrievals fall short is degenerate and
		// contributes no sample to the average.
		perRun := parMap(runs, func(r int) []metrics.Sample {
			c := core.DefaultConfig()
			c.CacheCap = sizeMB << 20 // cache holds ~one item
			c.Caching = policy
			d := Grid(10, 10, GridSpacing, Options{Seed: seed + int64(r)*101, Core: c})

			itemA := ItemDescriptor("popular", sizeMB<<20, DefaultChunkSize)
			itemB := ItemDescriptor("oneoff", sizeMB<<20, DefaultChunkSize)
			consumers := consumerIDs(d, 3, seed+int64(r))
			itemA = d.DistributeChunks(itemA, DefaultChunkSize, 1, consumers[0])
			itemB = d.DistributeChunks(itemB, DefaultChunkSize, 1, consumers[1])

			for i, item := range []attr.Descriptor{itemA, itemB} {
				if res, _ := d.Retrieve(consumers[i:i+1], item, false, retrievalDeadline); !res[0].Complete {
					return nil
				}
			}
			mark := d.Medium.Stats().TxBytes
			res, done := d.Retrieve(consumers[2:], itemA, false, retrievalDeadline)
			if !done {
				return nil
			}
			return []metrics.Sample{d.pdrSample(res, itemA, mark)}
		})
		s := &metrics.Series{Name: policy}
		s.Add(1, fmt.Sprintf("%dMB item, %dMB cache", sizeMB, sizeMB), metrics.Mean(slices.Concat(perRun...)))
		out = append(out, s)
	}
	return out
}
