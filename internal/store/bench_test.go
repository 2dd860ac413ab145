package store

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"pds/internal/attr"
)

// benchEntry has the shape of the scenarios' entries (four attributes, a
// ~75-byte key) so the numbers here line up with the repo benchmark's
// store.match_us and store.put_cached_ns.
func benchEntry(i int) attr.Descriptor {
	return attr.NewDescriptor().
		Set(attr.AttrNamespace, attr.String("env")).
		Set(attr.AttrDataType, attr.String("nox")).
		Set(attr.AttrName, attr.String(fmt.Sprintf("s%06d", i))).
		Set(attr.AttrTime, attr.Int(int64(1600000000+i)))
}

// benchSizes: one flood node's store, and Fig. 6's range.
var benchSizes = []int{320, 5000, 20000}

var sinkDescs []attr.Descriptor

// BenchmarkMatch walks a full store under the scenarios' selector (two
// equality predicates, matches everything), a narrow one (one entry)
// and — the serve pass's own call — no selector into a reused buffer.
func BenchmarkMatch(b *testing.B) {
	all := attr.NewQuery(
		attr.Eq(attr.AttrNamespace, attr.String("env")),
		attr.Eq(attr.AttrDataType, attr.String("nox")))
	narrow := attr.NewQuery(attr.Eq(attr.AttrName, attr.String("s000007")))
	for _, n := range benchSizes {
		s := NewDataStore(0)
		for _, i := range rand.New(rand.NewSource(1)).Perm(n) {
			s.PutCached(benchEntry(i), time.Hour)
		}
		for name, q := range map[string]attr.Query{"all": all, "narrow": narrow} {
			b.Run(fmt.Sprintf("%d/%s", n, name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sinkDescs = s.Match(q, time.Minute)
				}
			})
		}
		b.Run(fmt.Sprintf("%d/walk", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkDescs = s.AppendMatch(sinkDescs[:0], attr.Query{}, time.Minute)
			}
		})
	}
}

// BenchmarkPutCached fills an empty store to each size, per entry: in
// shuffled key order — how responses arrive, and what the sorted insert
// costs — and ascending, the repo benchmark's replay order, which takes
// the append path.
func BenchmarkPutCached(b *testing.B) {
	for _, n := range benchSizes {
		descs := make([]attr.Descriptor, n)
		for i := range descs {
			descs[i] = benchEntry(i)
		}
		orders := map[string][]int{"shuffled": rand.New(rand.NewSource(1)).Perm(n), "ascending": make([]int, n)}
		for i := range orders["ascending"] {
			orders["ascending"][i] = i
		}
		for name, order := range orders {
			b.Run(fmt.Sprintf("%d/%s", n, name), func(b *testing.B) {
				b.ReportAllocs()
				var s *DataStore
				for i := 0; i < b.N; i++ {
					if i%n == 0 {
						s = NewDataStore(0)
					}
					s.PutCached(descs[order[i%n]], time.Hour)
				}
			})
		}
	}
}
