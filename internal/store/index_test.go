package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"pds/internal/attr"
)

// matchByMapSort and matchPayloadsByMapSort are the Match and
// MatchPayloads bodies the key-ordered index replaced — range the map,
// collect the keys, sort them, copy the descriptors out — kept as the
// reference the index walk is held to.
func (s *DataStore) matchByMapSort(q attr.Query, now time.Duration) []attr.Descriptor {
	keys := make([]string, 0, len(s.entries))
	for k, e := range s.entries {
		if s.live(e, now) && q.Match(e.Desc) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([]attr.Descriptor, len(keys))
	for i, k := range keys {
		out[i] = s.entries[k].Desc
	}
	return out
}

func (s *DataStore) matchPayloadsByMapSort(q attr.Query, now time.Duration) []attr.Descriptor {
	keys := make([]string, 0)
	for k, e := range s.entries {
		if e.held != nil && s.live(e, now) && q.Match(e.Desc) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([]attr.Descriptor, len(keys))
	for i, k := range keys {
		out[i] = s.entries[k].Desc
	}
	return out
}

// memBackend is a PayloadBackend in a map. keepCached models a
// persistent cache tier: WipeCached then leaves cached records in place,
// so Recover brings them back spilled.
type memBackend struct {
	recs       map[string]memRecord
	keepCached bool
}

type memRecord struct {
	d          attr.Descriptor
	payload    []byte
	hasPayload bool
	owned      bool
}

func (b *memBackend) PutEntry(d attr.Descriptor) {
	b.recs[d.Key()] = memRecord{d: d, owned: true}
}

func (b *memBackend) PutPayload(d attr.Descriptor, payload []byte, owned bool) bool {
	b.recs[d.Key()] = memRecord{d: d, payload: payload, hasPayload: true, owned: owned}
	return true
}

func (b *memBackend) GetPayload(key string) ([]byte, bool) {
	r, ok := b.recs[key]
	return r.payload, ok && r.hasPayload
}

func (b *memBackend) HasPayload(key string) bool { return b.recs[key].hasPayload }
func (b *memBackend) DeletePayload(key string)   { delete(b.recs, key) }

func (b *memBackend) WipeCached() {
	if b.keepCached {
		return
	}
	for k, r := range b.recs {
		if !r.owned {
			delete(b.recs, k)
		}
	}
}

func (b *memBackend) Restore(fn func(d attr.Descriptor, payload []byte, hasPayload, owned bool)) {
	keys := make([]string, 0, len(b.recs))
	for k := range b.recs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		r := b.recs[k]
		fn(r.d, r.payload, r.hasPayload, r.owned)
	}
}

func keysOf(ds []attr.Descriptor) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Key()
	}
	return out
}

// checkIndex asserts the index's one invariant — it is exactly the
// records of the entry map, ascending by key — that the books kept over
// the records balance (cachedBytes and cacheOrder are the bytes and the
// keys, each once, of the cached payloads in RAM; chunkIndex is the
// payload-bearing chunk records; nothing is spilled and in RAM at once),
// that the slab's do (every record in the map or on the free list is a
// distinct slot setEntry cut, together all of them; a free slot is
// zeroed and reachable from no table), and that both walks agree with
// the map→sort reference under the catch-all, a broad and a narrow
// selector.
func checkIndex(t *testing.T, s *DataStore, now time.Duration, step string) {
	t.Helper()
	if len(s.index) != len(s.entries) {
		t.Fatalf("%s: index holds %d records, the map %d", step, len(s.index), len(s.entries))
	}
	var cached []string
	cachedBytes, chunks := 0, 0
	for i, e := range s.index {
		key := e.Desc.Key()
		if s.entries[key] != e {
			t.Fatalf("%s: index[%d] is not the map's record for its key", step, i)
		}
		if i > 0 && s.index[i-1].Desc.Key() >= key {
			t.Fatalf("%s: index out of order at %d", step, i)
		}
		h := e.held
		if h == nil {
			continue
		}
		if h.spilled && (h.bytes != nil || h.owned) {
			t.Fatalf("%s: %s is spilled and in RAM (owned %v)", step, key, h.owned)
		}
		if h.inCache() {
			cached = append(cached, key)
			cachedBytes += len(h.bytes)
		}
		if cid, ok := e.Desc.ChunkID(); ok {
			chunks++
			if s.chunkIndex[e.Desc.ItemKey()][cid] != e {
				t.Fatalf("%s: chunk %s holds a payload the chunk index does not point at", step, key)
			}
		}
	}
	if s.cachedBytes != cachedBytes {
		t.Fatalf("%s: cachedBytes %d, the cached payloads in RAM sum to %d", step, s.cachedBytes, cachedBytes)
	}
	got := slices.Clone(s.cacheOrder)
	if sort.Strings(got); !slices.Equal(got, cached) {
		t.Fatalf("%s: cacheOrder\n got %q\nwant %q", step, got, cached)
	}
	for itemKey, m := range s.chunkIndex {
		if chunks -= len(m); len(m) == 0 {
			t.Fatalf("%s: chunk index keeps an empty item %s", step, itemKey)
		}
	}
	if chunks != 0 {
		t.Fatalf("%s: chunk index holds %d records that bear no payload", step, -chunks)
	}
	free := make(map[*Entry]bool, len(s.free))
	for _, e := range s.free {
		if free[e] || s.entries[e.Desc.Key()] == e || !reflect.ValueOf(*e).IsZero() {
			t.Fatalf("%s: a free slot is listed twice, still in the map or not zeroed: %+v", step, *e)
		}
		free[e] = true
	}
	for itemKey, m := range s.chunkIndex {
		for cid, e := range m {
			if free[e] {
				t.Fatalf("%s: chunk index points at a free slot for %q chunk %d", step, itemKey, cid)
			}
		}
	}
	if live := len(s.entries); live+len(free) != s.slots {
		t.Fatalf("%s: %d live records and %d free slots, but %d slots cut", step, live, len(free), s.slots)
	}
	for i := range s.slab {
		if e := &s.slab[i]; !free[e] && s.entries[e.Desc.Key()] != e {
			t.Fatalf("%s: slot %d of the current chunk is neither live nor free", step, i)
		}
	}
	sels := []attr.Query{
		{},
		selAll(),
		attr.NewQuery(attr.Eq(attr.AttrName, attr.String("e3"))),
		attr.NewQuery(attr.Exists(attr.AttrChunkID)),
	}
	for _, q := range sels {
		if got, want := keysOf(s.Match(q, now)), keysOf(s.matchByMapSort(q, now)); !slices.Equal(got, want) {
			t.Fatalf("%s: Match(%s)\n got %q\nwant %q", step, q, got, want)
		}
		if got, want := keysOf(s.MatchPayloads(q, now)), keysOf(s.matchPayloadsByMapSort(q, now)); !slices.Equal(got, want) {
			t.Fatalf("%s: MatchPayloads(%s)\n got %q\nwant %q", step, q, got, want)
		}
	}
}

// TestIndexFollowsEveryMutation drives random sequences of every call
// that inserts or removes an entry or a payload — under a two-payload
// cache cap that admits everything or the opportunistic half, so
// inserts purge, evict and are refused, and with unpublish, publish and
// an owned entry aimed at keys the cache holds — with no backend, a
// volatile one and one with a persistent cache tier, and checks the
// index and the cache's and the slab's books after every step.
func TestIndexFollowsEveryMutation(t *testing.T) {
	const ttl = 10 * time.Second
	universe := make([]attr.Descriptor, 0, 24)
	for i := 0; i < 12; i++ {
		universe = append(universe, entry(i))
	}
	for c := 0; c < 6; c++ {
		universe = append(universe, entry(20).WithChunk(c), entry(21).WithChunk(c))
	}
	backends := map[string]func() PayloadBackend{
		"none":       func() PayloadBackend { return nil },
		"volatile":   func() PayloadBackend { return &memBackend{recs: map[string]memRecord{}} },
		"persistent": func() PayloadBackend { return &memBackend{recs: map[string]memRecord{}, keepCached: true} },
	}
	for name, mk := range backends {
		for _, policy := range []string{"fifo", "opportunistic"} {
			for seed := int64(1); seed <= 8; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed%d", name, policy, seed), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					s := withPolicy(t, 8, policy) // two 4-byte payloads
					if b := mk(); b != nil {
						s.SetBackend(b)
					}
					now := time.Duration(0)
					for i := 0; i < 400; i++ {
						d := universe[rng.Intn(len(universe))]
						expire := now + time.Duration(1+rng.Intn(20))*time.Second
						var step string
						switch op := rng.Intn(23); {
						case op < 2:
							step = "PutOwned"
							s.PutOwned(d)
						case op < 7:
							step = "PutCached"
							s.PutCached(d, expire)
						case op < 11:
							step = "PutPayloadCached"
							s.PutPayloadCached(d, []byte{1, 2, 3, 4}, now, expire)
						case op < 12:
							step = "PutPayloadOwned"
							s.PutPayloadOwned(d, []byte{5, 6, 7, 8})
						case op < 14:
							step = "Expire"
							s.Expire(now)
						case op < 15:
							step = "DeleteOwned"
							s.DeleteOwned(d)
						case op < 16:
							step = "WipeCached"
							s.WipeCached()
						case op < 17:
							step = "PowerOff+Recover"
							s.PowerOff()
							checkIndex(t, s, now, "PowerOff")
							s.Recover(now, ttl)
						case op < 18:
							step = "Recover"
							s.Recover(now, ttl)
						case op < 19:
							step = "advance"
							now += time.Duration(rng.Intn(8)) * time.Second
						case len(s.cacheOrder) == 0:
							step = "nothing cached"
						default:
							d = s.entries[s.cacheOrder[rng.Intn(len(s.cacheOrder))]].Desc
							switch op {
							case 19, 20:
								step = "DeleteOwned of a cached key"
								s.DeleteOwned(d)
							case 21:
								step = "PutPayloadOwned over a cached key"
								s.PutPayloadOwned(d, []byte{5, 6, 7, 8})
							default:
								step = "PutOwned over a cached key"
								s.PutOwned(d)
							}
						}
						checkIndex(t, s, now, fmt.Sprintf("step %d (%s)", i, step))
					}
				})
			}
		}
	}
}

// TestIndexInsertOrders: ascending keys take the append path, descending
// and shuffled ones the search; all three end at the same index.
func TestIndexInsertOrders(t *testing.T) {
	sorted := make([]attr.Descriptor, 300)
	for i := range sorted {
		sorted[i] = entry(i)
	}
	slices.SortFunc(sorted, func(a, b attr.Descriptor) int { return strings.Compare(a.Key(), b.Key()) })
	orders := map[string]func([]attr.Descriptor){
		"ascending":  func([]attr.Descriptor) {},
		"descending": slices.Reverse[[]attr.Descriptor],
		"shuffled": func(ds []attr.Descriptor) {
			rand.New(rand.NewSource(3)).Shuffle(len(ds), func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
		},
	}
	for name, reorder := range orders {
		descs := slices.Clone(sorted)
		reorder(descs)
		s := NewDataStore(0)
		for _, d := range descs {
			s.PutCached(d, time.Hour)
		}
		checkIndex(t, s, 0, name)
	}
}

// TestHotPathsDoNotAllocate: a warm walk of the index into a reused
// buffer costs no allocation. TestOfferAllocatesOnlyTheClone holds
// Offer's verdicts to theirs.
func TestHotPathsDoNotAllocate(t *testing.T) {
	s := NewDataStore(0)
	for i := 0; i < 320; i++ {
		s.PutCached(entry(i), time.Hour)
		if i%4 == 0 {
			s.PutPayloadOwned(entry(i), []byte{1})
		}
	}
	var buf []attr.Descriptor
	for _, q := range []attr.Query{{}, selAll()} {
		buf = s.AppendMatch(buf[:0], q, time.Minute) // warm: grow the buffer once
		if got := testing.AllocsPerRun(20, func() { buf = s.AppendMatch(buf[:0], q, time.Minute) }); got != 0 {
			t.Errorf("AppendMatch(%s) into a warm buffer: %v allocs", q, got)
		}
		if got := testing.AllocsPerRun(20, func() { buf = s.AppendMatchPayloads(buf[:0], q, time.Minute) }); got != 0 {
			t.Errorf("AppendMatchPayloads(%s) into a warm buffer: %v allocs", q, got)
		}
	}
	if len(buf) != 80 {
		t.Fatalf("payload walk found %d entries, want 80", len(buf))
	}
}

// TestPutCachedCutsRecordsFromTheSlab: 64 new keys into a warm store cost
// a slab chunk or two and whatever the map and the index grow by, not
// an allocation per record.
func TestPutCachedCutsRecordsFromTheSlab(t *testing.T) {
	const batch, runs = 64, 4
	s := NewDataStore(0)
	descs := make([]attr.Descriptor, 320+(runs+1)*batch)
	for i := range descs {
		descs[i] = benchEntry(i)
	}
	for _, d := range descs[:320] {
		s.PutCached(d, time.Hour)
	}
	next := descs[320:]
	if got := testing.AllocsPerRun(runs, func() {
		for _, d := range next[:batch] {
			s.PutCached(d, time.Hour)
		}
		next = next[batch:]
	}); got > 8 {
		t.Errorf("PutCached of %d new keys: %v allocs, want at most 8", batch, got)
	}
	checkIndex(t, s, 0, "after the batches")
}
