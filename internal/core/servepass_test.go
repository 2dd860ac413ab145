package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"pds/internal/attr"
	"pds/internal/bloom"
	"pds/internal/sim"
	"pds/internal/store"
	"pds/internal/wire"
)

// serveQueriesByUnion is the serve pass the index walk replaced, kept as
// the reference model: match the store once per route, merge the lists
// through a seen-set in route order, hand the union to the same answer.
func (n *Node) serveQueriesByUnion(kind wire.QueryKind) {
	now := n.clk.Now()
	all := n.lqt.AllOfKind(nil, kind, now)
	routes := all[:0]
	for _, lq := range all {
		if !lq.Served && !lq.Exhausted {
			lq.Served = true
			routes = append(routes, lq)
		}
	}
	if len(routes) == 0 {
		return
	}
	seen := make(map[string]bool)
	var candidates content
	for _, lq := range routes {
		var matches []attr.Descriptor
		if kind == wire.KindData {
			matches = n.ds.MatchPayloads(lq.Query.Sel, now)
		} else {
			matches = n.ds.Match(lq.Query.Sel, now)
		}
		for _, d := range matches {
			key := d.Key()
			if !seen[key] {
				seen[key] = true
				candidates.entries = append(candidates.entries, d)
			}
		}
	}
	n.answer(routes, candidates, nil)
}

// passNode is one side of the equivalence test: a node and what it sent.
type passNode struct {
	n    *Node
	sent []*wire.Message
}

func newPassNode(cfg Config) *passNode {
	p := &passNode{}
	p.n = NewNode(5, sim.NewEngine(1), rand.New(rand.NewSource(1)), func(m *wire.Message) { p.sent = append(p.sent, m) }, cfg)
	return p
}

// units flattens what the node sent into unit names, and checks the
// addressing of every message on the way: receivers and serves sorted
// and distinct, every serve bound to a receiver.
func (p *passNode) units(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, m := range p.sent {
		r := m.Response
		if !slices.IsSorted(r.Receivers) || len(slices.Compact(slices.Clone(r.Receivers))) != len(r.Receivers) {
			t.Fatalf("receivers %v not a sorted set", r.Receivers)
		}
		if !slices.IsSortedFunc(r.Serves, compareServes) || len(slices.Compact(slices.Clone(r.Serves))) != len(r.Serves) {
			t.Fatalf("serves %v not a sorted set", r.Serves)
		}
		for _, sv := range r.Serves {
			if !containsID(r.Receivers, sv.Node) {
				t.Fatalf("serve %v without its receiver in %v", sv, r.Receivers)
			}
		}
		for _, d := range r.Entries {
			out = append(out, d.Name())
		}
		for _, b := range r.Blobs {
			out = append(out, b.Desc.Name())
		}
	}
	return out
}

// TestServePassMatchesUnion replays random stores and route sets through
// the index-walk serve pass and the per-route union it replaced. The
// units sent, their addressing, the prune count and every route's
// rewritten state must agree: in order when the routes' selectors agree,
// as a set in global key order when they differ.
func TestServePassMatchesUnion(t *testing.T) {
	selectors := []attr.Query{
		testSel(),
		attr.NewQuery(attr.Prefix(attr.AttrName, "e00")),
		attr.NewQuery(attr.Prefix(attr.AttrName, "e01")),
		attr.NewQuery(attr.Eq(attr.AttrName, attr.String("e007"))),
		attr.NewQuery(attr.Eq(attr.AttrNamespace, attr.String("nowhere"))),
	}
	for seed := int64(1); seed <= 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.ResponseJitterMax = 0
		cfg.MixedcastEnabled = rng.Intn(4) > 0
		cfg.LingeringEnabled = rng.Intn(4) > 0
		kind := wire.KindMetadata
		if rng.Intn(3) == 0 {
			kind = wire.KindData
		}
		useBloom := rng.Intn(4) > 0
		sameSel := rng.Intn(2) == 0

		sides := [2]*passNode{newPassNode(cfg), newPassNode(cfg)}
		universe := make([]attr.Descriptor, 40)
		for i := range universe {
			universe[i] = testEntry(i)
		}
		for _, i := range rng.Perm(len(universe))[:10+rng.Intn(30)] {
			d := universe[i]
			mode := rng.Intn(4)
			for _, p := range sides {
				switch mode {
				case 0:
					p.n.PublishEntry(d)
				case 1:
					p.n.PublishSmall(d, []byte{1, 2})
				case 2:
					p.n.ds.PutCached(d, time.Hour)
				case 3:
					p.n.ds.PutCached(d, 0) // already expired
				}
			}
		}
		for id := uint64(1); id <= uint64(1+rng.Intn(6)); id++ {
			sel := selectors[0]
			if !sameSel {
				sel = selectors[rng.Intn(len(selectors))]
			}
			sender := wire.NodeID(10 + rng.Intn(3))
			origin := sender
			if rng.Intn(6) == 0 {
				sender, origin = 5, 5 // the node's own query: a sink
			}
			var held []string
			for _, d := range universe {
				if rng.Intn(3) == 0 {
					held = append(held, d.Key())
				}
			}
			for _, p := range sides {
				q := &wire.Query{ID: id, Kind: kind, TTL: time.Minute, Sender: sender, Origin: origin, Sel: sel}
				if useBloom {
					q.Bloom = bloom.NewForCapacity(256, 0.001, id)
					for _, k := range held {
						q.Bloom.Add(k)
					}
				}
				p.n.lqt.Insert(q, time.Minute)
			}
		}

		sides[0].n.serveQueries(kind)
		sides[1].n.serveQueriesByUnion(kind)

		name := fmt.Sprintf("seed %d (%s, sameSel=%v, bloom=%v, mixedcast=%v, lingering=%v)",
			seed, kind, sameSel, useBloom, cfg.MixedcastEnabled, cfg.LingeringEnabled)
		got, want := sides[0].units(t), sides[1].units(t)
		if sameSel {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: sent\n got %v\nwant %v", name, got, want)
			}
			if a, b := describeSent(t, sides[0].sent), describeSent(t, sides[1].sent); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: messages\n got %q\nwant %q", name, a, b)
			}
		} else if cfg.MixedcastEnabled && !sort.StringsAreSorted(got) {
			t.Fatalf("%s: units left out of key order: %v", name, got)
		}
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: sent set\n got %v\nwant %v", name, got, want)
		}
		if a, b := sides[0].n.Stats(), sides[1].n.Stats(); a.EntriesPruned != b.EntriesPruned || (sameSel && a != b) {
			t.Fatalf("%s: stats\n got %+v\nwant %+v", name, a, b)
		}
		// Every route was rewritten alike: same filter bits, same
		// exhaustion, and — probing each route once more — the same
		// verdict for every unit of the universe.
		routes := [2][]*store.LingeringQuery{sides[0].n.lqt.AllOfKind(nil, kind, 0), sides[1].n.lqt.AllOfKind(nil, kind, 0)}
		if len(routes[0]) != len(routes[1]) {
			t.Fatalf("%s: %d routes vs %d", name, len(routes[0]), len(routes[1]))
		}
		for i, lq := range routes[0] {
			ref := routes[1][i]
			if lq.Exhausted != ref.Exhausted || lq.Served != ref.Served {
				t.Fatalf("%s: route %d served/exhausted differ", name, lq.Query.ID)
			}
			if useBloom && !bytes.Equal(lq.Bloom.AppendBinary(nil), ref.Bloom.AppendBinary(nil)) {
				t.Fatalf("%s: route %d filter bits differ", name, lq.Query.ID)
			}
			for _, d := range universe {
				if a, b := lq.Offer(d, d.Key()), ref.Offer(d, d.Key()); a != b {
					t.Fatalf("%s: route %d offered %s: verdict %d, want %d", name, lq.Query.ID, d.Name(), a, b)
				}
			}
		}
	}
}

// TestKeptIsSizedToWhatIsKept: the walk hands mixedcast every live entry,
// but what a pass keeps — the array sent messages go on holding — is
// allocated for the units kept, not for the store.
func TestKeptIsSizedToWhatIsKept(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ResponseJitterMax = 0
	p := newPassNode(cfg)
	for i := 0; i < 5000; i++ {
		p.n.ds.PutCached(testEntry(i), time.Hour)
	}
	narrow := attr.NewQuery(attr.Prefix(attr.AttrName, "e123")) // e123, e1230..e1239
	lq := p.n.lqt.Insert(&wire.Query{ID: 1, Kind: wire.KindMetadata, TTL: time.Minute, Sender: 10, Origin: 10, Sel: narrow}, time.Minute)
	units := content{entries: p.n.ds.AppendMatch(nil, attr.Query{}, 0)}
	if units.len() != 5000 {
		t.Fatalf("walk found %d entries", units.len())
	}
	c := p.n.mixedcast([]*store.LingeringQuery{lq}, units, false)
	if len(c.kept.entries) != 11 || cap(c.kept.entries) != 11 {
		t.Fatalf("kept len %d cap %d, want 11/11", len(c.kept.entries), cap(c.kept.entries))
	}
	if &c.kept.entries[0] == &units.entries[123] {
		t.Fatal("kept aliases the candidate scratch")
	}
}

// TestRelayKeepingEveryUnitSharesIt: a relay whose route wants every
// entry of a received response sends the received list on, shared; one
// that drops an entry sends a list of its own.
func TestRelayKeepingEveryUnitSharesIt(t *testing.T) {
	p := newPassNode(DefaultConfig())
	p.n.lqt.Insert(&wire.Query{ID: 1, Kind: wire.KindMetadata, TTL: time.Minute, Sender: 10, Origin: 10, Sel: testSel(),
		Bloom: bloom.NewForCapacity(64, 0.01, 1)}, time.Minute)
	relay := func(id uint64, entries ...int) (in, out []attr.Descriptor) {
		r := wire.Response{ID: id, Kind: wire.KindMetadata, Sender: 20, Receivers: []wire.NodeID{5},
			Serves: []wire.Serve{{Node: 5, QueryID: 1}}}
		for _, i := range entries {
			r.Entries = append(r.Entries, testEntry(i))
		}
		p.sent = p.sent[:0]
		p.n.HandleMessage(wire.NewResponse(r))
		if len(p.sent) != 1 {
			t.Fatalf("response %d: %d messages relayed, want 1", id, len(p.sent))
		}
		return r.Entries, p.sent[0].Response.Entries
	}
	if in, out := relay(100, 0, 1, 2); len(out) != 3 || &out[0] != &in[0] {
		t.Fatalf("keeping every entry relayed %d entries at %p, want the received 3 at %p", len(out), &out[0], &in[0])
	}
	in, out := relay(101, 1, 3, 4) // entry 1 is in the relay's copy of query 1's filter
	if len(out) != 2 || out[0].Key() != testEntry(3).Key() {
		t.Fatalf("relayed %v, want entries 3 and 4", out)
	}
	for i := range in {
		if &out[0] == &in[i] {
			t.Fatal("the pruned list aliases the received one")
		}
	}
}

// TestForwardedFilterIsTheReceivedOne: a node floods a query on with the
// filter it received — byte for byte, and still so after the node has
// served the query and rewritten its own lingering copy. Rewriting shows
// in what the node answers, never in the query it forwards.
func TestForwardedFilterIsTheReceivedOne(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ForwardJitterMax = 0
	p := newPassNode(cfg)
	eng := p.n.clk.(*sim.Engine)
	for i := 0; i < 20; i++ {
		p.n.PublishEntry(testEntry(i))
	}
	q := &wire.Query{ID: 7, Kind: wire.KindMetadata, TTL: time.Minute, Sender: 10, Origin: 10, Sel: testSel(),
		Bloom: bloom.NewForCapacity(64, 0.01, 3)}
	q.Bloom.Add(testEntry(0).Key())
	received := q.Bloom.AppendBinary(nil)

	p.n.HandleMessage(&wire.Message{Type: wire.TypeQuery, Query: q})
	if len(p.sent) != 1 || p.sent[0].Type != wire.TypeQuery {
		t.Fatalf("expected the forwarded query, got %d messages", len(p.sent))
	}
	fwd := p.sent[0].Query
	if fwd == q || fwd.Sender != 5 {
		t.Fatalf("forwarded query not rewritten copy-on-write: %+v", fwd)
	}
	if !bytes.Equal(fwd.Bloom.AppendBinary(nil), received) {
		t.Fatal("forwarded filter differs from the received one")
	}

	eng.Run(time.Second) // the deferred serve pass fires and rewrites
	lq, ok := p.n.lqt.Get(7, eng.Now())
	if !ok || !lq.Served || lq.Bloom.Count() <= q.Bloom.Count() {
		t.Fatal("the node never served and rewrote its lingering copy")
	}
	if len(p.sent) < 2 || p.sent[1].Type != wire.TypeResponse {
		t.Fatal("no response left the node")
	}
	if !bytes.Equal(fwd.Bloom.AppendBinary(nil), received) || !bytes.Equal(q.Bloom.AppendBinary(nil), received) {
		t.Fatal("serving changed a filter that is already on the air")
	}
}

// BenchmarkServePass is the flood's steady state at one node: five
// unserved routes with warm filters (each already holds the whole
// store), so the pass is a walk of 320 entries and 1 600 suppressed
// offers, and nothing is sent.
func BenchmarkServePass(b *testing.B) {
	cfg := DefaultConfig()
	p := newPassNode(cfg)
	const entries = 320
	filter := bloom.NewForCapacity(entries, 0.01, 1)
	for i := 0; i < entries; i++ {
		d := testEntry(i)
		p.n.ds.PutCached(d, time.Hour)
		filter.Add(d.Key())
	}
	var routes []*store.LingeringQuery
	for id := uint64(1); id <= 5; id++ {
		q := &wire.Query{ID: id, Kind: wire.KindMetadata, TTL: time.Hour, Sender: wire.NodeID(10 + id), Origin: wire.NodeID(10 + id),
			Sel: testSel(), Bloom: filter}
		routes = append(routes, p.n.lqt.Insert(q, time.Hour))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, lq := range routes {
			lq.Served = false
		}
		p.n.serveQueries(wire.KindMetadata)
	}
	if len(p.sent) != 0 || p.n.Stats().EntriesPruned != uint64(b.N)*5*entries {
		b.Fatalf("pass sent %d messages, pruned %d", len(p.sent), p.n.Stats().EntriesPruned)
	}
}
