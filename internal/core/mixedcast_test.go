package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"pds/internal/attr"
	"pds/internal/bloom"
	"pds/internal/sim"
	"pds/internal/trace"
	"pds/internal/wire"
)

// castQuery describes one lingering query at the node under test.
type castQuery struct {
	id     uint64
	sender wire.NodeID
	origin wire.NodeID
	// holds are unit indices already in the query's Bloom filter;
	// saturated fills the filter past Overloaded first.
	holds     []int
	noBloom   bool
	saturated bool
}

// saturatedFilter returns a filter too full to be trusted.
func saturatedFilter() *bloom.Filter {
	f := bloom.New(64, 2, 7)
	for i := 0; !f.Overloaded(); i++ {
		f.Add(fmt.Sprintf("noise-%d", i))
	}
	return f
}

// describeSent renders sent responses one per line: receivers, serve
// bindings and unit names. It fails the test when a response carries its
// units in the wrong list for its kind, or a blob without its payload.
func describeSent(t *testing.T, msgs []*wire.Message) []string {
	t.Helper()
	var out []string
	for _, m := range msgs {
		r := m.Response
		if (r.Kind == wire.KindData) != (len(r.Entries) == 0) || (r.Kind == wire.KindMetadata) != (len(r.Blobs) == 0) {
			t.Fatalf("%s response with %d entries and %d blobs", r.Kind, len(r.Entries), len(r.Blobs))
		}
		descs := r.Entries
		for _, b := range r.Blobs {
			if len(b.Payload) == 0 {
				t.Fatalf("blob %s lost its payload", b.Desc)
			}
			descs = append(descs, b.Desc)
		}
		var units []string
		for _, d := range descs {
			v, _ := d.Get(attr.AttrName)
			units = append(units, v.StringVal())
		}
		out = append(out, fmt.Sprintf("to=%v serves=%v units=%v", r.Receivers, r.Serves, units))
	}
	return out
}

// TestMixedcastPass drives the one serve/relay rule through a relayed
// response — metadata entries and small-data blobs through the same
// table — and checks what leaves the node, what is counted and that the
// delivered queries' own filters are never written.
func TestMixedcastPass(t *testing.T) {
	const self = wire.NodeID(5)
	cases := []struct {
		name    string
		cfg     func(*Config)
		queries []castQuery
		units   int // the received response carries units 0..units-1
		// want is the relayed output of the first delivery, again that
		// of a second delivery of the same units: nothing, unless no
		// trustworthy filter stands in the way.
		want, again []string
		pruned      uint64
		suppressed  int // BloomSuppress trace events
		failOpen    int // BloomFailOpen trace events
	}{
		{
			name:    "two queries want one entry: one copy, two serves",
			queries: []castQuery{{id: 1, sender: 10, origin: 10}, {id: 2, sender: 11, origin: 11}},
			units:   1,
			want:    []string{"to=[10 11] serves=[{10 1} {11 2}] units=[u0]"},
		},
		{
			name:       "bloom hit suppresses and is traced",
			queries:    []castQuery{{id: 1, sender: 10, origin: 10, holds: []int{0}}},
			units:      2,
			want:       []string{"to=[10] serves=[{10 1}] units=[u1]"},
			pruned:     1,
			suppressed: 1,
		},
		{
			name:       "a unit is pruned only when every route turns it down",
			queries:    []castQuery{{id: 1, sender: 10, origin: 10, holds: []int{0}}, {id: 2, sender: 11, origin: 11}},
			units:      1,
			want:       []string{"to=[11] serves=[{11 2}] units=[u0]"},
			suppressed: 1,
		},
		// This case and "no bloom" below are named for the exact
		// forwarded set that once stood before the filter. The filter is
		// now the one redundancy rule, so a re-offer past a filter that
		// cannot be trusted, or past none, travels again.
		{
			name:     "saturated filter fails open; the exact set stops the re-send",
			queries:  []castQuery{{id: 1, sender: 10, origin: 10, saturated: true}},
			units:    2,
			want:     []string{"to=[10] serves=[{10 1}] units=[u0 u1]"},
			again:    []string{"to=[10] serves=[{10 1}] units=[u0 u1]"},
			failOpen: 2,
		},
		{
			name:    "own query marks but does not forward",
			queries: []castQuery{{id: 1, sender: self, origin: self}, {id: 2, sender: 11, origin: 11}},
			units:   1,
			want:    []string{"to=[11] serves=[{11 2}] units=[u0]"},
		},
		{
			name:    "only own query: nothing leaves, nothing is pruned",
			queries: []castQuery{{id: 1, sender: self, origin: self}},
			units:   2,
		},
		{
			name:    "one-shot query forwards the whole response before going quiet",
			cfg:     func(c *Config) { c.LingeringEnabled = false },
			queries: []castQuery{{id: 1, sender: 10, origin: 10}},
			units:   3,
			want:    []string{"to=[10] serves=[{10 1}] units=[u0 u1 u2]"},
		},
		{
			name:    "no mixedcast: one response per route",
			cfg:     func(c *Config) { c.MixedcastEnabled = false },
			queries: []castQuery{{id: 1, sender: 10, origin: 10}, {id: 2, sender: 11, origin: 11, holds: []int{1}}},
			units:   2,
			want: []string{
				"to=[10] serves=[{10 1}] units=[u0 u1]",
				"to=[11] serves=[{11 2}] units=[u0]",
			},
			pruned:     1,
			suppressed: 1,
		},
		{
			name:    "no bloom: the exact set alone decides",
			queries: []castQuery{{id: 1, sender: 10, origin: 10, noBloom: true}},
			units:   1,
			want:    []string{"to=[10] serves=[{10 1}] units=[u0]"},
			again:   []string{"to=[10] serves=[{10 1}] units=[u0]"},
		},
	}
	for _, kind := range []wire.QueryKind{wire.KindMetadata, wire.KindData} {
		for _, tc := range cases {
			t.Run(kind.String()+"/"+tc.name, func(t *testing.T) {
				cfg := DefaultConfig()
				if tc.cfg != nil {
					tc.cfg(&cfg)
				}
				eng := sim.NewEngine(1)
				var sent []*wire.Message
				n := NewNode(self, eng, rand.New(rand.NewSource(1)), func(m *wire.Message) { sent = append(sent, m) }, cfg)
				tr := trace.New(eng.Now, 0)
				n.SetTracer(tr.ForNode(self))

				descs := make([]attr.Descriptor, tc.units)
				for i := range descs {
					descs[i] = testEntry(i).Set(attr.AttrName, attr.String(fmt.Sprintf("u%d", i)))
				}
				type frozen struct {
					f      *bloom.Filter
					before []byte
				}
				var filters []frozen
				r := &wire.Response{ID: 99, Kind: kind, Sender: 20, Receivers: []wire.NodeID{self}}
				for _, cq := range tc.queries {
					q := &wire.Query{ID: cq.id, Kind: kind, TTL: time.Minute, Sender: cq.sender, Origin: cq.origin, Sel: testSel()}
					switch {
					case cq.saturated:
						q.Bloom = saturatedFilter()
					case !cq.noBloom:
						q.Bloom = bloom.NewForCapacity(64, 0.01, cq.id)
					}
					for _, i := range cq.holds {
						q.Bloom.Add(descs[i].Key())
					}
					if q.Bloom != nil {
						filters = append(filters, frozen{q.Bloom, q.Bloom.AppendBinary(nil)})
					}
					n.lqt.Insert(q, time.Minute)
					r.Serves = append(r.Serves, wire.Serve{Node: self, QueryID: cq.id})
				}
				want := tc.want
				if kind == wire.KindData {
					for _, d := range descs {
						r.Blobs = append(r.Blobs, wire.Blob{Desc: d, Payload: []byte{1, 2, 3}})
					}
				} else {
					r.Entries = descs
				}

				n.relayUnits(r, eng.Now())
				if got := describeSent(t, sent); !reflect.DeepEqual(got, want) {
					t.Fatalf("relayed\n got %q\nwant %q", got, want)
				}
				st := n.Stats()
				if st.ResponsesRelayed != uint64(len(want)) || st.ResponsesSent != 0 {
					t.Fatalf("relayed/sent counters = %d/%d, want %d/0", st.ResponsesRelayed, st.ResponsesSent, len(want))
				}
				if st.EntriesPruned != tc.pruned {
					t.Fatalf("EntriesPruned = %d, want %d", st.EntriesPruned, tc.pruned)
				}
				suppressed, copyOnly, failOpen := 0, 0, 0
				for _, ev := range tr.Events() {
					switch ev.Kind {
					case trace.BloomSuppress:
						suppressed++
						if ev.Val != 0 {
							copyOnly++
						}
					case trace.BloomFailOpen:
						failOpen++
					}
				}
				if suppressed != tc.suppressed {
					t.Fatalf("BloomSuppress events = %d, want %d", suppressed, tc.suppressed)
				}
				// Every key a case suppresses is in the delivered filter.
				if copyOnly != 0 {
					t.Fatalf("%d suppressions flagged copy-only, want 0: the received filter held each key", copyOnly)
				}
				if failOpen != tc.failOpen {
					t.Fatalf("BloomFailOpen events = %d, want %d", failOpen, tc.failOpen)
				}

				// The same units arriving again (another branch of the
				// mesh) read Suppressed from the relay's copy of each
				// filter that has one and can still be trusted.
				sent = nil
				again := *r
				again.ID = 100
				n.relayUnits(&again, eng.Now())
				if got := describeSent(t, sent); !reflect.DeepEqual(got, tc.again) {
					t.Fatalf("second delivery\n got %q\nwant %q", got, tc.again)
				}
				for _, fz := range filters {
					if !bytes.Equal(fz.f.AppendBinary(nil), fz.before) {
						t.Fatal("the delivered query's frozen Bloom filter was written")
					}
				}
			})
		}
	}
}

// TestServeIsTheSamePass: the serving side runs the rule the relay
// does — one copy for two queries, Bloom hits pruned per pair, the
// ablation splitting per route — for entries and for payloads.
func TestServeIsTheSamePass(t *testing.T) {
	const self = wire.NodeID(5)
	for _, kind := range []wire.QueryKind{wire.KindMetadata, wire.KindData} {
		for _, mixed := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/mixedcast=%v", kind, mixed), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.MixedcastEnabled = mixed
				cfg.ResponseJitterMax = 0
				eng := sim.NewEngine(1)
				var sent []*wire.Message
				n := NewNode(self, eng, rand.New(rand.NewSource(1)), func(m *wire.Message) { sent = append(sent, m) }, cfg)
				held := testEntry(0).Set(attr.AttrName, attr.String("u0"))
				fresh := testEntry(1).Set(attr.AttrName, attr.String("u1"))
				for _, d := range []attr.Descriptor{held, fresh} {
					if kind == wire.KindData {
						n.PublishSmall(d, []byte{9})
					} else {
						n.PublishEntry(d)
					}
				}
				for id, sender := range map[uint64]wire.NodeID{1: 10, 2: 11} {
					q := &wire.Query{ID: id, Kind: kind, TTL: time.Minute, Sender: sender, Origin: sender, Sel: testSel(),
						Bloom: bloom.NewForCapacity(64, 0.01, id)}
					if id == 2 {
						q.Bloom.Add(held.Key())
					}
					n.lqt.Insert(q, time.Minute)
				}
				n.serveQueries(kind)

				want := []string{"to=[10 11] serves=[{10 1} {11 2}] units=[u0 u1]"}
				if !mixed {
					want = []string{
						"to=[10] serves=[{10 1}] units=[u0 u1]",
						"to=[11] serves=[{11 2}] units=[u1]",
					}
				}
				if got := describeSent(t, sent); !reflect.DeepEqual(got, want) {
					t.Fatalf("served\n got %q\nwant %q", got, want)
				}
				st := n.Stats()
				if st.ResponsesSent != uint64(len(want)) || st.ResponsesRelayed != 0 || st.EntriesPruned != 1 {
					t.Fatalf("sent/relayed/pruned = %d/%d/%d, want %d/0/1", st.ResponsesSent, st.ResponsesRelayed, st.EntriesPruned, len(want))
				}
				// Serve-once: a second pass has no unserved route.
				sent = nil
				n.serveQueries(kind)
				if len(sent) != 0 {
					t.Fatalf("second serve pass sent %q", describeSent(t, sent))
				}
			})
		}
	}
}

// TestResponsePackerBudget: one packer for entries and blobs — batches
// stay under maxResponseBytes, an oversize unit travels alone, and every
// message carries the full receiver and serve lists.
func TestResponsePackerBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ResponseJitterMax = 0
	eng := sim.NewEngine(1)
	var sent []*wire.Message
	n := NewNode(5, eng, rand.New(rand.NewSource(1)), func(m *wire.Message) { sent = append(sent, m) }, cfg)
	c := cast{receivers: []wire.NodeID{10}, serves: []wire.Serve{{Node: 10, QueryID: 1}}}
	sizes := []int{600, 600, 600, 5000, 100}
	for i, sz := range sizes {
		c.kept.blobs = append(c.kept.blobs, wire.Blob{Desc: testEntry(i), Payload: make([]byte, sz)})
	}
	n.sendResponses(wire.KindData, c, nil)
	var got [][]int
	for _, m := range sent {
		var batch []int
		for _, b := range m.Response.Blobs {
			batch = append(batch, len(b.Payload))
		}
		got = append(got, batch)
		if !reflect.DeepEqual(m.Response.Receivers, c.receivers) || !reflect.DeepEqual(m.Response.Serves, c.serves) {
			t.Fatalf("message lost its addressing: %+v", m.Response)
		}
	}
	want := [][]int{{600, 600}, {600}, {5000}, {100}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batches = %v, want %v", got, want)
	}
}
