package trace

import (
	"sort"
	"time"

	"pds/internal/wire"
)

// Hop is one forwarding step of a query flood: Node re-broadcast the
// query it heard from From at time T, Depth hops from the consumer.
type Hop struct {
	Node    wire.NodeID
	From    wire.NodeID
	T       time.Duration
	Depth   int
	Latency time.Duration // T minus the root query's start
}

// QuerySummary is the reconstructed message tree of one root query:
// the consumer's flood, every response generated or relayed for it,
// recursive chunk sub-queries hanging off it, and the airtime the
// whole tree burned.
type QuerySummary struct {
	ID       uint64
	Consumer wire.NodeID
	Kind     string
	Round    int
	Start    time.Duration

	// Flood shape of the root query itself.
	Hops     []Hop // first forward per node, time order
	Forwards int   // every QueryForward in the tree (incl. sub-queries)
	MaxDepth int

	// Response side.
	RespIDs       []uint64      // distinct response messages in the tree, sorted
	ServedEntries int           // entries/chunks generated by producers
	Relays        int           // RespRelay events in the tree
	Merges        int           // mixedcast merges benefiting this tree
	Suppressions  int           // Bloom suppressions charged to tree queries
	SelfInflicted int           // of Suppressions, those held only by the relay's copy of the filter
	FailOpen      int           // entries offered Fresh past an overloaded filter
	FirstResponse time.Duration // earliest serve/relay, 0 if none

	// Recursive retrieval.
	SubQueryIDs  []uint64 // direct + transitive chunk sub-queries, sorted
	TreeQueryIDs []uint64 // root plus SubQueryIDs, sorted

	// Channel cost of every frame carrying a tree message.
	Frames  int
	Bytes   int
	Airtime time.Duration
}

// ChunkServe is one tiered-retrieval attribution: Node obtained chunk
// Chunk (Bytes long) from the named tier ("local", "p2p", "origin" —
// or "missing" when no tier produced it) at T.
type ChunkServe struct {
	Node  wire.NodeID
	Chunk int
	Bytes int
	Tier  string
	T     time.Duration
}

// TierCount aggregates ChunkServe records for one tier.
type TierCount struct {
	Chunks int
	Bytes  int
}

// PlaybackEvent is one workload-plane record (PrefetchIssued, Stall,
// SegmentDeadlineMiss) in emission order: Node's player interacted with
// segment/layer Index of Item at T. For prefetches Val is the pipeline
// depth; for stalls and deadline misses it is the stall length or
// lateness in nanoseconds (0 lateness = the segment never arrived).
type PlaybackEvent struct {
	Node  wire.NodeID
	Kind  Kind
	Index int
	Val   int64
	Item  string
	T     time.Duration
}

// PlaybackSummary aggregates a trace's workload plane.
type PlaybackSummary struct {
	Prefetches     int
	Stalls         int
	StallTime      time.Duration
	DeadlineMisses int
}

// Analysis is the result of reconstructing a trace.
type Analysis struct {
	Events   int
	Queries  []*QuerySummary // ordered by Start, then ID
	Unrooted int             // responses not attributable to any root

	// Tiered retrieval attribution (empty for pure-P2P traces).
	ChunkServes []ChunkServe         // every ChunkTier event, emission order
	Tiers       map[string]TierCount // tier note → aggregate

	// Workload plane (empty for traces without streaming/bulk drivers).
	Playback        []PlaybackEvent // every workload event, emission order
	PlaybackSummary PlaybackSummary

	byID map[uint64]*QuerySummary
}

// Query returns the summary rooted at id, or nil.
func (a *Analysis) Query(id uint64) *QuerySummary { return a.byID[id] }

// Analyze rebuilds per-query message trees from a flat event stream.
// Roots are QueryStart events; chunk sub-queries attach to their parent
// via SubQuery links, responses attach via RespServe (response → query)
// and RespRelay (response → upstream response) links, and radio frames
// attach by protocol message id. Events must be in emission order (as
// Events and ReadJSONL return them).
func Analyze(events []Event) *Analysis {
	a := &Analysis{Events: len(events), byID: make(map[uint64]*QuerySummary)}

	// Pass 1: link tables.
	queryParent := make(map[uint64]uint64)   // sub-query → parent query
	relayParent := make(map[uint64]uint64)   // relayed resp → source resp
	respQueries := make(map[uint64][]uint64) // resp → queries it serves
	for _, ev := range events {
		switch ev.Kind {
		case QueryStart:
			if a.byID[ev.Msg] == nil {
				q := &QuerySummary{
					ID: ev.Msg, Consumer: ev.Node, Kind: ev.Note,
					Round: int(ev.Val), Start: ev.T,
				}
				a.byID[ev.Msg] = q
				a.Queries = append(a.Queries, q)
			}
		case SubQuery:
			queryParent[ev.Msg] = ev.Parent
		case RespRelay:
			relayParent[ev.Msg] = ev.Parent
		case RespServe:
			respQueries[ev.Msg] = append(respQueries[ev.Msg], ev.Parent)
		}
	}

	// rootOf resolves a query id up the sub-query chain to a traced
	// root, 0 when the chain leads nowhere (e.g. ring overwrote the
	// start event).
	rootMemo := make(map[uint64]uint64)
	var rootOf func(qid uint64, depth int) uint64
	rootOf = func(qid uint64, depth int) uint64 {
		if depth > 64 || qid == 0 {
			return 0
		}
		if r, ok := rootMemo[qid]; ok {
			return r
		}
		var r uint64
		if a.byID[qid] != nil {
			r = qid
		} else if p, ok := queryParent[qid]; ok {
			r = rootOf(p, depth+1)
		}
		rootMemo[qid] = r
		return r
	}

	// rootsOfResp resolves a response id to the roots it ultimately
	// serves: direct query bindings first, else up the relay chain.
	respMemo := make(map[uint64][]uint64)
	var rootsOfResp func(rid uint64, depth int) []uint64
	rootsOfResp = func(rid uint64, depth int) []uint64 {
		if depth > 64 || rid == 0 {
			return nil
		}
		if r, ok := respMemo[rid]; ok {
			return r
		}
		respMemo[rid] = nil // cycle guard
		seen := make(map[uint64]bool)
		var roots []uint64
		add := func(root uint64) {
			if root != 0 && !seen[root] {
				seen[root] = true
				roots = append(roots, root)
			}
		}
		for _, qid := range respQueries[rid] {
			add(rootOf(qid, 0))
		}
		if src, ok := relayParent[rid]; ok {
			for _, root := range rootsOfResp(src, depth+1) {
				add(root)
			}
		}
		respMemo[rid] = roots
		return roots
	}

	// Pass 2: attribute events to trees.
	type treeState struct {
		respSet   map[uint64]bool
		subSet    map[uint64]bool
		depth     map[wire.NodeID]int // root-flood depth per node
		forwarded map[wire.NodeID]bool
	}
	states := make(map[uint64]*treeState)
	stateOf := func(root uint64) *treeState {
		st := states[root]
		if st == nil {
			st = &treeState{
				respSet:   make(map[uint64]bool),
				subSet:    make(map[uint64]bool),
				depth:     map[wire.NodeID]int{a.byID[root].Consumer: 0},
				forwarded: make(map[wire.NodeID]bool),
			}
			states[root] = st
		}
		return st
	}
	frameRoots := func(msg uint64) []uint64 {
		if root := rootOf(msg, 0); root != 0 {
			return []uint64{root}
		}
		return rootsOfResp(msg, 0)
	}
	for _, ev := range events {
		switch ev.Kind {
		case QueryForward:
			root := rootOf(ev.Msg, 0)
			if root == 0 {
				continue
			}
			q := a.byID[root]
			st := stateOf(root)
			q.Forwards++
			if ev.Msg == root && !st.forwarded[ev.Node] {
				st.forwarded[ev.Node] = true
				d := st.depth[ev.Peer] + 1
				st.depth[ev.Node] = d
				if d > q.MaxDepth {
					q.MaxDepth = d
				}
				q.Hops = append(q.Hops, Hop{
					Node: ev.Node, From: ev.Peer, T: ev.T,
					Depth: d, Latency: ev.T - q.Start,
				})
			}
		case SubQuery:
			root := rootOf(ev.Msg, 0)
			if root == 0 {
				continue
			}
			stateOf(root).subSet[ev.Msg] = true
		case RespServe, RespRelay, MixedcastMerge:
			roots := rootsOfResp(ev.Msg, 0)
			if len(roots) == 0 {
				if ev.Kind != MixedcastMerge {
					a.Unrooted++
				}
				continue
			}
			for _, root := range roots {
				q := a.byID[root]
				st := stateOf(root)
				st.respSet[ev.Msg] = true
				switch ev.Kind {
				case RespServe:
					// A relayed copy re-binds the same queries; count
					// entries only at the generating hop.
					if _, relayed := relayParent[ev.Msg]; !relayed {
						q.ServedEntries += ev.Size
					}
				case RespRelay:
					q.Relays++
				case MixedcastMerge:
					q.Merges++
				}
				if ev.Kind != MixedcastMerge &&
					(q.FirstResponse == 0 || ev.T < q.FirstResponse) {
					q.FirstResponse = ev.T
				}
			}
		case BloomSuppress:
			if root := rootOf(ev.Msg, 0); root != 0 {
				q := a.byID[root]
				q.Suppressions++
				if ev.Val == 1 {
					q.SelfInflicted++
				}
			}
		case BloomFailOpen:
			if root := rootOf(ev.Msg, 0); root != 0 {
				a.byID[root].FailOpen++
			}
		case FrameTx:
			for _, root := range frameRoots(ev.Msg) {
				q := a.byID[root]
				q.Frames++
				q.Bytes += ev.Size
				q.Airtime += time.Duration(ev.Val)
			}
		case ChunkTier:
			a.ChunkServes = append(a.ChunkServes, ChunkServe{
				Node: ev.Node, Chunk: ev.Size, Bytes: int(ev.Val),
				Tier: ev.Note, T: ev.T,
			})
			if a.Tiers == nil {
				a.Tiers = make(map[string]TierCount)
			}
			tc := a.Tiers[ev.Note]
			tc.Chunks++
			tc.Bytes += int(ev.Val)
			a.Tiers[ev.Note] = tc
		case PrefetchIssued, SegmentDeadlineMiss, Stall:
			a.Playback = append(a.Playback, PlaybackEvent{
				Node: ev.Node, Kind: ev.Kind, Index: ev.Size,
				Val: ev.Val, Item: ev.Note, T: ev.T,
			})
			switch ev.Kind {
			case PrefetchIssued:
				a.PlaybackSummary.Prefetches++
			case Stall:
				a.PlaybackSummary.Stalls++
				a.PlaybackSummary.StallTime += time.Duration(ev.Val)
			case SegmentDeadlineMiss:
				a.PlaybackSummary.DeadlineMisses++
			}
		}
	}

	for root, st := range states {
		q := a.byID[root]
		q.RespIDs = sortedIDs(st.respSet)
		q.SubQueryIDs = sortedIDs(st.subSet)
		q.TreeQueryIDs = append([]uint64{root}, q.SubQueryIDs...)
		sort.Slice(q.TreeQueryIDs, func(i, j int) bool {
			return q.TreeQueryIDs[i] < q.TreeQueryIDs[j]
		})
	}
	for _, q := range a.Queries {
		if q.TreeQueryIDs == nil {
			q.TreeQueryIDs = []uint64{q.ID}
		}
	}
	sort.SliceStable(a.Queries, func(i, j int) bool {
		if a.Queries[i].Start != a.Queries[j].Start {
			return a.Queries[i].Start < a.Queries[j].Start
		}
		return a.Queries[i].ID < a.Queries[j].ID
	})
	return a
}

func sortedIDs(set map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
