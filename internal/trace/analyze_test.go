package trace

import (
	"testing"
	"time"
)

// synthetic trace: consumer 1 floods query 100; nodes 2 and 3 forward;
// node 3 serves response 200; node 2 relays it as 300 with one Bloom
// suppression; a chunk sub-query 400 hangs off the root and is answered
// by response 500.
func analyzeFixture() []Event {
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	evs := []Event{
		{Kind: QueryStart, Node: 1, Msg: 100, Val: 1, Note: "metadata", T: ms(0)},
		{Kind: FrameTx, Node: 1, Msg: 100, Size: 60, Val: int64(ms(1))},
		{Kind: QueryForward, Node: 2, Msg: 100, Peer: 1, Val: 7, T: ms(1)},
		{Kind: FrameTx, Node: 2, Msg: 100, Size: 60, Val: int64(ms(1))},
		{Kind: QueryForward, Node: 3, Msg: 100, Peer: 2, Val: 6, T: ms(2)},
		{Kind: RespServe, Node: 3, Msg: 200, Parent: 100, Size: 3, T: ms(3)},
		{Kind: FrameTx, Node: 3, Msg: 200, Size: 120, Val: int64(ms(2))},
		{Kind: BloomSuppress, Node: 2, Msg: 100, Note: "k1", T: ms(4)},
		{Kind: RespRelay, Node: 2, Msg: 300, Parent: 200, Size: 2, T: ms(4)},
		{Kind: RespServe, Node: 2, Msg: 300, Parent: 100, Size: 2, T: ms(4)},
		{Kind: FrameTx, Node: 2, Msg: 300, Size: 90, Val: int64(ms(1))},
		{Kind: SubQuery, Node: 1, Msg: 400, Parent: 100, Peer: 2, Size: 2, Note: "0,1", T: ms(5)},
		{Kind: FrameTx, Node: 1, Msg: 400, Size: 50, Val: int64(ms(1))},
		{Kind: RespServe, Node: 2, Msg: 500, Parent: 400, Size: 1, T: ms(6)},
		{Kind: FrameTx, Node: 2, Msg: 500, Size: 200, Val: int64(ms(3))},
	}
	for i := range evs {
		evs[i].Seq = uint64(i + 1)
	}
	return evs
}

func TestAnalyzeTree(t *testing.T) {
	a := Analyze(analyzeFixture())
	if len(a.Queries) != 1 {
		t.Fatalf("roots = %d, want 1", len(a.Queries))
	}
	q := a.Query(100)
	if q == nil {
		t.Fatal("no summary for root 100")
	}
	if q.Consumer != 1 || q.Kind != "metadata" || q.Round != 1 {
		t.Errorf("root meta = %d/%q/%d", q.Consumer, q.Kind, q.Round)
	}
	if len(q.Hops) != 2 || q.Hops[0].Depth != 1 || q.Hops[1].Depth != 2 {
		t.Errorf("hops = %+v, want depths 1,2", q.Hops)
	}
	if q.Hops[1].Latency != 2*time.Millisecond {
		t.Errorf("hop 2 latency = %v", q.Hops[1].Latency)
	}
	if q.MaxDepth != 2 || q.Forwards != 2 {
		t.Errorf("depth/forwards = %d/%d, want 2/2", q.MaxDepth, q.Forwards)
	}
	wantResp := []uint64{200, 300, 500}
	if len(q.RespIDs) != len(wantResp) {
		t.Fatalf("resp ids = %v, want %v", q.RespIDs, wantResp)
	}
	for i, id := range wantResp {
		if q.RespIDs[i] != id {
			t.Errorf("resp ids = %v, want %v", q.RespIDs, wantResp)
			break
		}
	}
	// 300 is a relayed copy: its entries must not double-count.
	if q.ServedEntries != 4 {
		t.Errorf("served entries = %d, want 4 (3 from 200 + 1 from 500)", q.ServedEntries)
	}
	if q.Relays != 1 || q.Suppressions != 1 {
		t.Errorf("relays/suppr = %d/%d, want 1/1", q.Relays, q.Suppressions)
	}
	if len(q.SubQueryIDs) != 1 || q.SubQueryIDs[0] != 400 {
		t.Errorf("sub-queries = %v, want [400]", q.SubQueryIDs)
	}
	if q.Frames != 6 {
		t.Errorf("frames = %d, want 6", q.Frames)
	}
	if q.Airtime != 9*time.Millisecond {
		t.Errorf("airtime = %v, want 9ms", q.Airtime)
	}
	if q.FirstResponse != 3*time.Millisecond {
		t.Errorf("first response = %v, want 3ms", q.FirstResponse)
	}
	if a.Unrooted != 0 {
		t.Errorf("unrooted = %d, want 0", a.Unrooted)
	}
}

func TestAnalyzeUnrooted(t *testing.T) {
	a := Analyze([]Event{
		{Seq: 1, Kind: RespServe, Node: 9, Msg: 700, Parent: 600, Size: 1},
	})
	if len(a.Queries) != 0 || a.Unrooted != 1 {
		t.Errorf("roots=%d unrooted=%d, want 0/1", len(a.Queries), a.Unrooted)
	}
}

// Each discovery round is its own root: a round's suppressions split
// into those the received filter held and those only the relay's copy
// held, and its fail-open offers count apart, a chunk sub-query's
// charged to its root.
func TestAnalyzeBloomVerdicts(t *testing.T) {
	evs := []Event{
		{Kind: QueryStart, Node: 1, Msg: 100, Val: 1, Note: "metadata"},
		{Kind: BloomSuppress, Node: 2, Msg: 100, Note: "k1"},
		{Kind: BloomSuppress, Node: 3, Msg: 100, Val: 1, Note: "k2"},
		{Kind: BloomFailOpen, Node: 3, Msg: 100, Note: "k3"},
		{Kind: QueryStart, Node: 1, Msg: 101, Val: 2, Note: "metadata"},
		{Kind: BloomSuppress, Node: 2, Msg: 101, Val: 1, Note: "k4"},
		{Kind: SubQuery, Node: 1, Msg: 400, Parent: 101, Peer: 2},
		{Kind: BloomFailOpen, Node: 2, Msg: 400, Note: "k5"},
		{Kind: BloomFailOpen, Node: 2, Msg: 999, Note: "k6"}, // no root
	}
	for i := range evs {
		evs[i].Seq = uint64(i + 1)
	}
	a := Analyze(evs)
	for _, c := range []struct {
		root                    uint64
		suppr, copyOnly, failed int
	}{{100, 2, 1, 1}, {101, 1, 1, 1}} {
		q := a.Query(c.root)
		if q == nil {
			t.Fatalf("no summary for root %d", c.root)
		}
		if q.Suppressions != c.suppr || q.SelfInflicted != c.copyOnly || q.FailOpen != c.failed {
			t.Errorf("root %d: suppressions/copy-only/fail-open = %d/%d/%d, want %d/%d/%d",
				c.root, q.Suppressions, q.SelfInflicted, q.FailOpen, c.suppr, c.copyOnly, c.failed)
		}
	}
}
