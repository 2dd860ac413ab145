package trace

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"pds/internal/wire"
)

func testNow() func() time.Duration {
	t := time.Duration(0)
	return func() time.Duration { t += time.Millisecond; return t }
}

// TestDisabledPathZeroAlloc pins the contract the instrumented hot
// paths rely on: with tracing off (nil tracer / nil node tracer) every
// emit method is a no-op that performs zero allocations. This mirrors
// wire/alloc_test.go — if an emit method grows an interface{} argument
// or formats eagerly, this test fails before any benchmark regresses.
func TestDisabledPathZeroAlloc(t *testing.T) {
	var tr *Tracer
	nt := tr.ForNode(7) // must be nil
	if nt != nil {
		t.Fatalf("ForNode on nil tracer = %v, want nil", nt)
	}
	msg := &wire.Message{Query: &wire.Query{ID: 42}}
	chunks := []int{1, 2, 3}
	key := "item/0"

	allocs := testing.AllocsPerRun(200, func() {
		tr.FrameTx(1, msg, 128, time.Millisecond)
		tr.Frame(FrameRx, 2, 1, msg)
		tr.BufferDrop(1, msg, 128)
		nt.Fragment(msg, 9, 4, 5000)
		nt.Retransmit(msg, 2, 3)
		nt.Reassembled(msg, 9, 4)
		nt.GiveUp(msg, 1)
		nt.QueryStart(42, 1, "metadata")
		nt.QueryForward(42, 3, 2)
		nt.LQMatch(43, 42)
		nt.MixedcastMerge(43, 2, 10)
		nt.BloomSuppress(42, key, true)
		nt.BloomFailOpen(42, key)
		nt.CDIUpdate(43, 3, 1, 2)
		nt.SubQuery(44, 42, 3, chunks)
		nt.RespServe(43, 42, 10)
		nt.RespRelay(45, 43, 8)
		nt.CacheInsert(key, 0)
		nt.CacheEvict(key, 4096)
		nt.LQTInsert(42)
		nt.LQTExpire(42)
	})
	if allocs != 0 {
		t.Fatalf("disabled trace path allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestRingBounded(t *testing.T) {
	tr := New(testNow(), 8)
	nt := tr.ForNode(1)
	for i := 0; i < 20; i++ {
		nt.LQTInsert(uint64(i))
	}
	evs := tr.Events()
	if len(evs) != 8 {
		t.Fatalf("ring holds %d events, want 8", len(evs))
	}
	// Oldest overwritten: the survivors are the last 8 emissions.
	if evs[0].Msg != 12 || evs[7].Msg != 19 {
		t.Fatalf("ring kept msgs %d..%d, want 12..19", evs[0].Msg, evs[7].Msg)
	}
	if got := tr.Dropped(); got != 12 {
		t.Fatalf("Dropped() = %d, want 12", got)
	}
	// Sequence numbers stay globally ordered across the wrap.
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events out of seq order at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestEventsMergeSortedAcrossNodes(t *testing.T) {
	tr := New(testNow(), 0)
	a, b := tr.ForNode(2), tr.ForNode(1)
	a.LQTInsert(1)
	b.LQTInsert(2)
	a.LQTInsert(3)
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for i, want := range []uint64{1, 2, 3} {
		if evs[i].Seq != uint64(i+1) || evs[i].Msg != want {
			t.Fatalf("event %d = seq %d msg %d, want seq %d msg %d", i, evs[i].Seq, evs[i].Msg, i+1, want)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := New(testNow(), 0)
	tr.FrameTx(1, &wire.Message{Query: &wire.Query{ID: 7}}, 96, 250*time.Microsecond)
	nt := tr.ForNode(2)
	nt.SubQuery(9, 7, 5, []int{0, 2, 4})
	nt.BloomSuppress(7, "video/3", true)

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Events()
	if len(got) != len(want) {
		t.Fatalf("round trip: %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: round trip %+v != original %+v", i, got[i], want[i])
		}
	}
	if got[1].Note != "0,2,4" {
		t.Fatalf("sub-query assignment vector = %q, want %q", got[1].Note, "0,2,4")
	}
}

func TestKindNamesRoundTrip(t *testing.T) {
	for k := FrameTx; k <= LQTExpire; k++ {
		name := k.String()
		if name == "" || name[0] == 'k' && name[1] == 'i' { // "kind(N)" fallback
			t.Fatalf("kind %d has no name", k)
		}
		if back := KindFromString(name); back != k {
			t.Fatalf("KindFromString(%q) = %d, want %d", name, back, k)
		}
	}
}

func TestMsgID(t *testing.T) {
	q := &wire.Message{Query: &wire.Query{ID: 11}}
	r := &wire.Message{Response: &wire.Response{ID: 12}}
	frag := &wire.Message{Fragment: &wire.Fragment{OrigID: 13, Whole: r}}
	fragData := &wire.Message{Fragment: &wire.Fragment{OrigID: 13}}
	ack := &wire.Message{Ack: &wire.Ack{MsgID: 14}}
	cases := []struct {
		m    *wire.Message
		want uint64
	}{{nil, 0}, {q, 11}, {r, 12}, {frag, 12}, {fragData, 13}, {ack, 14}, {&wire.Message{}, 0}}
	for i, c := range cases {
		if got := MsgID(c.m); got != c.want {
			t.Fatalf("case %d: MsgID = %d, want %d", i, got, c.want)
		}
	}
}

// TestNilTracerWriteJSONL pins the fix for WriteJSONL's missing nil
// guard: a nil tracer is the documented disabled path and must write
// nothing, not panic.
func TestNilTracerWriteJSONL(t *testing.T) {
	var tr *Tracer
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatalf("nil tracer WriteJSONL: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil tracer wrote %q", buf.String())
	}
}

// TestNilTracerMethods holds every exported method of *Tracer and
// *NodeTracer to the nil-receiver contract: called on nil with
// zero-value arguments, none panics. A method added without its nil
// guard fails here.
func TestNilTracerMethods(t *testing.T) {
	for _, recv := range []any{(*Tracer)(nil), (*NodeTracer)(nil)} {
		v := reflect.ValueOf(recv)
		if v.NumMethod() == 0 {
			t.Fatalf("%T has no exported methods", recv)
		}
		for i := 0; i < v.NumMethod(); i++ {
			name := fmt.Sprintf("%T.%s", recv, v.Type().Method(i).Name)
			m := v.Method(i)
			args := make([]reflect.Value, m.Type().NumIn())
			for j := range args {
				args[j] = reflect.Zero(m.Type().In(j))
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s on a nil receiver panicked: %v", name, r)
					}
				}()
				m.Call(args)
			}()
		}
	}
}
