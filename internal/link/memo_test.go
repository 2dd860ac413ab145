package link

import (
	"runtime"
	"testing"
	"time"

	"pds/internal/attr"
	"pds/internal/sim"
	"pds/internal/wire"
)

// newBytePipe connects two links the way a byte carrier does: every
// frame is encoded where it is sent — which fills the memo of the job a
// fragment belongs to — and the receiving link handles the decoded copy
// a millisecond later. delivered counts the messages handed up.
func newBytePipe(t *testing.T, eng *sim.Engine, delivered *int) (a, b *Link) {
	carry := func(to **Link) RawSender {
		return func(m *wire.Message) bool {
			buf, err := wire.Encode(m)
			if err != nil {
				t.Errorf("frame does not encode: %v", err)
				return false
			}
			d, err := wire.Decode(buf)
			if err != nil {
				t.Errorf("frame does not decode: %v", err)
				return false
			}
			eng.Schedule(time.Millisecond, func() {
				if up := (*to).HandleIncoming(d); up != nil {
					*delivered++
				}
			})
			return true
		}
	}
	a = New(eng, 1, carry(&b), testConfig())
	b = New(eng, 2, carry(&a), testConfig())
	return a, b
}

// watchActiveJob reports, by closing the returned channel, when the
// link's active fragment job — and the encoded whole inside it, which
// nothing but the job's own fragments can reach — has been collected.
// The job is looked up here so the caller's frame holds no reference.
func watchActiveJob(t *testing.T, l *Link) <-chan struct{} {
	t.Helper()
	if l.activeJob == nil {
		t.Fatal("no active fragment job")
	}
	gone := make(chan struct{})
	runtime.SetFinalizer(l.activeJob, func(*fragJob) { close(gone) })
	return gone
}

func collected(gone <-chan struct{}) bool {
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-gone:
			return true
		case <-time.After(5 * time.Millisecond):
		}
	}
	return false
}

func chunkResponse(n int, to wire.NodeID) *wire.Message {
	return &wire.Message{
		Type: wire.TypeResponse,
		Response: &wire.Response{
			ID:        7,
			Kind:      wire.KindChunk,
			Receivers: []wire.NodeID{to},
			Blobs:     []wire.Blob{{Desc: attr.NewDescriptor().Set("c", attr.Int(0)), Payload: make([]byte, n)}},
		},
	}
}

// passDeadEvents moves the engine's cursor past every cancelled retry
// timer: the wheel drops a cancelled event, and the closure it holds,
// only when it reaches it.
func passDeadEvents(eng *sim.Engine) {
	eng.Schedule(time.Hour, func() {})
	eng.Run(2 * time.Hour)
}

// TestEncodedWholeGoesWithAcknowledgedJob: once every fragment of a
// message a byte carrier encoded has been acknowledged, the link holds
// neither the job nor the encoded whole in it.
func TestEncodedWholeGoesWithAcknowledgedJob(t *testing.T) {
	eng := sim.NewEngine(1)
	delivered := 0
	a, _ := newBytePipe(t, eng, &delivered)
	a.Send(chunkResponse(40<<10, 2))
	gone := watchActiveJob(t, a)
	eng.Run(time.Minute)
	if delivered != 1 || a.PendingAcks() != 0 || a.activeJob != nil {
		t.Fatalf("delivered %d, %d pending acks, active job %v: transfer did not finish", delivered, a.PendingAcks(), a.activeJob)
	}
	passDeadEvents(eng)
	if !collected(gone) {
		t.Fatal("the acknowledged job, and the encoded whole in it, is still reachable")
	}
	runtime.KeepAlive(a)
}

// TestEncodedWholeGoesWithReset: Reset in the middle of a job lets go of
// it, its queued and unacknowledged fragments and the encoded whole.
func TestEncodedWholeGoesWithReset(t *testing.T) {
	eng := sim.NewEngine(1)
	delivered := 0
	a, _ := newBytePipe(t, eng, &delivered)
	a.Send(chunkResponse(40<<10, 2))
	gone := watchActiveJob(t, a)
	eng.Run(3 * time.Millisecond) // a window's worth out, its first acks back
	if a.activeJob == nil || a.PendingAcks() == 0 {
		t.Fatalf("job finished before the reset (%d pending acks)", a.PendingAcks())
	}
	a.Reset()
	passDeadEvents(eng)
	if delivered != 0 {
		t.Fatalf("delivered %d messages across a reset", delivered)
	}
	if !collected(gone) {
		t.Fatal("the job a Reset dropped, and the encoded whole in it, is still reachable")
	}
	runtime.KeepAlive(a)
}
