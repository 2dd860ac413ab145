package ring

import (
	"math/rand"
	"testing"
)

// TestQueueMatchesSlice runs random pushes at both ends and pops against
// a plain slice, and looks inside the ring after every step: the buffer
// is a power of two long and holds nothing outside the queued range — a
// popped element is let go of at once.
func TestQueueMatchesSlice(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Queue[*int]
		var ref []*int
		for op := 0; op < 2000; op++ {
			v := new(int)
			*v = op
			// Phases of mostly pushing and mostly popping, so the queue
			// grows through several doublings and wraps many times.
			pushBias := 3 + 4*(op/250%2)
			switch k := rng.Intn(10); {
			case k < pushBias-2:
				q.PushBack(v)
				ref = append(ref, v)
			case k < pushBias:
				q.PushFront(v)
				ref = append([]*int{v}, ref...)
			case len(ref) > 0:
				if got := q.PopFront(); got != ref[0] {
					t.Fatalf("seed %d op %d: popped %d, want %d", seed, op, *got, *ref[0])
				}
				ref = ref[1:]
			}
			if q.Len() != len(ref) {
				t.Fatalf("seed %d op %d: Len = %d, want %d", seed, op, q.Len(), len(ref))
			}
			if len(ref) > 0 && q.Front() != ref[0] {
				t.Fatalf("seed %d op %d: Front = %d, want %d", seed, op, *q.Front(), *ref[0])
			}
			if n := len(q.buf); n&(n-1) != 0 {
				t.Fatalf("seed %d op %d: buffer of %d slots", seed, op, n)
			}
			for i, slot := range q.buf {
				queued := (i-q.head)&(len(q.buf)-1) < q.n
				if queued != (slot != nil) {
					t.Fatalf("seed %d op %d: slot %d (head %d, %d queued) holds %v",
						seed, op, i, q.head, q.n, slot)
				}
			}
		}
		for i := 0; q.Len() > 0; i++ {
			if got := q.PopFront(); got != ref[i] {
				t.Fatalf("seed %d drain: popped %d, want %d", seed, *got, *ref[i])
			}
		}
		q.PushBack(new(int))
		q.Reset()
		if q.Len() != 0 || q.buf != nil {
			t.Fatalf("seed %d: Reset left %d queued in a buffer of %d", seed, q.Len(), len(q.buf))
		}
	}
}

// TestQueueSteadyStateAllocatesNothing: once grown to its working depth
// a queue reuses its buffer, which a slice popped by reslicing cannot.
func TestQueueSteadyStateAllocatesNothing(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 5; i++ {
		q.PushBack(i)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		q.PushBack(1)
		q.PushFront(2)
		q.PopFront()
		q.PopFront()
	}); avg != 0 {
		t.Fatalf("push/pop at steady depth allocates %.1f objects", avg)
	}
}
