package scenario

import "testing"

func TestSingleHopModes(t *testing.T) {
	for _, senders := range []int{1, 2, 4} {
		raw := DefaultReception(senders)
		raw.Link.PaceEnabled, raw.Link.AckEnabled = false, false
		bucket := DefaultReception(senders)
		bucket.Link.PaceEnabled = true
		both := DefaultReception(senders)
		both.Link.PaceEnabled, both.Link.AckEnabled = true, true
		r1 := SingleHopReception(raw, 7)
		r2 := SingleHopReception(bucket, 7)
		r3 := SingleHopReception(both, 7)
		t.Logf("senders=%d raw=%.3f bucket=%.3f bucket+ack=%.3f (rates %.2f/%.2f/%.2f Mbps, drops %d/%d/%d)",
			senders, r1.ReceptionRate, r2.ReceptionRate, r3.ReceptionRate,
			r1.DataRateMbps, r2.DataRateMbps, r3.DataRateMbps,
			r1.BufferDrops, r2.BufferDrops, r3.BufferDrops)
	}
}
