package scenario

import (
	"math/rand"
	"time"

	"pds/internal/attr"
	"pds/internal/link"
	"pds/internal/radio"
	"pds/internal/sim"
	"pds/internal/wire"
)

// ReceptionConfig parametrizes the single-hop prototype experiment of
// §V-4 / Figure 3: one or more senders blast 1.5 KB packets at one
// receiver, with the leaky bucket and ack/retransmission switched on or
// off.
type ReceptionConfig struct {
	// Senders is the number of concurrent sending phones.
	Senders int
	// Messages is how many packets each sender pushes.
	Messages int
	// AppRateBps is the application send rate in bits/second ("as
	// quickly as possible" on the prototype ≈ tens of Mbps, far above
	// what the MAC can broadcast).
	AppRateBps float64
	// Link is every node's link layer: PaceEnabled switches the leaky
	// bucket (BucketBytes, LeakRate) on, AckEnabled per-hop
	// ack/retransmission (RetrTimeout, MaxRetr).
	Link link.Config
}

// DefaultReception returns the Figure 3 setup: 1.5 KB packets sent at
// 40 Mbps application rate, raw UDP — leaky bucket and acks off, each
// figure switches them on — with the prototype's link parameters
// (300 KB bucket, 4.5 Mbps, 0.2 s) and Fig 3's four retransmissions.
func DefaultReception(senders int) ReceptionConfig {
	l := link.DefaultConfig(nil)
	l.PaceEnabled, l.AckEnabled = false, false
	l.MaxRetr = 4
	return ReceptionConfig{
		Senders:    senders,
		Messages:   8000,
		AppRateBps: 40e6,
		Link:       l,
	}
}

// ReceptionResult reports the single-hop outcome.
type ReceptionResult struct {
	// ReceptionRate is the fraction of distinct packets the receiver
	// got (Figure 3's y-axis).
	ReceptionRate float64
	// DataRateMbps is the receiver's goodput.
	DataRateMbps float64
	// Duration is how long the run took in virtual time.
	Duration time.Duration
	// BufferDrops counts packets lost to OS-buffer overflow.
	BufferDrops uint64
}

// receptionPayloadBytes sizes each packet just under the fragmentation
// threshold so every message is a single 1.5 KB-class frame, matching
// the prototype's packets.
const receptionPayloadBytes = 1200

// SingleHopReception runs the prototype reception experiment on the
// simulated medium and returns the reception rate, reproducing the
// raw-UDP collapse (~14%), the leaky-bucket recovery and the
// ack/retransmission gains of Figure 3.
func SingleHopReception(cfg ReceptionConfig, seed int64) ReceptionResult {
	eng := sim.NewEngine(seed)
	medium := radio.NewMedium(eng, radio.DefaultConfig())

	const receiverID wire.NodeID = 1
	// All nodes within a few meters: one hop, mutually sensing.
	received := make(map[uint64]bool)
	var lastDelivery time.Duration
	var recvLink *link.Link
	recvRadio := medium.Attach(receiverID, radio.Pos{X: 0, Y: 0}, func(msg *wire.Message) {
		if up := recvLink.HandleIncoming(msg); up != nil && up.Response != nil {
			received[up.Response.ID] = true
			lastDelivery = eng.Now()
		}
	})
	recvLink = link.New(eng, receiverID, recvRadio.Send, cfg.Link)
	recvLink.EnableTransmitNotify()
	recvRadio.OnTransmitted = recvLink.NotifyTransmitted

	interval := time.Duration(float64(receptionPayloadBytes*8) / cfg.AppRateBps * float64(time.Second))
	rng := rand.New(rand.NewSource(seed + 1))
	desc := attr.NewDescriptor().Set(attr.AttrName, attr.String("pkt"))
	payload := make([]byte, receptionPayloadBytes)

	totalSent := 0
	for s := 0; s < cfg.Senders; s++ {
		id := wire.NodeID(10 + s)
		var snd *link.Link
		r := medium.Attach(id, radio.Pos{X: float64(s+1) * 2, Y: 0}, func(msg *wire.Message) {
			snd.HandleIncoming(msg)
		})
		snd = link.New(eng, id, r.Send, cfg.Link)
		snd.EnableTransmitNotify()
		r.OnTransmitted = snd.NotifyTransmitted
		// Stagger senders slightly so they do not start in lockstep.
		startAt := time.Duration(rng.Int63n(int64(time.Millisecond)))
		sendLink := snd
		for i := 0; i < cfg.Messages; i++ {
			at := startAt + time.Duration(i)*interval
			eng.Schedule(at, func() {
				resp := &wire.Response{
					ID:        rng.Uint64(),
					Kind:      wire.KindData,
					Sender:    id,
					Receivers: []wire.NodeID{receiverID},
					Blobs:     []wire.Blob{{Desc: desc, Payload: payload}},
				}
				sendLink.Send(&wire.Message{Type: wire.TypeResponse, Response: resp})
			})
			totalSent++
		}
	}

	// Run until the medium drains (plus ack timeouts), bounded hard.
	deadline := time.Duration(totalSent)*interval + 60*time.Second
	eng.Run(deadline)

	got := len(received)
	res := ReceptionResult{
		ReceptionRate: float64(got) / float64(totalSent),
		Duration:      lastDelivery,
		BufferDrops:   medium.Stats().BufferDrops,
	}
	if lastDelivery > 0 {
		res.DataRateMbps = float64(got*receptionPayloadBytes*8) / lastDelivery.Seconds() / 1e6
	}
	return res
}
