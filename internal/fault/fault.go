// Package fault is a deterministic, seeded fault-injection layer for
// PDS experiments. It turns a declarative Plan — a list of timed fault
// events — into channel-level and node-level faults driven by the sim
// clock:
//
//   - Burst loss: a Gilbert–Elliott two-state channel (good/bad) whose
//     state sojourns are exponentially distributed, replacing the
//     radio's smooth i.i.d. BaseLoss during burst windows. This is the
//     loss shape the paper's Android prototype actually saw (§V-2:
//     long runs of consecutive UDP drops once buffers and contention
//     interact), as opposed to the uniform fading the simulator models
//     by default.
//   - Frame corruption: frames delivered with bit errors; the MAC CRC
//     discards them at the receiver, so a corrupt frame is a counted
//     loss, never a garbage message handed upward.
//   - Frame duplication: frames delivered twice, exercising the link
//     and protocol dedup paths (TransmitID, RR lookup, LQT lookup).
//   - Node crash/restart: a device powers off mid-protocol, losing all
//     volatile state (LQT, CDI, partial chunk buffers, ARQ state), and
//     optionally comes back later with only its persisted data.
//   - Producer departure: a node leaves for good mid-retrieval — the
//     opportunistic-network failure mode the paper's mobility traces
//     schedule, here injectable at a precise instant.
//
// Everything is reproducible: injector randomness comes from a seed in
// the Plan, and all state transitions are scheduled on the
// deterministic engine clock, so identical seeds produce identical
// fault sequences and identical experiment metrics.
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"pds/internal/clock"
	"pds/internal/radio"
	"pds/internal/wire"
)

// GEConfig parametrizes the Gilbert–Elliott two-state loss channel.
type GEConfig struct {
	// MeanGood and MeanBad are the mean sojourn times in the good and
	// bad states; actual sojourns are exponentially distributed.
	MeanGood time.Duration
	MeanBad  time.Duration
	// LossGood and LossBad are the per-frame loss probabilities in each
	// state. LossGood defaults to the ambient base loss.
	LossGood float64
	LossBad  float64
}

// DefaultGE returns a burst channel with the given bad-state loss
// probability: ~0.5 s bursts every ~2 s, ambient loss otherwise.
func DefaultGE(lossBad float64) GEConfig {
	return GEConfig{
		MeanGood: 2 * time.Second,
		MeanBad:  500 * time.Millisecond,
		LossBad:  lossBad,
	}
}

// EventKind discriminates fault events.
type EventKind int

// Fault event kinds.
const (
	// Crash powers a node off at At; Downtime > 0 restarts it after.
	Crash EventKind = iota + 1
	// Depart removes a node permanently (producer leaving).
	Depart
	// Burst opens a Gilbert–Elliott burst-loss window.
	Burst
	// Corrupt opens a frame-corruption window with probability Rate.
	Corrupt
	// Duplicate opens a frame-duplication window with probability Rate.
	Duplicate
)

// String returns the lowercase event-kind name.
func (k EventKind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Depart:
		return "depart"
	case Burst:
		return "burst"
	case Corrupt:
		return "corrupt"
	case Duplicate:
		return "dup"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one timed fault.
type Event struct {
	// At is when the fault fires (virtual time).
	At time.Duration
	// Kind selects the fault.
	Kind EventKind
	// Node is the target of Crash/Depart events.
	Node wire.NodeID
	// Downtime is how long a crashed node stays down before restarting;
	// zero means it never comes back.
	Downtime time.Duration
	// Duration bounds Burst/Corrupt/Duplicate windows; zero means the
	// window stays open for the rest of the run.
	Duration time.Duration
	// GE parametrizes Burst events (zero fields take DefaultGE values).
	GE GEConfig
	// Rate is the per-frame probability for Corrupt/Duplicate windows.
	Rate float64
}

// Plan is a declarative, seeded fault schedule.
type Plan struct {
	// Seed drives all injector randomness; identical seeds and events
	// produce identical fault sequences.
	Seed int64
	// Events are the timed faults, applied in At order.
	Events []Event
}

// Add appends an event and returns the plan for chaining.
func (p *Plan) Add(e Event) *Plan {
	p.Events = append(p.Events, e)
	return p
}

// Target is the deployment surface the injector drives. Implemented by
// scenario.Deployment.
type Target interface {
	// Crash powers the node off, wiping volatile state.
	Crash(id wire.NodeID)
	// Restart powers a crashed node back on.
	Restart(id wire.NodeID)
	// Depart removes the node permanently.
	Depart(id wire.NodeID)
}

// Stats counts injected faults.
type Stats struct {
	BurstsEntered    uint64 // transitions into the GE bad state
	BurstLosses      uint64 // frames lost while in the bad state
	Crashes          uint64
	Restarts         uint64
	Departures       uint64
	CorruptedFrames  uint64
	DuplicatedFrames uint64
}

// Injector executes a Plan: it schedules node faults on the target and
// implements radio.ChannelModel for the channel faults. Install it with
// Medium.Channel = injector.
type Injector struct {
	clk    clock.Clock
	rng    *rand.Rand
	target Target

	// baseLoss is the ambient i.i.d. loss applied outside burst windows
	// (mirrors radio.Config.BaseLoss, which the injector replaces).
	baseLoss float64

	geActive bool
	geCfg    GEConfig
	geBad    bool
	geEnds   time.Duration // 0 = open-ended
	geEpoch  uint64        // invalidates scheduled flips of closed windows

	corruptRate float64
	corruptEnds time.Duration
	corruptOpen bool
	dupRate     float64
	dupEnds     time.Duration
	dupOpen     bool

	stats Stats
}

// NewInjector returns an injector scheduling on clk, randomized by
// seed, driving node faults into target (which may be nil when the plan
// has only channel events).
func NewInjector(clk clock.Clock, seed int64, target Target) *Injector {
	return &Injector{
		clk:    clk,
		rng:    rand.New(rand.NewSource(seed ^ 0x5fae1d)),
		target: target,
	}
}

// SetBaseLoss sets the ambient loss probability applied outside burst
// windows. Deployments pass their radio config's BaseLoss so installing
// the injector does not change the fair-weather channel.
func (in *Injector) SetBaseLoss(p float64) { in.baseLoss = p }

// Stats returns a snapshot of the injected-fault counters.
func (in *Injector) Stats() Stats { return in.stats }

// Install schedules every event of the plan. Events already in the past
// fire immediately.
func (in *Injector) Install(p Plan) {
	events := append([]Event(nil), p.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	now := in.clk.Now()
	for _, ev := range events {
		ev := ev
		delay := ev.At - now
		if delay < 0 {
			delay = 0
		}
		in.clk.Schedule(delay, func() { in.fire(ev) })
	}
}

func (in *Injector) fire(ev Event) {
	now := in.clk.Now()
	switch ev.Kind {
	case Crash:
		if in.target == nil {
			return
		}
		in.stats.Crashes++
		in.target.Crash(ev.Node)
		if ev.Downtime > 0 {
			in.clk.Schedule(ev.Downtime, func() {
				in.stats.Restarts++
				in.target.Restart(ev.Node)
			})
		}
	case Depart:
		if in.target == nil {
			return
		}
		in.stats.Departures++
		in.target.Depart(ev.Node)
	case Burst:
		cfg := ev.GE
		if cfg.MeanGood <= 0 {
			cfg.MeanGood = DefaultGE(0).MeanGood
		}
		if cfg.MeanBad <= 0 {
			cfg.MeanBad = DefaultGE(0).MeanBad
		}
		if cfg.LossGood <= 0 {
			cfg.LossGood = in.baseLoss
		}
		in.geCfg = cfg
		in.geActive = true
		in.geBad = false
		in.geEpoch++
		if ev.Duration > 0 {
			in.geEnds = now + ev.Duration
			epoch := in.geEpoch
			in.clk.Schedule(ev.Duration, func() {
				if in.geEpoch == epoch {
					in.geActive = false
				}
			})
		} else {
			in.geEnds = 0
		}
		in.scheduleFlip()
	case Corrupt:
		in.corruptRate = ev.Rate
		in.corruptOpen = true
		in.corruptEnds = 0
		if ev.Duration > 0 {
			in.corruptEnds = now + ev.Duration
		}
	case Duplicate:
		in.dupRate = ev.Rate
		in.dupOpen = true
		in.dupEnds = 0
		if ev.Duration > 0 {
			in.dupEnds = now + ev.Duration
		}
	}
}

// scheduleFlip arms the next Gilbert–Elliott state transition with an
// exponentially distributed sojourn in the current state.
func (in *Injector) scheduleFlip() {
	if !in.geActive {
		return
	}
	mean := in.geCfg.MeanGood
	if in.geBad {
		mean = in.geCfg.MeanBad
	}
	soj := time.Duration(in.expo(float64(mean)))
	epoch := in.geEpoch
	in.clk.Schedule(soj, func() {
		if in.geEpoch != epoch || !in.geActive {
			return
		}
		in.geBad = !in.geBad
		if in.geBad {
			in.stats.BurstsEntered++
		}
		in.scheduleFlip()
	})
}

// expo draws an exponential variate with the given mean (nanoseconds).
func (in *Injector) expo(mean float64) float64 {
	u := in.rng.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -mean * math.Log(u)
}

// burstOpen reports whether the GE channel governs loss at now.
func (in *Injector) burstOpen(now time.Duration) bool {
	return in.geActive && (in.geEnds == 0 || now < in.geEnds)
}

// Fate implements radio.ChannelModel: it decides the fate of one frame
// delivery. Draw order (loss, then corruption, then duplication) is
// fixed so a given seed always produces the same sequence.
func (in *Injector) Fate(from, to wire.NodeID, now time.Duration) radio.FrameFate {
	loss := in.baseLoss
	inBurst := false
	if in.burstOpen(now) {
		if in.geBad {
			loss = in.geCfg.LossBad
			inBurst = true
		} else {
			loss = in.geCfg.LossGood
		}
	}
	if loss > 0 && in.rng.Float64() < loss {
		if inBurst {
			in.stats.BurstLosses++
		}
		return radio.FateLost
	}
	if in.corruptOpen && (in.corruptEnds == 0 || now < in.corruptEnds) &&
		in.corruptRate > 0 && in.rng.Float64() < in.corruptRate {
		in.stats.CorruptedFrames++
		return radio.FateCorrupt
	}
	if in.dupOpen && (in.dupEnds == 0 || now < in.dupEnds) &&
		in.dupRate > 0 && in.rng.Float64() < in.dupRate {
		in.stats.DuplicatedFrames++
		return radio.FateDuplicate
	}
	return radio.FateDeliver
}

// ParsePlan parses a compact fault-plan string, a semicolon-separated
// list of events:
//
//	crash:<node>@<at>[+<downtime>]   crash node, restart after downtime
//	depart:<node>@<at>               permanent departure
//	burst@<at>[+<dur>]:<lossBad>[,<meanBad>[,<meanGood>]]
//	corrupt@<at>[+<dur>]:<rate>
//	dup@<at>[+<dur>]:<rate>
//
// Durations use Go syntax ("30s", "500ms") and are not negative; a rate
// or lossBad lies in [0,1], a burst mean above zero. Examples:
//
//	crash:45@30s+20s;burst@10s+60s:0.4
//	corrupt@0s:0.1;dup@0s:0.05
func ParsePlan(spec string) (Plan, error) {
	var p Plan
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ev, err := parseEvent(part)
		if err != nil {
			return Plan{}, fmt.Errorf("fault: event %q: %w", part, err)
		}
		p.Events = append(p.Events, ev)
	}
	return p, nil
}

func parseEvent(s string) (Event, error) {
	head, rest, ok := strings.Cut(s, "@")
	if !ok {
		return Event{}, fmt.Errorf("missing @<time>")
	}
	var ev Event
	kind, nodeStr, hasNode := strings.Cut(head, ":")
	switch kind {
	case "crash":
		ev.Kind = Crash
	case "depart":
		ev.Kind = Depart
	case "burst":
		ev.Kind = Burst
	case "corrupt":
		ev.Kind = Corrupt
	case "dup":
		ev.Kind = Duplicate
	default:
		return Event{}, fmt.Errorf("unknown kind %q", kind)
	}
	if ev.Kind == Crash || ev.Kind == Depart {
		if !hasNode {
			return Event{}, fmt.Errorf("%s needs a node id (%s:<id>@...)", kind, kind)
		}
		id, err := strconv.ParseUint(nodeStr, 10, 32)
		if err != nil {
			return Event{}, fmt.Errorf("node id %q: %w", nodeStr, err)
		}
		ev.Node = wire.NodeID(id)
	} else if hasNode {
		return Event{}, fmt.Errorf("%s takes no node id", kind)
	}

	timing, params, hasParams := strings.Cut(rest, ":")
	atStr, durStr, hasDur := strings.Cut(timing, "+")
	at, err := time.ParseDuration(atStr)
	if err != nil {
		return Event{}, fmt.Errorf("at %q: %w", atStr, err)
	}
	ev.At = at
	if hasDur {
		d, err := time.ParseDuration(durStr)
		if err != nil {
			return Event{}, fmt.Errorf("duration %q: %w", durStr, err)
		}
		if ev.Kind == Crash {
			ev.Downtime = d
		} else {
			ev.Duration = d
		}
	}

	switch ev.Kind {
	case Burst:
		if !hasParams {
			return Event{}, fmt.Errorf("burst needs :<lossBad>")
		}
		fields := strings.Split(params, ",")
		lossBad, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return Event{}, fmt.Errorf("lossBad %q: %w", fields[0], err)
		}
		ev.GE = DefaultGE(lossBad)
		if len(fields) > 1 {
			if ev.GE.MeanBad, err = time.ParseDuration(fields[1]); err != nil {
				return Event{}, fmt.Errorf("meanBad %q: %w", fields[1], err)
			}
		}
		if len(fields) > 2 {
			if ev.GE.MeanGood, err = time.ParseDuration(fields[2]); err != nil {
				return Event{}, fmt.Errorf("meanGood %q: %w", fields[2], err)
			}
		}
		if len(fields) > 3 {
			return Event{}, fmt.Errorf("too many burst parameters")
		}
	case Corrupt, Duplicate:
		if !hasParams {
			return Event{}, fmt.Errorf("%s needs :<rate>", ev.Kind)
		}
		if ev.Rate, err = strconv.ParseFloat(params, 64); err != nil {
			return Event{}, fmt.Errorf("rate %q: %w", params, err)
		}
	default:
		if hasParams {
			return Event{}, fmt.Errorf("%s takes no parameters", ev.Kind)
		}
	}
	switch { // !(x >= 0 && x <= 1) rejects NaN too
	case ev.At < 0 || ev.Duration < 0 || ev.Downtime < 0:
		return Event{}, fmt.Errorf("negative @<at> or +<dur>")
	case !(ev.Rate >= 0 && ev.Rate <= 1):
		return Event{}, fmt.Errorf("rate %v out of [0,1]", ev.Rate)
	case !(ev.GE.LossBad >= 0 && ev.GE.LossBad <= 1):
		return Event{}, fmt.Errorf("lossBad %v out of [0,1]", ev.GE.LossBad)
	case ev.Kind == Burst && (ev.GE.MeanBad <= 0 || ev.GE.MeanGood <= 0):
		return Event{}, fmt.Errorf("burst means %v, %v must be positive", ev.GE.MeanBad, ev.GE.MeanGood)
	}
	return ev, nil
}
