package main

import (
	"fmt"
	"math/rand"
	"time"

	"pds/internal/attr"
	"pds/internal/core"
	"pds/internal/mobility"
	"pds/internal/scenario"
)

// sim-city-idle sizing (see README "Sizing"). Every field CityScale
// reads is set explicitly — the values are scenario.CityConfig's
// defaults — because the traced mirror cannot call the unexported
// withDefaults.
const (
	cityConsumers = 32
	citySimTime   = 10 * time.Minute
	// cityQuiesce stops issuing ops this long before the pass ends, so
	// every issued discovery can finish inside the pass.
	cityQuiesce = 30 * time.Second
)

func cityConfig() scenario.CityConfig {
	return scenario.CityConfig{
		Nodes:         10000,
		AreaPerNode:   900,
		SpeedMin:      0.5,
		SpeedMax:      1.5,
		PauseMax:      30 * time.Second,
		StepInterval:  time.Second,
		Items:         1000,
		Publishes:     2000,
		ZipfS:         1.2,
		Consumers:     cityConsumers,
		QueryInterval: time.Minute,
		HopLimit:      2,
	}
}

// cityWorkload is the near-idle city: almost no messages, so the sim
// wheel, core's soft-state timers, mobility.Step and the radio's
// spatial index do the work.
type cityWorkload struct {
	replicas [maxReplicas]cityReplica
	catalog  map[string]bool
}

type cityReplica struct {
	engineSeed int64
	consumers  []int // waypoint indices of the querying nodes
}

func (w *cityWorkload) name() string    { return "sim-city-idle" }
func (w *cityWorkload) simulated() bool { return true }
func (w *cityWorkload) minPasses() int  { return 3 }
func (w *cityWorkload) why() string {
	return "10 000 waypoint nodes, 32 hop-limited consumers: almost no messages, so the sim wheel, core's 1 Hz soft-state timers, mobility.Step and radio.SetPositions/spatial do the work"
}

func (w *cityWorkload) storeShape() (int, attr.Query) { return 1, scenario.EntrySelector() }

func (w *cityWorkload) generate(seed int64) {
	cfg := cityConfig()
	for r := range w.replicas {
		rng := rand.New(rand.NewSource(subSeed(seed, r)))
		w.replicas[r] = cityReplica{engineSeed: rng.Int63(), consumers: rng.Perm(cfg.Nodes)[:cityConsumers]}
	}
	w.catalog = make(map[string]bool, cfg.Items)
	for i := 0; i < cfg.Items; i++ {
		w.catalog[scenario.EntryDescriptor(i).Key()] = true
	}
}

type cityOp struct {
	done bool
	res  core.DiscoveryResult
}

func (w *cityWorkload) pass(tc *traceCtx, replica int) (*passOutcome, error) {
	cfg := cityConfig()
	rep := w.replicas[replica]
	var (
		net *simNet
		wp  *mobility.Waypoint
	)
	if tc == nil {
		d, p := scenario.CityScale(cfg, scenario.Options{Seed: rep.engineSeed})
		net, wp = viewOf(d), p
	} else {
		net, wp = mirrorCity(cfg, rep.engineSeed, tc.sim)
	}
	var ops []*cityOp
	opts := core.DiscoverOptions{HopLimit: cfg.HopLimit}
	for ci, idx := range rep.consumers {
		id := wp.ID(idx)
		// Consumers re-query on a fixed period, staggered by index so
		// queries never synchronize into bursts (as scenario.CityRun).
		offset := time.Duration(ci) * cfg.QueryInterval / time.Duration(len(rep.consumers))
		var ask func()
		ask = func() {
			if net.eng.Now() > citySimTime-cityQuiesce {
				return
			}
			op := &cityOp{}
			ops = append(ops, op)
			opID := int32(len(ops))
			net.issue(id, opID, func() {
				net.peers[id].node.Discover(scenario.EntrySelector(), opts, func(r core.DiscoveryResult) {
					op.done, op.res = true, r
					net.endOp(id)
				})
			})
			net.eng.Schedule(cfg.QueryInterval, ask)
		}
		net.eng.Schedule(offset, ask)
	}
	net.eng.Run(citySimTime)

	out := &passOutcome{counters: map[string]float64{}}
	out.absorb(net)
	for _, op := range ops {
		out.attempted++
		out.wanted++
		if !op.done {
			out.failed++
			continue
		}
		// Only an answered discovery has a latency (first query → last
		// new entry, the paper's §VI-A reading); an unanswered one
		// lowers recall instead.
		if len(op.res.Entries) > 0 {
			out.opMs = append(out.opMs, float64(op.res.Latency)/float64(time.Millisecond))
		}
	}
	out.verify = func() error {
		for i, op := range ops {
			for _, d := range op.res.Entries {
				if !w.catalog[d.Key()] {
					return fmt.Errorf("op %d: discovered entry %s is not in the catalog", i, d)
				}
			}
			// Recall here is the paper's city reading: the share of
			// discoveries answered with at least one entry. An empty
			// two-hop neighbourhood is a property of the placement,
			// not a failed op, so it lowers recall and nothing else.
			if op.done && len(op.res.Entries) > 0 {
				out.delivered++
			}
		}
		return nil
	}
	return out, nil
}
