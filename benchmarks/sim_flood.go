package main

import (
	"fmt"
	"math/rand"
	"time"

	"pds/internal/attr"
	"pds/internal/core"
	"pds/internal/scenario"
	"pds/internal/wire"
)

// sim-pdd-flood sizing. The pass is sized to ~4 s on the 2-core build
// box (see README "Sizing"); resizing is its own benchmark PR.
const (
	floodRows, floodCols = 10, 10
	floodSeeds           = 4   // independent deployments per pass
	floodEntries         = 200 // entries seeded before the first wave (redundancy 1)
	floodWaves           = 4   // waves of simultaneous Discovers per deployment
	floodConsumers       = 5   // simultaneous Discovers per wave, distinct consumers
	floodPublishers      = 10  // nodes publishing between waves
	floodFresh           = 4   // fresh entries per publisher per gap
	floodMargin          = 2   // consumers keep this many cells from the grid's edge
	floodWaveDeadline    = 10 * time.Minute
)

type floodWave struct {
	consumers  []wire.NodeID
	publishers []wire.NodeID // who publishes after this wave
}

type floodDeployment struct {
	engineSeed int64
	owners     []wire.NodeID // initial entry index → node that owns it
	waves      []floodWave
}

// floodWorkload is the metadata plane, cold then warm, reads beside
// writes: waves of simultaneous discoveries over a grid whose catalog
// keeps growing between waves.
type floodWorkload struct {
	replicas [maxReplicas][]floodDeployment
	descs    []attr.Descriptor // every entry any deployment publishes, by index
	keyIndex map[string]int
}

func (w *floodWorkload) name() string    { return "sim-pdd-flood" }
func (w *floodWorkload) simulated() bool { return true }
func (w *floodWorkload) minPasses() int  { return 3 }
func (w *floodWorkload) why() string {
	return "metadata plane, cold then warm, reads beside writes: core.serveQueries/store.Match, Bloom rewriting and key sorting dominate; the wheel and the soft-state poll do almost nothing"
}

func (w *floodWorkload) storeShape() (int, attr.Query) {
	return floodEntries + (floodWaves-1)*floodPublishers*floodFresh, scenario.EntrySelector()
}

func (w *floodWorkload) generate(seed int64) {
	total := floodEntries + floodWaves*floodPublishers*floodFresh
	w.descs = make([]attr.Descriptor, total)
	w.keyIndex = make(map[string]int, total)
	for i := range w.descs {
		w.descs[i] = scenario.EntryDescriptor(i)
		w.keyIndex[w.descs[i].Key()] = i
	}
	for r := range w.replicas {
		w.replicas[r] = make([]floodDeployment, floodSeeds)
		for s := range w.replicas[r] {
			w.replicas[r][s] = floodPlan(subSeed(seed, r*floodSeeds+s))
		}
	}
}

// floodPlan lays out one deployment: who owns what, who asks when.
func floodPlan(seed int64) floodDeployment {
	const nodes = floodRows * floodCols
	rng := rand.New(rand.NewSource(seed))
	d := floodDeployment{engineSeed: rng.Int63()}
	// Owners are dealt, not drawn: every node owns the same number of
	// entries (±1), which ones is the seed's choice.
	d.owners = make([]wire.NodeID, floodEntries)
	deal := rng.Perm(nodes)
	for i := range d.owners {
		d.owners[i] = wire.NodeID(deal[i%nodes] + 1)
	}
	// Consumers come from the grid's interior, where every node has its
	// 8 neighbours, and no node consumes twice in a deployment; which
	// interior nodes, and in which wave, is the seed's choice.
	inner := interiorNodes(floodRows, floodCols, floodMargin)
	rng.Shuffle(len(inner), func(i, j int) { inner[i], inner[j] = inner[j], inner[i] })
	for v := 0; v < floodWaves; v++ {
		wave := floodWave{consumers: inner[v*floodConsumers : (v+1)*floodConsumers]}
		for _, p := range rng.Perm(nodes)[:floodPublishers] {
			wave.publishers = append(wave.publishers, wire.NodeID(p+1))
		}
		d.waves = append(d.waves, wave)
	}
	return d
}

// interiorNodes lists the ids of a rows×cols grid's nodes at least
// margin cells from every edge (ids are 1-based, row-major).
func interiorNodes(rows, cols, margin int) []wire.NodeID {
	var ids []wire.NodeID
	for r := margin; r < rows-margin; r++ {
		for c := margin; c < cols-margin; c++ {
			ids = append(ids, wire.NodeID(r*cols+c+1))
		}
	}
	return ids
}

// floodOp is one Discover's raw result, kept for post-pass checking.
type floodOp struct {
	done      bool
	published int // entries published when the op was issued
	res       core.DiscoveryResult
}

func (w *floodWorkload) pass(tc *traceCtx, replica int) (*passOutcome, error) {
	out := &passOutcome{counters: map[string]float64{}}
	var ops []*floodOp
	for _, dep := range w.replicas[replica] {
		net := newGrid(floodRows, floodCols, dep.engineSeed, tc)
		net.api(0, func() {
			for i, owner := range dep.owners {
				net.peers[owner].node.PublishEntry(w.descs[i])
			}
		})
		published := floodEntries
		for _, wave := range dep.waves {
			pending := len(wave.consumers)
			for _, c := range wave.consumers {
				op := &floodOp{published: published}
				ops = append(ops, op)
				id := int32(len(ops))
				net.issue(c, id, func() {
					net.peers[c].node.Discover(scenario.EntrySelector(), core.DiscoverOptions{}, func(r core.DiscoveryResult) {
						op.done, op.res = true, r
						pending--
						net.endOp(c)
					})
				})
			}
			net.eng.RunUntil(net.eng.Now()+floodWaveDeadline, func() bool { return pending == 0 })
			// Writes beside reads: the gap's publishers each add fresh
			// entries that every later wave must find. Ownership of the
			// fresh block is dealt round-robin over the publishers.
			lo, hi := published, published+floodPublishers*floodFresh
			net.api(0, func() {
				for i := lo; i < hi; i++ {
					net.peers[wave.publishers[(i-lo)%floodPublishers]].node.PublishEntry(w.descs[i])
				}
			})
			published = hi
		}
		out.absorb(net)
	}
	for _, op := range ops {
		out.attempted++
		out.wanted += uint64(op.published)
		if !op.done {
			out.failed++
			continue
		}
		out.opMs = append(out.opMs, float64(op.res.Latency)/float64(time.Millisecond))
	}
	out.verify = func() error {
		for i, op := range ops {
			if !op.done {
				continue
			}
			seen := make(map[int]bool, len(op.res.Entries))
			for _, d := range op.res.Entries {
				idx, ok := w.keyIndex[d.Key()]
				if !ok {
					return fmt.Errorf("op %d: discovered entry %s was never published", i, d)
				}
				if idx >= op.published {
					return fmt.Errorf("op %d: discovered entry %d before it was published", i, idx)
				}
				if seen[idx] {
					return fmt.Errorf("op %d: entry %d delivered twice in one result", i, idx)
				}
				seen[idx] = true
			}
			out.delivered += uint64(len(seen))
			if len(seen) == 0 {
				out.failed++
			}
		}
		return nil
	}
	return out, nil
}
