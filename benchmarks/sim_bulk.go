package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"time"

	"pds/internal/attr"
	"pds/internal/core"
	"pds/internal/scenario"
	"pds/internal/wire"
)

// sim-pdr-bulk sizing (see README "Sizing").
const (
	bulkRows, bulkCols = 10, 10
	bulkSeeds          = 4          // independent deployments per pass
	bulkItemBytes      = 2560 << 10 // one 2.5 MB item per deployment, 256 KB chunks
	bulkCold           = 5          // simultaneous Retrieves against empty caches
	bulkWarm           = 4          // further consumers, two at a time, against warmed caches
	bulkMargin         = 2          // consumers keep this many cells from the grid's edge
	bulkStepDeadline   = 30 * time.Minute
)

type bulkDeployment struct {
	engineSeed int64
	owners     []wire.NodeID   // chunk id → node that owns it
	steps      [][]wire.NodeID // consumers issued together, in order
}

// bulkWorkload is the payload plane: large chunked retrievals over the
// same link/radio/wire/store layers the flood uses, with almost no
// entry/Bloom work.
type bulkWorkload struct {
	payload  []byte
	sum      [sha256.Size]byte
	item     attr.Descriptor
	replicas [maxReplicas][]bulkDeployment
}

func (w *bulkWorkload) name() string    { return "sim-pdr-bulk" }
func (w *bulkWorkload) simulated() bool { return true }
func (w *bulkWorkload) minPasses() int  { return 3 }
func (w *bulkWorkload) why() string {
	return "payload plane: ~190 fragments per 256 KB chunk, ARQ windows, payload cache puts/gets, assign and recursive sub-queries, cold then warmed caches; almost no entry/Bloom work"
}

func (w *bulkWorkload) storeShape() (int, attr.Query) {
	return w.item.TotalChunks(), scenario.EntrySelector()
}

func (w *bulkWorkload) generate(seed int64) {
	w.payload = make([]byte, bulkItemBytes)
	rand.New(rand.NewSource(subSeed(seed, -1))).Read(w.payload)
	w.sum = sha256.Sum256(w.payload)
	w.item = scenario.ItemDescriptor(fmt.Sprintf("clip-%d", seed), bulkItemBytes, scenario.DefaultChunkSize)
	for r := range w.replicas {
		w.replicas[r] = make([]bulkDeployment, bulkSeeds)
		for s := range w.replicas[r] {
			w.replicas[r][s] = bulkPlan(subSeed(seed, r*bulkSeeds+s), w.item.TotalChunks())
		}
	}
}

// bulkPlan lays out one deployment: who owns which chunk, who
// retrieves when.
func bulkPlan(seed int64, chunks int) bulkDeployment {
	const nodes = bulkRows * bulkCols
	rng := rand.New(rand.NewSource(seed))
	d := bulkDeployment{engineSeed: rng.Int63()}
	// Chunk owners are dealt without replacement (one chunk per node),
	// consumers come from the grid's interior and never repeat; which
	// nodes is the seed's choice.
	d.owners = make([]wire.NodeID, chunks)
	deal := rng.Perm(nodes)
	for c := range d.owners {
		d.owners[c] = wire.NodeID(deal[c%nodes] + 1)
	}
	inner := interiorNodes(bulkRows, bulkCols, bulkMargin)
	rng.Shuffle(len(inner), func(i, j int) { inner[i], inner[j] = inner[j], inner[i] })
	d.steps = append(d.steps, inner[:bulkCold])
	inner = inner[bulkCold:]
	for i := 0; i < bulkWarm; i += 2 {
		d.steps = append(d.steps, inner[i:i+2])
	}
	return d
}

func (w *bulkWorkload) chunk(c int) []byte {
	lo := c * scenario.DefaultChunkSize
	hi := min(lo+scenario.DefaultChunkSize, len(w.payload))
	return w.payload[lo:hi]
}

type bulkOp struct {
	done bool
	res  core.RetrievalResult
}

func (w *bulkWorkload) pass(tc *traceCtx, replica int) (*passOutcome, error) {
	out := &passOutcome{counters: map[string]float64{}}
	total := w.item.TotalChunks()
	var ops []*bulkOp
	for _, dep := range w.replicas[replica] {
		net := newGrid(bulkRows, bulkCols, dep.engineSeed, tc)
		net.api(0, func() {
			for c, owner := range dep.owners {
				net.peers[owner].node.PublishChunk(w.item, c, w.chunk(c))
			}
		})
		for _, step := range dep.steps {
			pending := len(step)
			for _, c := range step {
				op := &bulkOp{}
				ops = append(ops, op)
				id := int32(len(ops))
				net.issue(c, id, func() {
					net.peers[c].node.Retrieve(w.item, func(r core.RetrievalResult) {
						op.done, op.res = true, r
						pending--
						net.endOp(c)
					})
				})
			}
			net.eng.RunUntil(net.eng.Now()+bulkStepDeadline, func() bool { return pending == 0 })
		}
		out.absorb(net)
	}
	for _, op := range ops {
		out.attempted++
		out.wanted += uint64(total)
		if !op.done || !op.res.Complete {
			out.failed++
		}
		if op.done {
			out.opMs = append(out.opMs, float64(op.res.Latency)/float64(time.Millisecond))
		}
	}
	out.verify = func() error {
		for i, op := range ops {
			if !op.done {
				continue
			}
			for c, got := range op.res.Chunks {
				if c < 0 || c >= total {
					return fmt.Errorf("op %d: retrieved chunk %d of a %d-chunk item", i, c, total)
				}
				if !bytes.Equal(got, w.chunk(c)) {
					return fmt.Errorf("op %d: chunk %d bytes differ from what was published", i, c)
				}
				out.delivered++
			}
			if op.res.Complete {
				whole, ok := op.res.Assemble()
				if !ok || sha256.Sum256(whole) != w.sum {
					return fmt.Errorf("op %d: assembled item hash differs from the published item", i)
				}
			}
		}
		return nil
	}
	return out, nil
}
