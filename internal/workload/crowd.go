package workload

import (
	"fmt"
	"math/rand"
	"time"

	"pds/internal/attr"
	"pds/internal/clock"
	"pds/internal/core"
	"pds/internal/metrics"
	"pds/internal/trace"
)

// Artifact is one layered blob in a crowd catalog. Layer 0 is the
// shared base layer: every artifact of a catalog names the same
// descriptor there (container images sharing an OS layer), so a crowd
// pulling different artifacts still overlaps on it.
type Artifact struct {
	Index  int
	Layers []attr.Descriptor
}

func layerDescriptor(name string, spec CrowdSpec) func(artifact, layer int) attr.Descriptor {
	total := int64(ChunkCount(spec.LayerBytes, spec.ChunkBytes))
	return func(artifact, layer int) attr.Descriptor {
		label := fmt.Sprintf("%s/base", name)
		if layer > 0 {
			label = fmt.Sprintf("%s/a%02d/l%02d", name, artifact, layer)
		}
		return attr.NewDescriptor().
			Set(attr.AttrNamespace, attr.String("artifact")).
			Set(attr.AttrDataType, attr.String("layer")).
			Set(attr.AttrName, attr.String(label)).
			Set(attr.AttrTotalChunks, attr.Int(total))
	}
}

// BuildCatalog builds the spec's artifact catalog under the given name.
func BuildCatalog(name string, spec CrowdSpec) []Artifact {
	spec = spec.withDefaults()
	desc := layerDescriptor(name, spec)
	cat := make([]Artifact, spec.Items)
	for a := range cat {
		cat[a].Index = a
		cat[a].Layers = make([]attr.Descriptor, spec.Layers)
		for l := 0; l < spec.Layers; l++ {
			cat[a].Layers[l] = desc(a, l)
		}
	}
	return cat
}

// PublishCatalog publishes every distinct layer of the catalog once
// through pub (the shared base layer is published a single time).
func PublishCatalog(cat []Artifact, spec CrowdSpec, pub PublishFunc) {
	spec = spec.withDefaults()
	total := ChunkCount(spec.LayerBytes, spec.ChunkBytes)
	for a, art := range cat {
		for l, item := range art.Layers {
			if l == 0 && a > 0 {
				continue // shared base layer, already published
			}
			for c := 0; c < total; c++ {
				pub(item, c, ChunkPayload(spec.LayerBytes, spec.ChunkBytes, c))
			}
		}
	}
}

// CrowdClient is one pulling node: its retrieval plane and optional
// tracer.
type CrowdClient struct {
	R      *core.Node
	Tracer *trace.NodeTracer
}

// CrowdResult is one finished flash-crowd run.
type CrowdResult struct {
	// QoE maps crowd measures onto the shared counters: StartupDelay is
	// the mean time to first completed layer, percentiles pool every
	// layer-retrieval latency, DeadlineMisses counts layers that never
	// completed, and the byte fields attribute delivered payload.
	QoE metrics.QoECounters
	// LayersComplete / LayersTotal count layer retrievals.
	LayersComplete int
	LayersTotal    int
	// ClientsComplete counts clients that obtained their full artifact.
	ClientsComplete int
	// MeanCompletion is the mean arrival-to-full-artifact time over
	// complete clients.
	MeanCompletion time.Duration
	// Rounds is the mean request rounds per completed layer.
	Rounds float64
}

// CrowdSession drives one flash-crowd distribution: clients arrive per
// the spec's arrival process, each picks a Zipf-popular artifact and
// pulls all its layers concurrently (request windows shrunk so one
// client imposes one foreground retrieval's load).
type CrowdSession struct {
	clk   clock.Clock
	spec  CrowdSpec
	endAt time.Duration

	resolved int
	total    int

	lat        metrics.Pool
	startupSum time.Duration
	startupN   int
	complSum   time.Duration
	complete   int
	layersOK   int
	missed     int
	roundsSum  int
	localB     uint64
	p2pB       uint64
}

// clientState tracks one client's progress across its layers.
type clientState struct {
	arrived  time.Duration
	pending  int
	allOK    bool
	firstLat bool
}

// StartCrowd begins a flash-crowd run on clk and returns it. Artifact
// choices and Poisson draws come from rng in client-index order, so a
// fixed seed fixes the whole schedule. budget bounds the run; drive the
// clock until Done() then read Result(). The catalog's layers must
// already be published (see PublishCatalog).
func StartCrowd(clk clock.Clock, spec CrowdSpec, cat []Artifact, clients []CrowdClient,
	rng *rand.Rand, budget time.Duration) *CrowdSession {
	spec = spec.withDefaults()
	s := &CrowdSession{
		clk: clk, spec: spec,
		endAt: clk.Now() + budget,
		total: len(clients) * spec.Layers,
	}
	// Per-layer politeness: a client pulling L layers at once gets one
	// foreground retrieval's aggregate window.
	window := core.OutstandingChunks / spec.Layers
	if window < 1 {
		window = 1
	}

	// Draw the whole schedule up front, in client index order.
	choices := make([]int, len(clients))
	var zipf *rand.Zipf
	if len(cat) > 1 {
		zipf = rand.NewZipf(rng, spec.ZipfS, 1, uint64(len(cat)-1))
	}
	for i := range choices {
		if zipf != nil {
			choices[i] = int(zipf.Uint64())
		}
	}
	arrivals := make([]time.Duration, len(clients))
	switch spec.Arrival.Kind {
	case Step:
		burst := spec.Arrival.Count
		if burst > len(clients) {
			burst = len(clients)
		}
		lead := len(clients) - burst
		for i := range arrivals {
			if i >= lead {
				arrivals[i] = spec.Arrival.At
			} else {
				// Warmup trickle, evenly spaced over [0, At).
				arrivals[i] = spec.Arrival.At * time.Duration(i) / time.Duration(lead)
			}
		}
	default: // Poisson
		var t time.Duration
		for i := range arrivals {
			t += expo(rng, spec.Arrival.Mean)
			arrivals[i] = t
		}
	}

	for i := range clients {
		cl := clients[i]
		art := cat[choices[i]]
		at := arrivals[i]
		clk.Schedule(at, func() { s.arrive(cl, art, window) })
	}
	return s
}

// expo draws an exponential inter-arrival time with the given mean.
func expo(rng *rand.Rand, mean time.Duration) time.Duration {
	return time.Duration(rng.ExpFloat64() * float64(mean))
}

func (s *CrowdSession) arrive(cl CrowdClient, art Artifact, window int) {
	now := s.clk.Now()
	st := &clientState{arrived: now, pending: len(art.Layers), allOK: true}
	budget := s.endAt - now
	if budget <= 0 {
		budget = time.Millisecond
	}
	for l, item := range art.Layers {
		layer, it := l, item
		label := item.Name()
		cl.Tracer.PrefetchIssued(layer, len(art.Layers), label)
		arrived := 0
		opts := core.RetrieveOptions{
			Deadline:          budget,
			Progress:          func(done, total int) { arrived++ },
			OutstandingChunks: window,
		}
		cl.R.RetrieveWithOptions(it, opts, func(r core.RetrievalResult) {
			s.layerDone(cl, st, layer, label, arrived, r)
		})
	}
}

func (s *CrowdSession) layerDone(cl CrowdClient, st *clientState, layer int,
	label string, arrivalChunks int, r core.RetrievalResult) {
	now := s.clk.Now()
	s.resolved++
	st.pending--

	delivered := 0
	total := r.Item.TotalChunks()
	for c := 0; c < total; c++ {
		delivered += len(r.Chunks[c])
	}
	localChunks := len(r.Chunks) - arrivalChunks
	if localChunks < 0 {
		localChunks = 0
	}
	localBytes := localChunks * s.spec.ChunkBytes
	if localBytes > delivered {
		localBytes = delivered
	}
	s.localB += uint64(localBytes)
	s.p2pB += uint64(delivered - localBytes)

	if r.Complete {
		s.layersOK++
		s.roundsSum += r.Rounds
		s.lat.AddDuration(now - st.arrived)
		if !st.firstLat {
			st.firstLat = true
			s.startupSum += now - st.arrived
			s.startupN++
		}
	} else {
		s.missed++
		st.allOK = false
		cl.Tracer.SegmentDeadlineMiss(layer, 0, label)
	}
	if st.pending == 0 && st.allOK {
		s.complete++
		s.complSum += now - st.arrived
	}
}

// Done reports whether every client's every layer has resolved.
func (s *CrowdSession) Done() bool { return s.resolved == s.total }

// Result aggregates the run. Call once, after Done() (or after the
// session budget elapsed).
func (s *CrowdSession) Result() CrowdResult {
	q := metrics.QoECounters{
		DeadlineMisses: uint64(s.missed),
		LocalBytes:     s.localB,
		P2PBytes:       s.p2pB,
	}
	if s.startupN > 0 {
		q.StartupDelay = s.startupSum / time.Duration(s.startupN)
	}
	if s.lat.Len() > 0 {
		q.P50 = s.lat.PercentileDuration(0.50)
		q.P95 = s.lat.PercentileDuration(0.95)
		q.P99 = s.lat.PercentileDuration(0.99)
	}
	q.SyncSeconds()
	out := CrowdResult{
		QoE:             q,
		LayersComplete:  s.layersOK,
		LayersTotal:     s.total,
		ClientsComplete: s.complete,
	}
	if s.complete > 0 {
		out.MeanCompletion = s.complSum / time.Duration(s.complete)
	}
	if s.layersOK > 0 {
		out.Rounds = float64(s.roundsSum) / float64(s.layersOK)
	}
	return out
}
