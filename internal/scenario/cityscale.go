package scenario

import (
	"math"
	"math/rand"
	"time"

	"pds/internal/core"
	"pds/internal/metrics"
	"pds/internal/mobility"
	"pds/internal/radio"
)

// This file is the city-scale cap on the spatial-index / timing-wheel /
// dense-state core: a generator for populations two orders of magnitude
// beyond the paper's 10×10 grid, plus the throughput run behind
// `pds-bench scale`. Nothing here is a figure of the paper — it is the
// ROADMAP's "city-size swarms" north star made runnable and measurable.

// CityConfig sizes a city-scale deployment. Zero values select the
// defaults noted on each field.
type CityConfig struct {
	// Nodes is the population (default 10 000).
	Nodes int
	// AreaPerNode, in m² per node, sets the square world's size
	// (default 900 — the paper grid's 30 m spacing density, ~7 radio
	// neighbors per node).
	AreaPerNode float64
	// SpeedMin, SpeedMax bound waypoint walking speeds in m/s
	// (defaults 0.5 and 1.5 — pedestrian).
	SpeedMin, SpeedMax float64
	// PauseMin, PauseMax bound the pause at each waypoint (defaults 0
	// and 30s; zero PauseMin reproduces pre-PauseMin runs exactly).
	PauseMin time.Duration
	PauseMax time.Duration
	// StepInterval is the mobility batch period: every interval one
	// engine event advances the whole population and moves each walker
	// that moved through its radio (default 1s).
	StepInterval time.Duration
	// Items is the distinct content catalog size (default Nodes/10).
	Items int
	// Publishes is how many publish operations seed the catalog onto
	// nodes; items are drawn Zipf-popular, so hot content ends up
	// widely replicated (default 2×Items).
	Publishes int
	// ZipfS is the popularity exponent (default 1.2).
	ZipfS float64
	// Consumers is how many nodes issue discoveries (default 32).
	Consumers int
	// QueryInterval is each consumer's query period (default 60s).
	QueryInterval time.Duration
	// HopLimit scopes each discovery flood; city-scale queries are
	// neighborhood-scoped, not city-wide floods (default 2).
	HopLimit int
}

func (c CityConfig) withDefaults() CityConfig {
	if c.Nodes == 0 {
		c.Nodes = 10000
	}
	if c.AreaPerNode == 0 {
		c.AreaPerNode = 900
	}
	if c.SpeedMin == 0 {
		c.SpeedMin = 0.5
	}
	if c.SpeedMax == 0 {
		c.SpeedMax = 1.5
	}
	if c.PauseMax == 0 {
		c.PauseMax = 30 * time.Second
	}
	if c.StepInterval == 0 {
		c.StepInterval = time.Second
	}
	if c.Items == 0 {
		c.Items = c.Nodes / 10
		if c.Items < 100 {
			c.Items = 100
		}
	}
	if c.Publishes == 0 {
		c.Publishes = 2 * c.Items
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.2
	}
	if c.Consumers == 0 {
		c.Consumers = 32
	}
	if c.Consumers > c.Nodes {
		c.Consumers = c.Nodes
	}
	if c.QueryInterval == 0 {
		c.QueryInterval = time.Minute
	}
	if c.HopLimit == 0 {
		c.HopLimit = 2
	}
	return c
}

// Side returns the world's edge length in meters.
func (c CityConfig) Side() float64 {
	return math.Sqrt(float64(c.Nodes) * c.AreaPerNode)
}

// CityScale builds a city-scale deployment: cfg.Nodes peers placed by a
// random-waypoint model over a square sized for cfg.AreaPerNode, a
// Zipf-popular content catalog seeded across the population, and a
// single repeating engine event that advances all mobility once per
// StepInterval (the event queue stays proportional to time, not
// population). It returns the deployment and the waypoint model driving
// it.
func CityScale(cfg CityConfig, opts Options) (*Deployment, *mobility.Waypoint) {
	cfg = cfg.withDefaults()
	d, wp, walk := cityScale(cfg, opts)
	var step func()
	step = func() {
		walk()
		d.Eng.Schedule(cfg.StepInterval, step)
	}
	d.Eng.Schedule(cfg.StepInterval, step)
	return d, wp
}

// cityScale builds CityScale's deployment from a defaulted cfg and
// returns, instead of scheduling it, the body of one mobility step:
// advance every walker by StepInterval and move each one that moved
// through its radio.
func cityScale(cfg CityConfig, opts Options) (*Deployment, *mobility.Waypoint, func()) {
	d := New(opts)
	side := cfg.Side()
	wp := mobility.NewWaypointFromConfig(mobility.WaypointConfig{
		N: cfg.Nodes, Width: side, Height: side,
		SpeedMin: cfg.SpeedMin, SpeedMax: cfg.SpeedMax,
		PauseMin: cfg.PauseMin, PauseMax: cfg.PauseMax, FirstID: 1,
	}, rand.New(rand.NewSource(d.seed+21)))
	// Walker i moves through radios[i], the radio AddPeer attached for
	// it: no id is looked up while the city walks.
	radios := make([]*radio.Radio, cfg.Nodes)
	for i, pos := range wp.Positions() {
		radios[i] = d.AddPeer(wp.ID(i), pos).Radio
	}

	// Zipf content popularity: each publish drops one catalog item on
	// one uniform node; item indices are Zipf-drawn, so replica counts
	// follow popularity.
	zrng := rand.New(rand.NewSource(d.seed + 22))
	zipf := rand.NewZipf(zrng, cfg.ZipfS, 1, uint64(cfg.Items-1))
	for i := 0; i < cfg.Publishes; i++ {
		item := int(zipf.Uint64())
		id := wp.ID(zrng.Intn(cfg.Nodes))
		d.Peers[id].Node.PublishEntry(EntryDescriptor(item))
	}

	moves := make([]radio.Move, 0, cfg.Nodes)
	walk := func() {
		moves = wp.Step(cfg.StepInterval, moves[:0])
		for _, mv := range moves {
			i := mv.ID - wp.FirstID
			if !radios[i].MoveTo(mv.Pos) {
				// The walker's radio is detached: it crashed or left. A
				// restarted peer walks on with the radio it came back with.
				if p := d.Peers[mv.ID]; p != nil {
					radios[i] = p.Radio
					p.Radio.MoveTo(mv.Pos)
				}
			}
		}
	}
	return d, wp, walk
}

// CityResult is one CityRun's outcome: protocol-level metrics plus the
// simulator throughput numbers the scale figure records.
type CityResult struct {
	Nodes    int
	SimTime  time.Duration
	Wall     time.Duration
	Events   uint64 // engine events executed
	Queries  int    // discoveries issued
	Answered int    // discoveries that returned at least one entry
	Sample   metrics.Sample
	// NodeSecondsPerSec is simulated node-seconds per wall second —
	// the population-weighted speedup over real time.
	NodeSecondsPerSec float64
	// EventsPerSec is engine events executed per wall second.
	EventsPerSec float64
}

// CityRun executes the city-scale throughput scenario: CityScale's
// population under continuous waypoint mobility for the given simulated
// duration, with cfg.Consumers nodes issuing HopLimit-scoped
// discoveries every QueryInterval. It reports recall as the fraction of
// discoveries answered with at least one entry, mean latency and rounds
// over answered discoveries, and the nodes/sec and events/sec
// throughput of the simulation core.
func CityRun(cfg CityConfig, duration time.Duration, seed int64) CityResult {
	cfg = cfg.withDefaults()
	d, wp := CityScale(cfg, Options{Seed: seed})

	var (
		queries  int
		answered int
		totalLat time.Duration
		rounds   float64
	)
	// Consumers are spread evenly over the id space; each re-queries on
	// its own fixed period, offset by index so queries stagger instead
	// of synchronizing into bursts.
	for ci := 0; ci < cfg.Consumers; ci++ {
		id := wp.ID(ci * cfg.Nodes / cfg.Consumers)
		offset := time.Duration(ci) * cfg.QueryInterval / time.Duration(cfg.Consumers)
		var ask func()
		ask = func() {
			queries++
			d.Peers[id].Node.Discover(EntrySelector(),
				core.DiscoverOptions{HopLimit: cfg.HopLimit},
				func(res core.DiscoveryResult) {
					if len(res.Entries) > 0 {
						answered++
						totalLat += res.Latency
						rounds += float64(res.Rounds)
					}
				})
			d.Eng.Schedule(cfg.QueryInterval, ask)
		}
		d.Eng.Schedule(offset, ask)
	}

	// The wall-clock reads below time the simulator itself for the
	// throughput report; they never feed back into simulated behavior,
	// so same-seed runs stay byte-identical on every metric row.
	//lint:allow determinism wall-clock here measures simulator throughput, never simulated behavior
	start := time.Now()
	d.Eng.Run(duration)
	//lint:allow determinism wall-clock here measures simulator throughput, never simulated behavior
	wall := time.Since(start)

	res := CityResult{
		Nodes:   cfg.Nodes,
		SimTime: duration,
		Wall:    wall,
		Events:  d.Eng.Processed(),
		Queries: queries,
	}
	res.Answered = answered
	res.Sample = metrics.Sample{
		Recall:        safeDiv(float64(answered), float64(queries)),
		OverheadBytes: d.Medium.Stats().TxBytes,
	}
	if answered > 0 {
		res.Sample.Latency = totalLat / time.Duration(answered)
		res.Sample.Rounds = rounds / float64(answered)
	}
	if ws := wall.Seconds(); ws > 0 {
		res.NodeSecondsPerSec = float64(cfg.Nodes) * duration.Seconds() / ws
		res.EventsPerSec = float64(res.Events) / ws
	}
	return res
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
