// Package workload is the generator-driven workload engine: it turns a
// compact, parseable workload spec into deterministic traffic against
// the PDS retrieval plane — an HLS-style segmented streaming session
// with pipelined prefetch and a playback QoE model, or a flash-crowd
// bulk-artifact distribution (layered blobs, Zipf popularity, Poisson
// or step-burst arrivals).
//
// Drivers run entirely on the caller's clock and RNG: the package never
// reads wall time or global randomness, so identical seeds produce
// identical schedules, metric rows and trace streams — the same
// contract the rest of the simulation core keeps.
package workload

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"pds/internal/core"
)

// Kind discriminates workload specs.
type Kind int

// Workload kinds.
const (
	// Stream is an HLS-style segmented streaming session.
	Stream Kind = iota + 1
	// Crowd is a flash-crowd bulk-artifact distribution.
	Crowd
)

// String returns the lowercase kind name used in the spec grammar.
func (k Kind) String() string {
	switch k {
	case Stream:
		return "stream"
	case Crowd:
		return "crowd"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// StreamSpec parametrizes a segmented streaming session.
type StreamSpec struct {
	// Segments is the number of fixed-duration segments (default 8).
	Segments int
	// SegmentDuration is each segment's play time (default 6s, the
	// common HLS target duration).
	SegmentDuration time.Duration
	// SegmentBytes is each segment's payload size (default 512 KB).
	SegmentBytes int
	// Prefetch is the pipeline depth: how many segments may be in
	// flight ahead of the playhead (default 2).
	Prefetch int
	// ChunkBytes is the chunk size segments split into (default 256 KB).
	ChunkBytes int
	// VOD publishes every segment at session start instead of on the
	// live producer timeline (one segment per SegmentDuration).
	VOD bool
}

func (s StreamSpec) withDefaults() StreamSpec {
	if s.Segments == 0 {
		s.Segments = 8
	}
	if s.SegmentDuration == 0 {
		s.SegmentDuration = 6 * time.Second
	}
	if s.SegmentBytes == 0 {
		s.SegmentBytes = 512 << 10
	}
	if s.Prefetch == 0 {
		s.Prefetch = 2
	}
	if s.ChunkBytes == 0 {
		s.ChunkBytes = core.DefaultChunkSize
	}
	return s
}

// ArrivalKind discriminates crowd arrival processes.
type ArrivalKind int

// Arrival processes.
const (
	// Poisson arrivals: exponential inter-arrival times.
	Poisson ArrivalKind = iota + 1
	// Step arrivals: a warmup trickle, then Count clients at once.
	Step
)

// ArrivalSpec is a crowd's client arrival process.
type ArrivalSpec struct {
	Kind ArrivalKind
	// Mean is the Poisson mean inter-arrival time.
	Mean time.Duration
	// At is the step burst's instant; Count is its size (clients not in
	// the burst trickle in uniformly over [0, At)).
	At    time.Duration
	Count int
}

// CrowdSpec parametrizes a flash-crowd bulk-artifact distribution:
// Items layered artifacts sharing one common base layer (container
// images sharing an OS layer), pulled by Clients whose artifact choice
// is Zipf-popular.
type CrowdSpec struct {
	// Items is the artifact catalog size (default 3).
	Items int
	// Layers per artifact, including the shared base layer (default 3).
	Layers int
	// LayerBytes is each layer's payload size (default 768 KB).
	LayerBytes int
	// Clients is how many nodes pull an artifact (default 12).
	Clients int
	// ZipfS is the artifact popularity exponent (default 1.2).
	ZipfS float64
	// ChunkBytes is the chunk size layers split into (default 256 KB).
	ChunkBytes int
	// Arrival is the client arrival process (default Poisson, 2s mean).
	Arrival ArrivalSpec
}

func (c CrowdSpec) withDefaults() CrowdSpec {
	if c.Items == 0 {
		c.Items = 3
	}
	if c.Layers == 0 {
		c.Layers = 3
	}
	if c.LayerBytes == 0 {
		c.LayerBytes = 768 << 10
	}
	if c.Clients == 0 {
		c.Clients = 12
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.2
	}
	if c.ChunkBytes == 0 {
		c.ChunkBytes = core.DefaultChunkSize
	}
	if c.Arrival.Kind == 0 {
		c.Arrival.Kind = Poisson
	}
	if c.Arrival.Kind == Poisson && c.Arrival.Mean == 0 {
		c.Arrival.Mean = 2 * time.Second
	}
	if c.Arrival.Kind == Step {
		if c.Arrival.At == 0 {
			c.Arrival.At = 10 * time.Second
		}
		if c.Arrival.Count == 0 || c.Arrival.Count > c.Clients {
			c.Arrival.Count = c.Clients
		}
	}
	return c
}

// Spec is one parsed workload: exactly one of Stream/Crowd is active,
// selected by Kind.
type Spec struct {
	Kind   Kind
	Stream StreamSpec
	Crowd  CrowdSpec
}

// WithDefaults fills zero fields with the grammar's defaults.
func (s Spec) WithDefaults() Spec {
	switch s.Kind {
	case Stream:
		s.Stream = s.Stream.withDefaults()
	case Crowd:
		s.Crowd = s.Crowd.withDefaults()
	}
	return s
}

// ParseSpec parses a compact workload spec (mirroring
// fault.ParsePlan's grammar style): a kind, a colon, and a
// comma-separated option list.
//
//	stream:segs=<n>,segdur=<dur>,segsize=<size>[,prefetch=<k>][,chunk=<size>][,vod]
//	crowd:items=<n>,layers=<n>,layersize=<size>[,clients=<n>][,zipf=<s>][,chunk=<size>][,arrival=poisson:<mean>|step:<at>/<count>]
//
// Durations use Go syntax ("6s", "500ms"); sizes are bytes with an
// optional KB/MB/GB suffix ("512KB", "2MB"). Every option is optional —
// "stream:" and "crowd:" (or the bare kind names) select the defaults.
// Examples:
//
//	stream:segs=16,segdur=4s,segsize=1MB,prefetch=3
//	stream:vod
//	crowd:items=8,layers=4,layersize=2MB,clients=24,arrival=step:10s/16
//	crowd:arrival=poisson:500ms
func ParseSpec(spec string) (Spec, error) {
	kindStr, rest, _ := strings.Cut(spec, ":")
	var out Spec
	switch strings.TrimSpace(kindStr) {
	case "stream":
		out.Kind = Stream
	case "crowd":
		out.Kind = Crowd
	default:
		return Spec{}, fmt.Errorf("workload: unknown kind %q (want stream or crowd)", kindStr)
	}
	for _, field := range strings.Split(rest, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, hasVal := strings.Cut(field, "=")
		var err error
		if out.Kind == Stream {
			err = parseStreamOption(&out.Stream, key, val, hasVal)
		} else {
			err = parseCrowdOption(&out.Crowd, key, val, hasVal)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("workload: option %q: %w", field, err)
		}
	}
	return out.WithDefaults(), nil
}

func parseStreamOption(s *StreamSpec, key, val string, hasVal bool) error {
	if key == "vod" {
		if hasVal {
			return fmt.Errorf("vod takes no value")
		}
		s.VOD = true
		return nil
	}
	if !hasVal {
		return fmt.Errorf("missing =<value>")
	}
	var err error
	switch key {
	case "segs":
		s.Segments, err = parseCount(val)
	case "segdur":
		s.SegmentDuration, err = parsePositiveDuration(val)
	case "segsize":
		s.SegmentBytes, err = parseSize(val)
	case "prefetch":
		s.Prefetch, err = parseCount(val)
	case "chunk":
		s.ChunkBytes, err = parseSize(val)
	default:
		return fmt.Errorf("unknown stream option %q", key)
	}
	return err
}

func parseCrowdOption(c *CrowdSpec, key, val string, hasVal bool) error {
	if !hasVal {
		return fmt.Errorf("missing =<value>")
	}
	var err error
	switch key {
	case "items":
		c.Items, err = parseCount(val)
	case "layers":
		c.Layers, err = parseCount(val)
	case "layersize":
		c.LayerBytes, err = parseSize(val)
	case "clients":
		c.Clients, err = parseCount(val)
	case "chunk":
		c.ChunkBytes, err = parseSize(val)
	case "zipf":
		c.ZipfS, err = strconv.ParseFloat(val, 64)
		if err == nil && c.ZipfS <= 1 {
			err = fmt.Errorf("zipf exponent %v must be > 1", c.ZipfS)
		}
	case "arrival":
		c.Arrival, err = parseArrival(val)
	default:
		return fmt.Errorf("unknown crowd option %q", key)
	}
	return err
}

func parseArrival(val string) (ArrivalSpec, error) {
	kind, rest, hasRest := strings.Cut(val, ":")
	switch kind {
	case "poisson":
		a := ArrivalSpec{Kind: Poisson}
		if hasRest {
			mean, err := parsePositiveDuration(rest)
			if err != nil {
				return ArrivalSpec{}, fmt.Errorf("poisson mean: %w", err)
			}
			a.Mean = mean
		}
		return a, nil
	case "step":
		a := ArrivalSpec{Kind: Step}
		if !hasRest {
			return a, nil
		}
		atStr, countStr, hasCount := strings.Cut(rest, "/")
		at, err := parsePositiveDuration(atStr)
		if err != nil {
			return ArrivalSpec{}, fmt.Errorf("step at: %w", err)
		}
		a.At = at
		if hasCount {
			if a.Count, err = parseCount(countStr); err != nil {
				return ArrivalSpec{}, fmt.Errorf("step count: %w", err)
			}
		}
		return a, nil
	default:
		return ArrivalSpec{}, fmt.Errorf("unknown arrival process %q (want poisson or step)", kind)
	}
}

// parseCount parses a positive integer.
func parseCount(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	if n <= 0 {
		return 0, fmt.Errorf("%d must be positive", n)
	}
	return n, nil
}

func parsePositiveDuration(s string) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d <= 0 {
		return 0, fmt.Errorf("%v must be positive", d)
	}
	return d, nil
}

// parseSize parses a byte size with an optional KB/MB/GB suffix.
func parseSize(s string) (int, error) {
	shift := 0
	switch {
	case strings.HasSuffix(s, "KB"):
		shift, s = 10, strings.TrimSuffix(s, "KB")
	case strings.HasSuffix(s, "MB"):
		shift, s = 20, strings.TrimSuffix(s, "MB")
	case strings.HasSuffix(s, "GB"):
		shift, s = 30, strings.TrimSuffix(s, "GB")
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	if n <= 0 {
		return 0, fmt.Errorf("size %d must be positive", n)
	}
	if shift > 0 && n > (1<<(40-shift)) {
		return 0, fmt.Errorf("size %s%s too large", s, map[int]string{10: "KB", 20: "MB", 30: "GB"}[shift])
	}
	return n << shift, nil
}
