package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != (Sample{}) {
		t.Fatalf("Mean(nil) = %+v", got)
	}
}

func TestMean(t *testing.T) {
	got := Mean([]Sample{
		{Recall: 1.0, Latency: 2 * time.Second, OverheadBytes: 100, Rounds: 2},
		{Recall: 0.5, Latency: 4 * time.Second, OverheadBytes: 300, Rounds: 4},
	})
	if got.Recall != 0.75 {
		t.Fatalf("Recall = %v", got.Recall)
	}
	if got.Latency != 3*time.Second {
		t.Fatalf("Latency = %v", got.Latency)
	}
	if got.OverheadBytes != 200 {
		t.Fatalf("Overhead = %v", got.OverheadBytes)
	}
	if got.Rounds != 3 {
		t.Fatalf("Rounds = %v", got.Rounds)
	}
}

func TestFormatters(t *testing.T) {
	if got := MB(5_130_000); got != "5.13MB" {
		t.Fatalf("MB = %q", got)
	}
	if got := Seconds(5600 * time.Millisecond); got != "5.6s" {
		t.Fatalf("Seconds = %q", got)
	}
}

func TestSeriesString(t *testing.T) {
	s := &Series{Name: "test"}
	s.Add(1, "one", Sample{Recall: 0.5, Latency: time.Second, OverheadBytes: 1e6})
	s.Add(2, "", Sample{Recall: 1})
	out := s.String()
	for _, want := range []string{"test", "one", "0.500", "1.0s", "1.00MB", "2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("series output missing %q:\n%s", want, out)
		}
	}
}

func TestQuantile(t *testing.T) {
	vals := []float64{4, 1, 3, 2}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75},
	}
	for _, tt := range tests {
		if got := Quantile(vals, tt.q); math.Abs(got-tt.want) > 1e-9 {
			t.Fatalf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("Quantile(nil) != 0")
	}
	// Input must not be mutated.
	if vals[0] != 4 {
		t.Fatal("Quantile sorted the input in place")
	}
}

func TestPoolPercentiles(t *testing.T) {
	var p Pool
	if p.Percentile(0.5) != 0 || p.Mean() != 0 {
		t.Fatalf("empty pool should yield zeros")
	}
	for i := 1; i <= 100; i++ {
		p.Add(float64(i))
	}
	if p.Len() != 100 {
		t.Fatalf("Len = %d", p.Len())
	}
	if got := p.Percentile(0.50); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("P50 = %v", got)
	}
	if got := p.Percentile(0.95); math.Abs(got-95.05) > 1e-9 {
		t.Fatalf("P95 = %v", got)
	}
	if got := p.Percentile(0.99); math.Abs(got-99.01) > 1e-9 {
		t.Fatalf("P99 = %v", got)
	}
	if got := p.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("Mean = %v", got)
	}
	var q Pool
	q.AddDuration(2 * time.Second)
	for i := 1; i <= 100; i++ {
		q.Add(float64(i))
	}
	if q.Len() != 101 {
		t.Fatalf("merged Len = %d", q.Len())
	}
	if got := q.PercentileDuration(0); got != 1*time.Second {
		t.Fatalf("PercentileDuration(0) = %v", got)
	}
}

func TestPoolPercentileUnsorted(t *testing.T) {
	var p Pool
	for _, v := range []float64{9, 1, 5, 3, 7} {
		p.Add(v)
	}
	if got := p.Percentile(0.50); got != 5 {
		t.Fatalf("P50 = %v", got)
	}
	if got := p.Percentile(1); got != 9 {
		t.Fatalf("P100 = %v", got)
	}
}

func TestMeanQoE(t *testing.T) {
	// QoE-free samples keep the pointer nil so pre-workload rows render
	// byte-identically.
	if got := Mean([]Sample{{Recall: 1}}); got.QoE != nil {
		t.Fatalf("QoE should stay nil without QoE samples")
	}
	got := Mean([]Sample{
		{QoE: &QoECounters{
			StartupDelay: 2 * time.Second, Stalls: 2, StallTime: 4 * time.Second,
			RebufferRatio: 0.2, P50: time.Second, P95: 2 * time.Second, P99: 4 * time.Second,
			DeadlineMisses: 2, LocalBytes: 100, P2PBytes: 300,
		}},
		{QoE: &QoECounters{
			StartupDelay: 4 * time.Second, Stalls: 4, StallTime: 8 * time.Second,
			RebufferRatio: 0.4, P50: 3 * time.Second, P95: 4 * time.Second, P99: 8 * time.Second,
			DeadlineMisses: 4, LocalBytes: 300, P2PBytes: 500,
		}},
		{Recall: 1}, // no QoE: must not dilute the QoE average
	})
	q := got.QoE
	if q == nil {
		t.Fatalf("QoE nil after QoE samples")
	}
	if q.StartupDelay != 3*time.Second || q.Stalls != 3 || q.StallTime != 6*time.Second {
		t.Fatalf("startup/stalls = %+v", q)
	}
	if math.Abs(q.RebufferRatio-0.3) > 1e-9 {
		t.Fatalf("RebufferRatio = %v", q.RebufferRatio)
	}
	if q.P50 != 2*time.Second || q.P95 != 3*time.Second || q.P99 != 6*time.Second {
		t.Fatalf("percentiles = %+v", q)
	}
	if q.DeadlineMisses != 3 || q.LocalBytes != 200 || q.P2PBytes != 400 {
		t.Fatalf("misses/bytes = %+v", q)
	}
	if q.P99Sec != 6 {
		t.Fatalf("P99Sec not synced: %v", q.P99Sec)
	}
}

func TestSeriesStringQoESuffix(t *testing.T) {
	s := &Series{Name: "qoe"}
	s.Add(1, "clean", Sample{Recall: 1, QoE: &QoECounters{
		StartupDelay: 1500 * time.Millisecond, Stalls: 1, StallTime: 2 * time.Second,
		RebufferRatio: 0.25, P99: 3 * time.Second, P2PBytes: 1e6,
	}})
	out := s.String()
	for _, want := range []string{"startup=1.5s", "stalls=1", "rebuf=0.2500", "p99=3.0s", "p2p=1.00MB"} {
		if !strings.Contains(out, want) {
			t.Fatalf("QoE suffix missing %q:\n%s", want, out)
		}
	}
	// A QoE-free series must render exactly as before the suffix existed.
	plain := &Series{Name: "plain"}
	plain.Add(1, "x", Sample{Recall: 0.5})
	if strings.Contains(plain.String(), "startup=") {
		t.Fatalf("plain series grew a QoE suffix:\n%s", plain.String())
	}
}

func TestQoECountersAny(t *testing.T) {
	if Any(QoECounters{}) {
		t.Fatalf("zero QoE should not be Any")
	}
	if !Any(QoECounters{Stalls: 1}) || !Any(QoECounters{P2PBytes: 1}) {
		t.Fatalf("non-zero QoE should be Any")
	}
}

// handMean is the hand-written Mean the fold replaced, field for field,
// kept as the reference TestMeanMatchesHandWritten holds the fold to:
// every row a figure renders from Mean must come out bit for bit.
func handMean(samples []Sample) Sample {
	if len(samples) == 0 {
		return Sample{}
	}
	var out Sample
	var lat float64
	var disk DiskCounters
	var qoe QoECounters
	var strat StrategyCounters
	diskRuns, qoeRuns, stratRuns := uint64(0), uint64(0), uint64(0)
	for _, s := range samples {
		out.Recall += s.Recall
		lat += float64(s.Latency)
		out.OverheadBytes += s.OverheadBytes
		out.Rounds += s.Rounds
		out.Faults.BurstsEntered += s.Faults.BurstsEntered
		out.Faults.Crashes += s.Faults.Crashes
		out.Faults.CorruptFrames += s.Faults.CorruptFrames
		out.Faults.BlacklistHits += s.Faults.BlacklistHits
		if d := s.Disk; d != nil {
			disk.Segments += d.Segments
			disk.LiveBytes += d.LiveBytes
			disk.DeadBytes += d.DeadBytes
			disk.BytesWritten += d.BytesWritten
			disk.Compactions += d.Compactions
			disk.SpillWrites += d.SpillWrites
			disk.SpillLoads += d.SpillLoads
			disk.RecoveredRecords += d.RecoveredRecords
			disk.SkippedRecords += d.SkippedRecords
			diskRuns++
		}
		if q := s.QoE; q != nil {
			qoe.StartupDelay += q.StartupDelay
			qoe.Stalls += q.Stalls
			qoe.StallTime += q.StallTime
			qoe.RebufferRatio += q.RebufferRatio
			qoe.P50 += q.P50
			qoe.P95 += q.P95
			qoe.P99 += q.P99
			qoe.DeadlineMisses += q.DeadlineMisses
			qoe.LocalBytes += q.LocalBytes
			qoe.P2PBytes += q.P2PBytes
			qoe.EdgeBytes += q.EdgeBytes
			qoe.OriginBytes += q.OriginBytes
			qoeRuns++
		}
		if st := s.Strategy; st != nil {
			if strat.Routing == "" {
				strat.Routing = st.Routing
			}
			if strat.Caching == "" {
				strat.Caching = st.Caching
			}
			strat.AdvertFloods += st.AdvertFloods
			strat.AdvertsHeld += st.AdvertsHeld
			strat.FallbackRoutes += st.FallbackRoutes
			strat.CacheAdmitSkips += st.CacheAdmitSkips
			stratRuns++
		}
	}
	n := float64(len(samples))
	out.Recall /= n
	out.Latency = time.Duration(lat / n)
	out.OverheadBytes = uint64(float64(out.OverheadBytes) / n)
	out.Rounds /= n
	un := uint64(len(samples))
	out.Faults.BurstsEntered /= un
	out.Faults.Crashes /= un
	out.Faults.CorruptFrames /= un
	out.Faults.BlacklistHits /= un
	if diskRuns > 0 {
		disk.Segments /= diskRuns
		disk.LiveBytes /= diskRuns
		disk.DeadBytes /= diskRuns
		disk.BytesWritten /= diskRuns
		disk.Compactions /= diskRuns
		disk.SpillWrites /= diskRuns
		disk.SpillLoads /= diskRuns
		disk.RecoveredRecords /= diskRuns
		disk.SkippedRecords /= diskRuns
		out.Disk = &disk
	}
	if qoeRuns > 0 {
		qd := time.Duration(qoeRuns)
		qoe.StartupDelay /= qd
		qoe.Stalls /= qoeRuns
		qoe.StallTime /= qd
		qoe.RebufferRatio /= float64(qoeRuns)
		qoe.P50 /= qd
		qoe.P95 /= qd
		qoe.P99 /= qd
		qoe.DeadlineMisses /= qoeRuns
		qoe.LocalBytes /= qoeRuns
		qoe.P2PBytes /= qoeRuns
		qoe.EdgeBytes /= qoeRuns
		qoe.OriginBytes /= qoeRuns
		qoe.SyncSeconds()
		out.QoE = &qoe
	}
	if stratRuns > 0 {
		strat.AdvertFloods /= stratRuns
		strat.AdvertsHeld /= stratRuns
		strat.FallbackRoutes /= stratRuns
		strat.CacheAdmitSkips /= stratRuns
		out.Strategy = &strat
	}
	return out
}

// randomFamily fills every field of the struct v points to: counters up
// to limit, durations up to an hour, ratios in [0, 1), labels from a small
// set that includes the empty one. A pointer-to-struct field is left nil
// half the time.
func randomFamily(rng *rand.Rand, v reflect.Value, limit uint64) {
	for i := range v.NumField() {
		f := v.Field(i)
		switch {
		case f.Type() == reflect.TypeOf(time.Duration(0)):
			f.SetInt(rng.Int63n(int64(time.Hour)))
		case f.CanUint():
			f.SetUint(uint64(rng.Int63n(int64(limit))))
		case f.CanFloat():
			f.SetFloat(rng.Float64())
		case f.Kind() == reflect.String:
			f.SetString([]string{"", "cdi", "bfr"}[rng.Intn(3)])
		case f.Kind() == reflect.Struct:
			randomFamily(rng, f, limit)
		case f.Kind() == reflect.Pointer:
			if rng.Intn(2) == 0 {
				f.Set(reflect.New(f.Type().Elem()))
				randomFamily(rng, f.Elem(), limit)
			}
		}
	}
}

// TestMeanMatchesHandWritten holds the fold's Mean to handMean on random
// samples, with counters small (so every division truncates) and large
// (up to a petabyte of overhead), and run counts whose sums do not
// divide.
func TestMeanMatchesHandWritten(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		limit := uint64(7)
		if trial%2 == 1 {
			limit = 1 << 50
		}
		samples := make([]Sample, rng.Intn(7))
		for i := range samples {
			randomFamily(rng, reflect.ValueOf(&samples[i]).Elem(), limit)
		}
		if got, want := Mean(samples), handMean(samples); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d, %d samples:\nfold %+v\nhand %+v", trial, len(samples), got, want)
		}
	}
}

// TestFoldCoversEveryField sets each numeric field of each counter
// family alone and requires Any to see it and Add to double it, with no
// other field moving: a field added to a family is folded without anyone
// listing it.
func TestFoldCoversEveryField(t *testing.T) {
	checkFamily[Sample](t)
	checkFamily[FaultCounters](t)
	checkFamily[DiskCounters](t)
	checkFamily[QoECounters](t)
	checkFamily[TierCounters](t)
	checkFamily[StrategyCounters](t)
}

func checkFamily[T any](t *testing.T) {
	t.Helper()
	typ := reflect.TypeFor[T]()
	for i := range typ.NumField() {
		var only, twice T
		set := func(v *T, x int64) {
			switch f := reflect.ValueOf(v).Elem().Field(i); {
			case f.CanUint():
				f.SetUint(uint64(x))
			case f.CanInt():
				f.SetInt(x)
			case f.CanFloat():
				f.SetFloat(float64(x))
			}
		}
		set(&only, 3)
		set(&twice, 6)
		if reflect.ValueOf(only).IsZero() {
			continue // a label or a nested family: each has its own check
		}
		if !Any(only) {
			t.Fatalf("%s.%s: Any missed it", typ.Name(), typ.Field(i).Name)
		}
		sum := only
		Add(&sum, only)
		if !reflect.DeepEqual(sum, twice) {
			t.Fatalf("%s.%s: Add = %+v, want %+v", typ.Name(), typ.Field(i).Name, sum, twice)
		}
	}
	var zero T
	if Any(zero) {
		t.Fatalf("%s: Any of the zero value", typ.Name())
	}
}
