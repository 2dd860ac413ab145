package scenario

import (
	"strings"
	"testing"
	"time"

	"pds/internal/metrics"
	"pds/internal/strategy"
)

// TestExplicitDefaultStrategiesMatchImplicit is the refactor's
// equivalence proof at the scenario level: selecting the default
// strategies by name ("cdi"+"fifo") must reproduce the implicit
// default run metric for metric. Only the Strategy counters differ —
// they exist exactly when a strategy was named.
func TestExplicitDefaultStrategiesMatchImplicit(t *testing.T) {
	const seed, entries = 1, 400
	cell := gridCell(func(d *Deployment) metrics.Sample { return fig8Cell(d, d.seed, 3, entries) })
	implicit := cell(seed, "", "")
	explicit := cell(seed, strategy.DefaultRouting, strategy.DefaultCaching)

	if implicit.Recall != explicit.Recall ||
		implicit.Latency != explicit.Latency ||
		implicit.OverheadBytes != explicit.OverheadBytes ||
		implicit.Rounds != explicit.Rounds {
		t.Fatalf("explicit defaults drifted from implicit run:\nimplicit %+v\nexplicit %+v",
			implicit, explicit)
	}
	if implicit.Strategy != nil {
		t.Fatalf("implicit run grew strategy counters: %+v", implicit.Strategy)
	}
	if explicit.Strategy == nil || explicit.Strategy.Routing != strategy.DefaultRouting ||
		explicit.Strategy.Caching != strategy.DefaultCaching {
		t.Fatalf("explicit run counters = %+v, want cdi/fifo names", explicit.Strategy)
	}
}

func TestCompareConfigDefaults(t *testing.T) {
	cfg := CompareConfig{}.WithDefaults()
	if len(cfg.Routings) != len(strategy.RoutingNames()) {
		t.Fatalf("default routings = %v, want every registered strategy", cfg.Routings)
	}
	if len(cfg.Cachings) != 2 || cfg.Cachings[0] != "fifo" || cfg.Cachings[1] != "opportunistic" {
		t.Fatalf("default cachings = %v", cfg.Cachings)
	}
	if len(cfg.Scenarios) != 3 || cfg.SizeMB != 1 || cfg.Runs != 1 {
		t.Fatalf("defaults = %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("defaults do not validate: %v", err)
	}
}

func TestCompareConfigValidate(t *testing.T) {
	cases := []struct {
		cfg     CompareConfig
		wantSub string
	}{
		{CompareConfig{Routings: []string{"bogus"}}, "routing"},
		{CompareConfig{Cachings: []string{"bogus"}}, "caching"},
		{CompareConfig{Scenarios: []string{"bogus"}}, "scenario"},
	}
	for _, tc := range cases {
		err := tc.cfg.WithDefaults().Validate()
		if err == nil || !strings.Contains(err.Error(), tc.wantSub) ||
			!strings.Contains(err.Error(), "bogus") {
			t.Fatalf("Validate(%+v) = %v, want %s error naming alternatives", tc.cfg, err, tc.wantSub)
		}
	}
	if _, err := CompareOne("bogus", CompareConfig{}); err == nil {
		t.Fatal("CompareOne accepted an unknown scenario")
	}
}

// TestBetterSampleOrdering pins the ranking: recall wins, latency
// breaks recall ties, overhead breaks latency ties.
func TestBetterSampleOrdering(t *testing.T) {
	s := func(recall float64, lat time.Duration, bytes uint64) metrics.Sample {
		return metrics.Sample{Recall: recall, Latency: lat, OverheadBytes: bytes}
	}
	cases := []struct {
		a, b          metrics.Sample
		better, worse bool
	}{
		{s(0.9, 5*time.Second, 10), s(0.8, time.Second, 1), true, false},
		{s(0.9, time.Second, 10), s(0.9, 2*time.Second, 1), true, false},
		{s(0.9, time.Second, 10), s(0.9, time.Second, 20), true, false},
		{s(0.9, time.Second, 10), s(0.9, time.Second, 10), false, false},
		{s(0.8, time.Second, 1), s(0.9, 5*time.Second, 10), false, true},
	}
	for i, tc := range cases {
		better, worse := betterSample(tc.a, tc.b)
		if better != tc.better || worse != tc.worse {
			t.Fatalf("case %d: betterSample = (%v, %v), want (%v, %v)",
				i, better, worse, tc.better, tc.worse)
		}
	}
}
