package scenario

import (
	"reflect"
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
	cell := gridCell(0, func(d *Deployment) metrics.Sample { return fig8Cell(d, d.seed, 3, entries) })
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
	if len(cfg.Cachings) != len(strategy.CachingNames()) {
		t.Fatalf("default cachings = %v, want every registered strategy", cfg.Cachings)
	}
	if len(cfg.Scenarios) != len(CompareScenarios) || cfg.SizeMB != 1 || cfg.Runs != 0 {
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
	if _, err := CompareOne("bogus", CompareConfig{Runs: 1}); err == nil {
		t.Fatal("CompareOne accepted an unknown scenario")
	}
}

// TestCompareOneRefusesFewerThanOneRun holds a compare cell to the rule
// every figure keeps: below one run there is nothing to average, and
// the error is Figure.Run's.
func TestCompareOneRefusesFewerThanOneRun(t *testing.T) {
	for _, runs := range []int{0, -1} {
		cfg := CompareConfig{Routings: []string{"cdi"}, Cachings: []string{"fifo"}, Seed: 1, Runs: runs, Quick: true}
		s, err := CompareOne("repeat", cfg)
		_, want := Figure{Name: "compare/repeat"}.Run(Params{Seed: 1, Runs: runs})
		if err == nil || s != nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("Runs %d: CompareOne = %v, %v; want Figure.Run's error %v", runs, s, err, want)
		}
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

// TestEveryStrategySeparates holds the registry to the compare matrix's
// verdict rule: a strategy stays registered only while its row differs
// from the default's, the other plane held at its default, on at least
// one compare cell (quick size, seed 1). A new strategy arrives with the
// cell it separates on.
func TestEveryStrategySeparates(t *testing.T) {
	type pair struct{ routing, caching string }
	var todo []pair
	for _, r := range strategy.RoutingNames() {
		if r != strategy.DefaultRouting {
			todo = append(todo, pair{r, strategy.DefaultCaching})
		}
	}
	for _, c := range strategy.CachingNames() {
		if c != strategy.DefaultCaching {
			todo = append(todo, pair{strategy.DefaultRouting, c})
		}
	}
	row := func(cell matrixCell, p pair) metrics.Sample {
		s := cell(1, p.routing, p.caching)
		s.Strategy = nil // the counters name the strategy; the row is the rest
		return s
	}
	cfg := CompareConfig{Runs: 1, Quick: true}.WithDefaults()
	for _, scen := range cfg.Scenarios {
		if len(todo) == 0 {
			break
		}
		cell, err := compareCell(scen, cfg)
		if err != nil {
			t.Fatal(err)
		}
		def := row(cell, pair{strategy.DefaultRouting, strategy.DefaultCaching})
		same := todo[:0]
		for _, p := range todo {
			if reflect.DeepEqual(row(cell, p), def) {
				same = append(same, p)
			}
		}
		todo = same
	}
	for _, p := range todo {
		t.Errorf("%s+%s reads the default's row on every compare cell %v: delete the strategy, or add the cell it separates on",
			p.routing, p.caching, cfg.Scenarios)
	}
}
