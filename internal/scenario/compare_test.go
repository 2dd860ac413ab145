package scenario

import (
	"reflect"
	"strings"
	"testing"

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

// TestEveryStrategySeparates holds the strategy names to the compare
// matrix's verdict rule: a strategy stays only while its row differs
// from the default's, the other plane held at its default, on at least
// one compare figure (its CI rows: seed 1, one run, 1 MB items). A new
// strategy arrives with the figure it separates on.
func TestEveryStrategySeparates(t *testing.T) {
	seedOne(t)
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
	var figs []string
	for _, f := range Figures {
		if len(todo) == 0 {
			break
		}
		if !strings.HasPrefix(f.Name, "compare/") {
			continue
		}
		figs = append(figs, f.Name)
		rows := make(map[pair]metrics.Sample)
		for _, pt := range ciFigures[f.Name]()[0].Points {
			rt, ca, _ := strings.Cut(pt.Label, "+")
			pt.Sample.Strategy = nil // the counters name the strategy; the row is the rest
			rows[pair{rt, ca}] = pt.Sample
		}
		def := rows[pair{strategy.DefaultRouting, strategy.DefaultCaching}]
		same := todo[:0]
		for _, p := range todo {
			if reflect.DeepEqual(rows[p], def) {
				same = append(same, p)
			}
		}
		todo = same
	}
	for _, p := range todo {
		t.Errorf("%s+%s reads the default's row on every compare figure %v: delete the strategy, or add the figure it separates on",
			p.routing, p.caching, figs)
	}
}
