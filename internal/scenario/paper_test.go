package scenario

import (
	"flag"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"pds/internal/metrics"
)

// ledgerSeed is the base seed ciFigures runs at. Tier-1 runs seed 1,
// the only seed the figure golden and TestFig8Stability compare;
// `make ledger-seeds` runs the ledger at others.
var ledgerSeed = flag.Int64("ledger-seed", 1, "base seed of the paper figures' CI rows (ciFigures)")

// ciFigures is every figure of Figures at the figure golden's CI
// parameters: seed -ledger-seed, one run (run 0), 1 MB items. The
// golden, the ledger and the claim tests all read its rows from here.
var ciFigures = ledgerFigures(1)

// paperRunFigures are the same figures averaged over the paper's five
// runs, for the claims whose sentence is about that average
// (claim.averaged). Only those figures have five runs.
var paperRunFigures = ledgerFigures(5)

// figureRuns holds, per figure of Figures, its runs at seed
// -ledger-seed and 1 MB items, computed at most once per test binary:
// five for a figure some averaged claim reads, one elsewhere. Run r is
// at the same seed in either set, so run 0 is the golden's run.
var figureRuns = func() map[string]func() [][]*metrics.Series {
	m := make(map[string]func() [][]*metrics.Series, len(Figures))
	for _, f := range Figures {
		runs := 1
		if slices.ContainsFunc(paperClaims, func(c claim) bool { return c.fig == f.Name && c.averaged }) {
			runs = 5
		}
		m[f.Name] = sync.OnceValue(func() [][]*metrics.Series {
			s, err := f.runSet(Params{Seed: *ledgerSeed, Runs: runs, SizeMB: 1})
			if err != nil {
				panic(err)
			}
			return s
		})
	}
	return m
}()

// ledgerFigures returns, per figure of Figures, the mean over the
// first runs runs of its run set (all of them, if it has fewer),
// computed at most once per test binary.
func ledgerFigures(runs int) map[string]func() []*metrics.Series {
	m := make(map[string]func() []*metrics.Series, len(Figures))
	for _, f := range Figures {
		m[f.Name] = sync.OnceValue(func() []*metrics.Series {
			set := figureRuns[f.Name]()
			return meanOf(set[:min(runs, len(set))])
		})
	}
	return m
}

// unclaimed are the figures the ledger holds no claim for: the classroom
// variants repeat a claimed figure on another mobility profile, and the
// rest are this repository's own scenarios and strategy matrix, not the
// paper's.
var unclaimed = []string{"fig9class", "fig12class", "chaos", "disk", "stream", "crowd",
	"compare/fig11", "compare/sparse", "compare/repeat", "compare/pressure",
	"compare/chaos", "compare/stream", "compare/crowd"}

// seedOne skips a test that compares rows pinned at seed 1 when the
// ledger runs at another seed.
func seedOne(t *testing.T) {
	t.Helper()
	if *ledgerSeed != 1 {
		t.Skipf("compares seed-1 rows; -ledger-seed is %d", *ledgerSeed)
	}
}

// claim is one sentence of the paper's evaluation, checked on the rows
// its figure's runner gives at CI size.
type claim struct {
	fig, name string
	// paper is the paper's sentence, with its numbers.
	paper string
	// check returns nil when the rows hold the claim, else what they read.
	check func(f []*metrics.Series) error
	// gap, when set, is why this reproduction does not hold the claim;
	// the check must then fail, so a gap that closes is written down.
	gap string
	// averaged checks the figure's rows averaged over the paper's five
	// runs (paperRunFigures) in place of one run's: the sentence is
	// about the paper's average, and one seed's run varies about it.
	averaged bool
}

// row is one measure read along a series, in the paper's units.
type row []float64

func col(s *metrics.Series, read func(metrics.Sample) float64) row {
	r := make(row, len(s.Points))
	for i, p := range s.Points {
		r[i] = read(p.Sample)
	}
	return r
}

func recall(s *metrics.Series) row {
	return col(s, func(x metrics.Sample) float64 { return x.Recall })
}

func latency(s *metrics.Series) row {
	return col(s, func(x metrics.Sample) float64 { return x.Latency.Seconds() })
}

func overhead(s *metrics.Series) row {
	return col(s, func(x metrics.Sample) float64 { return float64(x.OverheadBytes) / 1e6 })
}

func (r row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = fmt.Sprintf("%.3g", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func (r row) last() float64 { return r[len(r)-1] }

// falls reports whether no value exceeds the one before it.
func (r row) falls() bool {
	for i := 1; i < len(r); i++ {
		if r[i] > r[i-1] {
			return false
		}
	}
	return true
}

// grows reports whether every value exceeds the one before it.
func (r row) grows() bool {
	for i := 1; i < len(r); i++ {
		if r[i] <= r[i-1] {
			return false
		}
	}
	return true
}

// want is nil when ok holds, else an error carrying the reading.
func want(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}

// paperClaims is the ledger: each shape claim of the paper's evaluation
// once, for every figure of Figures but the unclaimed. EXPERIMENTS.md
// explains the gaps.
var paperClaims = []claim{
	{fig: "fig3", name: "raw-udp-collapses",
		paper: "Raw UDP broadcast delivers ≈14% of packets, because the phone's send buffer overflows (1–4 senders).",
		check: func(f []*metrics.Series) error {
			raw := recall(f[0])
			return want(slices.Max(raw) <= 0.3 && raw.falls() && raw.last() >= 0.09 && raw.last() <= 0.19,
				"raw-udp reception %v, want <= 0.30, falling with senders, 0.14±0.05 at 4", raw)
		}},
	{fig: "fig3", name: "modes-ordered",
		paper: "The leaky bucket recovers reception and ack/retransmission recovers more: raw < bucket < bucket+ack.",
		check: func(f []*metrics.Series) error {
			raw, bucket, both := recall(f[0]), recall(f[1]), recall(f[2])
			for i := range raw {
				if !(raw[i] < bucket[i] && bucket[i] < both[i]) {
					return fmt.Errorf("at %d senders raw %.3f, bucket %.3f, bucket+ack %.3f", i+1, raw[i], bucket[i], both[i])
				}
			}
			return nil
		}},
	{fig: "fig3", name: "bucket-40-90pct",
		paper: "The leaky bucket alone delivers 40–90%, less as concurrent senders grow.",
		check: func(f []*metrics.Series) error {
			b := recall(f[1])
			return want(b.falls() && slices.Min(b) >= 0.35 && slices.Max(b) <= 0.95,
				"bucket reception %v, want falling within 0.40–0.90 (±0.05)", b)
		},
		gap: "A lone paced sender loses only the medium's 1% base loss here (0.993); the phones lost ~10%. From 2 senders on the bucket reads 0.69–0.41, inside the paper's band."},
	{fig: "fig3", name: "ack-85pct",
		paper: "With ack/retransmission on top of the bucket, reception is 85–99% for 1–4 senders.",
		check: func(f []*metrics.Series) error {
			both := recall(f[2])
			return want(slices.Min(both) >= 0.85, "bucket+ack reception %v, want >= 0.85", both)
		}},
	{fig: "leaky", name: "knee-at-channel-rate",
		paper: "Reception stays high while LeakingRate is below what the radio broadcasts, and drops beyond it; 4.5 Mbps is the operating point (§V-2).",
		check: func(f []*metrics.Series) error {
			r := recall(f[0]) // 1, 2, 3, 4, 4.5, 5, 6, 7 Mbps; two senders share the channel
			return want(slices.Max(r[:3]) >= 0.95 && r[2:].falls() && r.last() <= slices.Max(r[:3])-0.3,
				"reception by LeakingRate %v, want >= 0.95 up to 3 Mbps, then falling by >= 0.3", r)
		}},
	{fig: "ack", name: "retr-timeout-plateau",
		paper: "Reception improves with RetrTimeout and plateaus beyond ≈0.2 s (§V-1).",
		check: func(f []*metrics.Series) error {
			r := recall(f[0]) // 25, 50, 100, 200, 400 ms
			return want(slices.IsSorted(r) && slices.Min(r[3:]) >= 0.99,
				"reception by RetrTimeout %v, want rising to >= 0.99 from 200 ms", r)
		}},
	{fig: "ack", name: "max-retr-plateau-at-4",
		paper: "Reception improves with MaxRetrTime and plateaus at ≈4 retries (§V-1).",
		check: func(f []*metrics.Series) error {
			r := recall(f[1]) // 0, 1, 2, 4, 6 retries
			return want(r[2]-r[0] >= 0.2 && r[3] >= 0.99 && r[4]-r[3] <= 0.01,
				"reception by MaxRetrTime %v, want a rise of >= 0.2 to 2 retries and a plateau >= 0.99 at 4", r)
		}},
	{fig: "saturation", name: "single-round-misses",
		paper: "A single round cannot guarantee recall, the case for multi-round discovery (§VI-B).",
		check: func(f []*metrics.Series) error {
			r := recall(f[0])
			return want(slices.Max(r[1:]) < 0.95 && r.last() < r[0], "recall at one copy %v, want < 0.95 from 2 500 entries and falling", r)
		}},
	{fig: "saturation", name: "copies-lift-recall",
		paper: "A second copy lifts single-round recall: ≈0.55 at two copies against ≈0.35 at one.",
		check: func(f []*metrics.Series) error {
			one, two := recall(f[0]), recall(f[1])
			for i := range one {
				if two[i] <= one[i] {
					return fmt.Errorf("recall at one copy %v, at two %v", one, two)
				}
			}
			return nil
		}},
	{fig: "saturation", name: "recall-0.20-0.35",
		paper: "Single-round recall at one copy is ≈0.35 up to 10 000 entries and 0.20 at 20 000.",
		check: func(f []*metrics.Series) error {
			r := recall(f[0])
			return want(slices.Max(r) <= 0.45, "recall at one copy %v, want 0.20–0.35 (+0.10)", r)
		},
		gap: "Our CSMA serializes a busy node's whole neighborhood (DESIGN.md §6), so the single-round burst loses 7–23% where the paper's lost ~65%."},
	{fig: "saturation", name: "falls-past-10k",
		paper: "Recall falls once the metadata passes 10 000 entries: 0.35 → 0.20 at 20 000.",
		check: func(f []*metrics.Series) error {
			r := recall(f[0])
			return want(r[4] <= r[3]-0.05, "recall at 10 000 and 20 000 entries %.3f, %.3f, want a fall of >= 0.05", r[3], r[4])
		},
		gap: "Our loss saturates early: recall at one copy is nearly flat from 5 000 entries on (0.800, 0.789, 0.768), the same channel as recall-0.20-0.35."},
	{fig: "fig4", name: "recall-falls-with-hops",
		paper: "Single-round recall is 100% at 1 hop and falls as the max hop count grows to 5.",
		check: func(f []*metrics.Series) error {
			r := recall(f[0])
			return want(r[0] >= 0.99 && r.falls() && r.last() < r[0], "recall by hops %v", r)
		}},
	{fig: "fig4", name: "cost-grows-with-hops",
		paper: "Latency (0.3 → 3.5 s) and overhead (0.04 → 1.71 MB) grow with the hop count.",
		check: func(f []*metrics.Series) error {
			lat, mb := latency(f[0]), overhead(f[0])
			return want(lat.grows() && mb.grows() && mb[0] >= 0.02 && mb[0] <= 0.08,
				"latency %v s, overhead %v MB, want both growing from ≈0.04 MB", lat, mb)
		}},
	{fig: "fig4", name: "recall-72pct-at-5-hops",
		paper: "Single-round recall at 5 hops is 72.3%.",
		check: func(f []*metrics.Series) error {
			r := recall(f[0]).last()
			return want(r >= 0.673 && r <= 0.773, "recall at 5 hops %.3f, want 0.723±0.05", r)
		},
		gap: "Recall at 5 hops is 0.903, and the loss is not the channel's: relays keeping no filter copy deliver every entry on it. Each relay's private copy fills with the keys it forwards, and its false positives (1 742 of 11 597 suppressions at seed 1) drop fresh entries."},
	{fig: "fig5", name: "recall-1-from-T-0.8",
		paper: "Multi-round recall reaches 1 once the window T ≥ 0.6–0.8 s.",
		check: func(f []*metrics.Series) error {
			for _, s := range f {
				if r := recall(s); slices.Min(r[3:]) < 0.99 {
					return fmt.Errorf("%s: recall by T %v", s.Name, r)
				}
			}
			return nil
		}},
	{fig: "fig5", name: "latency-grows-with-T",
		paper: "A longer window T lengthens each round, so latency grows with T.",
		check: func(f []*metrics.Series) error {
			for _, s := range f {
				if lat := latency(s); !lat.grows() {
					return fmt.Errorf("%s: latency by T %v s", s.Name, lat)
				}
			}
			return nil
		}},
	{fig: "fig5", name: "small-Td-costs-more",
		paper: "A smaller T_d runs more rounds at more overhead: 5.13 MB at T_d=0 against 3.85 MB at T_d=0.3.",
		check: func(f []*metrics.Series) error {
			td0, td3 := overhead(f[0]), overhead(f[2])
			for i := range td0 {
				if td0[i] <= td3[i] {
					return fmt.Errorf("overhead at T_d=0 %v MB, at T_d=0.3 %v MB", td0, td3)
				}
			}
			return nil
		}},
	{fig: "fig5", name: "small-Td-higher-recall",
		paper: "A smaller T_d gives higher recall: 1 at T_d=0 against 0.95 at T_d=0.3.",
		check: func(f []*metrics.Series) error {
			td0, td3 := recall(f[0]), recall(f[2])
			for i := range td0 {
				if td3[i] < td0[i]-0.02 {
					return nil
				}
			}
			return fmt.Errorf("recall at T_d=0 %v, at T_d=0.3 %v", td0, td3)
		},
		gap: "Every T_d reaches recall 1.000 within two rounds (the link's acks recover what the paper's channel lost), so T_d=0.1 and T_d=0.3 never start a third round and read identical rows."},
	{fig: "fig5", name: "small-Td-slower",
		paper: "A smaller T_d costs latency: 5.6 s at T_d=0 against 3.4 s at T_d=0.3.",
		check: func(f []*metrics.Series) error {
			td0, td3 := latency(f[0]), latency(f[2])
			return want(td0[5] > td3[5], "latency at T_d=0 %v s, at T_d=0.3 %v s", td0, td3)
		},
		gap: "Latency is the last new entry's arrival; T_d=0's third round brings no new entry, so it adds overhead but no latency."},
	{fig: "fig6", name: "recall-1-to-20k",
		paper: "Multi-round recall stays 100% from 5 000 to 20 000 entries.",
		check: func(f []*metrics.Series) error {
			r := recall(f[0])
			return want(slices.Min(r) >= 0.99, "recall by entries %v", r)
		}},
	{fig: "fig6", name: "latency-sublinear",
		paper: "Latency grows sublinearly with the metadata amount: 5.6 → 11.2 s for 4× the entries.",
		check: func(f []*metrics.Series) error {
			lat := latency(f[0])
			return want(lat.grows() && lat.last() < 4*lat[0], "latency by entries %v s, want growing, < 4× at 4× entries", lat)
		}},
	{fig: "fig6", name: "overhead-linear",
		paper: "Overhead grows about linearly with the metadata amount: 5.13 → 22.21 MB (×4.3 for 4× the entries).",
		check: func(f []*metrics.Series) error {
			mb := overhead(f[0])
			k := mb.last() / mb[0]
			return want(mb.grows() && k >= 3 && k <= 5.5, "overhead by entries %v MB (×%.2f), want ×3–×5.5", mb, k)
		},
		gap: "Ours grows ×2.6 (5.63 → 14.42 MB) while rounds go 3 → 5; the cause is not isolated."},
	{fig: "fig7", name: "recall-1",
		paper: "Every sequential consumer discovers ~100% of the entries.",
		check: func(f []*metrics.Series) error {
			r := recall(f[0])
			return want(slices.Min(r) >= 0.99, "recall by consumer %v", r)
		}},
	{fig: "fig7", name: "later-consumers-faster",
		paper: "Caching and overhearing make later consumers faster: 5–7 s for the first two, 4.8 s and 3.2 s for the next two.",
		check: func(f []*metrics.Series) error {
			lat := latency(f[0])
			return want(slices.Max(lat[2:]) < lat[0], "latency by consumer %v s, want consumers 3–5 faster than the first", lat)
		}},
	{fig: "fig7", name: "fifth-from-cache",
		paper: "The fifth consumer has >95% cached before it asks and finishes in 0.2 s.",
		check: func(f []*metrics.Series) error {
			lat := latency(f[0])
			return want(lat[4] <= 0.5, "fifth consumer's latency %.1f s, want <= 0.5", lat[4])
		}},
	{fig: "fig7", name: "latency-falls-each-consumer",
		paper: "Latency falls from each consumer to the next.",
		check: func(f []*metrics.Series) error {
			lat := latency(f[0])
			return want(lat.falls(), "latency by consumer %v s", lat)
		},
		gap: "The second consumer is slower than the first (8.1 s and 10.71 MB against 4.9 s and 6.15 MB); -runs 3 still reads 4.4, 4.0, 3.2, 3.7, 0.6 s. The cause is not isolated."},
	{fig: "fig8", name: "recall-1",
		paper: "Every simultaneous consumer discovers 100% of the entries.",
		check: func(f []*metrics.Series) error {
			r := recall(f[0])
			return want(slices.Min(r) >= 0.99, "recall by consumers %v", r)
		}},
	{fig: "fig8", name: "latency-sublinear",
		paper: "Latency grows sublinearly with simultaneous consumers and levels off: one mixedcast transmission serves several lingering queries.",
		check: func(f []*metrics.Series) error {
			lat := latency(f[0])
			return want(lat.grows() && lat[4]-lat[3] < lat[1]-lat[0] && lat[4] < 5*lat[0],
				"latency by consumers %v s, want growing by less each step, < 5× at 5", lat)
		},
		averaged: true},
	{fig: "fig8", name: "overhead-shared",
		paper: "Mixedcast sends an entry once for all consumers that want it, so overhead per consumer falls as consumers join.",
		check: func(f []*metrics.Series) error {
			mb := overhead(f[0])
			return want(mb[4]/5 < mb[0], "overhead by consumers %v MB, want under 5× the single consumer's at 5", mb)
		},
		averaged: true},
	{fig: "fig9", name: "overhead-under-3MB",
		paper: "Overhead stays within 3 MB as join/leave/move rates scale ×0.5–×2 (Figs 9/10).",
		check: func(f []*metrics.Series) error {
			mb := overhead(f[0])
			return want(slices.Max(mb) <= 3, "overhead by rate %v MB", mb)
		}},
	{fig: "fig9", name: "recall-flat",
		paper: "Recall does not depend on the mobility rate.",
		check: func(f []*metrics.Series) error {
			r := recall(f[0])
			return want(slices.Max(r)-slices.Min(r) <= 0.05, "recall by rate %v", r)
		}},
	{fig: "fig9", name: "recall-1",
		paper: "Recall under mobility is ≈100%.",
		check: func(f []*metrics.Series) error {
			r := recall(f[0])
			return want(slices.Min(r) >= 0.99, "recall by rate %v", r)
		},
		gap: "At every rate scale of seed 1, one of the 20 initial producers (node 8) leaves during the 30 s before the consumer asks; nobody had cached its 259 entries, so recall is 4741/5000 = 0.948."},
	{fig: "fig9", name: "latency-2s",
		paper: "PDD latency under mobility stays within 2 s.",
		check: func(f []*metrics.Series) error {
			lat := latency(f[0])
			return want(slices.Max(lat) <= 2, "latency by rate %v s", lat)
		},
		gap: "Our discovery takes 3–4 rounds here (3.4–5.1 s); the cause is not isolated."},
	{fig: "fig11", name: "recall-1",
		paper: "PDR retrieves every chunk at every item size, 1–20 MB.",
		check: func(f []*metrics.Series) error {
			r := recall(f[0])
			return want(slices.Min(r) >= 0.999, "recall by size %v", r)
		}},
	{fig: "fig11", name: "cost-linear-in-size",
		paper: "Latency (8.2 → 46.1 s) and overhead (4.83 → 54.22 MB) grow about linearly from 1 to 20 MB.",
		check: func(f []*metrics.Series) error {
			lat, mb := latency(f[0]), overhead(f[0]) // 1, 5, 10, 15, 20 MB
			perMB := func(r row) float64 { return (r.last() / 20) / (r[1] / 5) }
			return want(lat.grows() && mb.grows() && perMB(lat) >= 0.5 && perMB(lat) <= 2 && perMB(mb) >= 0.5 && perMB(mb) <= 2,
				"latency %v s, overhead %v MB, want growing, the per-MB cost at 20 MB within ×0.5–×2 of 5 MB's", lat, mb)
		}},
	{fig: "fig11", name: "overhead-2-3x-size",
		paper: "Overhead is ≈2–3× the item size, because chunks travel several hops.",
		check: func(f []*metrics.Series) error {
			mb := overhead(f[0])
			sizes := []float64{1, 5, 10, 15, 20}
			for i, v := range mb {
				if k := v / sizes[i]; k < 2 || k > 3 {
					return fmt.Errorf("overhead %v MB is ×%.2f the item size at %g MB", mb, k, sizes[i])
				}
			}
			return nil
		},
		gap: "Ours is ×3.7–×4.8: per-fragment acks are counted, and uniform placement on the 10×10 grid puts a chunk ~3.3 hops away."},
	{fig: "fig12", name: "recall-1",
		paper: "PDR under mobility always reaches 100% recall.",
		check: func(f []*metrics.Series) error {
			r := recall(f[0])
			return want(slices.Min(r) >= 0.999, "recall by rate %v", r)
		}},
	{fig: "fig12", name: "overhead-flat",
		paper: "Overhead stays roughly the same (24–27 MB for 20 MB) as mobility scales ×0.5–×2.",
		check: func(f []*metrics.Series) error {
			mb := overhead(f[0])
			return want(slices.Max(mb) <= 1.25*slices.Min(mb), "overhead by rate %v MB, want within ×1.25", mb)
		}},
	{fig: "fig12", name: "latency-flat",
		paper: "Latency stays roughly the same (42–48 s for 20 MB) as mobility scales ×0.5–×2.",
		check: func(f []*metrics.Series) error {
			lat := latency(f[0])
			return want(slices.Max(lat) <= 1.5*slices.Min(lat), "latency by rate %v s, want within ×1.5", lat)
		},
		gap: "At ×2.0 the 1 MB retrieval needs 4 rounds and 49.6 s against 2.3 s: node 7 crosses the hall at 10.3–11.3 s, inside a transfer that starts at 10 s. -runs 3 still reads 18.5 s against 2.6–2.7 s."},
	{fig: "fig13", name: "recall-1",
		paper: "PDR and MDR both retrieve the whole item at one to five copies.",
		check: func(f []*metrics.Series) error {
			pdr, mdr := recall(f[0]), recall(f[1])
			return want(min(slices.Min(pdr), slices.Min(mdr)) >= 0.999, "recall by copies: PDR %v, MDR %v", pdr, mdr)
		}},
	{fig: "fig13", name: "one-copy-mdr-ahead",
		paper: "At one copy MDR slightly beats PDR (51.34 MB against 54.22 MB for 20 MB).",
		check: func(f []*metrics.Series) error {
			pdr, mdr := overhead(f[0]), overhead(f[1])
			return want(mdr[0] <= pdr[0], "overhead at one copy: PDR %.2f MB, MDR %.2f MB", pdr[0], mdr[0])
		}},
	{fig: "fig13", name: "pdr-cheaper-from-2-copies",
		paper: "With more copies PDR costs less than MDR: 45.98 MB against 94.23 MB at five copies.",
		check: func(f []*metrics.Series) error {
			pdr, mdr := overhead(f[0]), overhead(f[1])
			for i := 1; i < len(pdr); i++ {
				if pdr[i] >= mdr[i] {
					return fmt.Errorf("overhead by copies: PDR %v MB, MDR %v MB", pdr, mdr)
				}
			}
			return nil
		}},
	{fig: "fig13", name: "mdr-grows-pdr-flat",
		paper: "MDR's cost grows almost linearly with copies (51.34 → 94.23 MB) while PDR's stays flat or falls (54.22 → 45.98 MB).",
		check: func(f []*metrics.Series) error {
			pdr, mdr := overhead(f[0]), overhead(f[1])
			return want(mdr.grows() && pdr.last() <= pdr[0] && latency(f[0]).last() <= latency(f[0])[0],
				"overhead by copies: PDR %v MB, MDR %v MB; PDR latency %v s", pdr, mdr, latency(f[0]))
		}},
	{fig: "fig15", name: "overhead-falls",
		paper: "Cached copies shorten later paths: overhead falls 54.22 → 23.11 MB from the first sequential consumer to the fifth.",
		check: func(f []*metrics.Series) error {
			mb := overhead(f[0])
			return want(mb.falls() && mb.last() <= mb[0]/2, "overhead by consumer %v MB, want falling to <= half", mb)
		}},
	{fig: "fig15", name: "latency-falls",
		paper: "Latency falls 46.1 → 38.1 s from the first sequential consumer to the fifth.",
		check: func(f []*metrics.Series) error {
			lat := latency(f[0])
			return want(lat.last() < lat[0], "latency by consumer %v s", lat)
		}},
	{fig: "fig16", name: "recall-1",
		paper: "Every simultaneous PDR consumer retrieves the whole item.",
		check: func(f []*metrics.Series) error {
			r := recall(f[0])
			return want(slices.Min(r) >= 0.999, "recall by consumers %v", r)
		}},
	{fig: "fig16", name: "overhead-rises-then-stabilizes",
		paper: "Overhead first increases with simultaneous consumers, then stabilizes: consumers in one direction share transmissions.",
		check: func(f []*metrics.Series) error {
			mb := overhead(f[0])
			return want(mb.grows() && mb[4]-mb[3] < mb[1]-mb[0], "overhead by consumers %v MB, want growing by less at the end", mb)
		}},
	{fig: "fig16", name: "latency-rises-then-stabilizes",
		paper: "Latency first increases with simultaneous consumers, then stabilizes.",
		check: func(f []*metrics.Series) error {
			lat := latency(f[0])
			return want(slices.IsSorted(lat) && lat[4]-lat[3] < lat[1]-lat[0],
				"latency by consumers %v s, want rising by less at the end, never falling", lat)
		},
		gap: "Latency falls from 18.7 s at 4 consumers to 13.9 s at 5 (-runs 3: 18.2 → 15.5 s). It is the slowest consumer's; the cause is not isolated."},
	{fig: "ablation", name: "baseline-recall-1",
		paper: "Lingering queries, mixedcast and Bloom rewriting together discover every entry.",
		check: func(f []*metrics.Series) error {
			r := recall(f[0])[0]
			return want(r >= 0.99, "baseline recall %.3f", r)
		}},
	{fig: "ablation", name: "lingering-pays",
		paper: "A lingering query keeps steering responses back, where a one-shot interest steers one response and must be re-sent.",
		check: func(f []*metrics.Series) error {
			base, oneShot := f[0].Points[0].Sample, f[1].Points[0].Sample
			return want(oneShot.Latency > base.Latency && oneShot.OverheadBytes > base.OverheadBytes,
				"baseline %s / %s, one-shot interests %s / %s", metrics.Seconds(base.Latency), metrics.MB(base.OverheadBytes),
				metrics.Seconds(oneShot.Latency), metrics.MB(oneShot.OverheadBytes))
		}},
	{fig: "ablation", name: "bloom-pays",
		paper: "En-route Bloom rewriting suppresses entries the consumer already has, so turning it off costs overhead.",
		check: func(f []*metrics.Series) error {
			base, noBloom := f[0].Points[0].Sample.OverheadBytes, f[3].Points[0].Sample.OverheadBytes
			return want(noBloom > base, "overhead: baseline %s, no bloom rewrite %s", metrics.MB(base), metrics.MB(noBloom))
		}},
	{fig: "ablation", name: "mixedcast-pays",
		paper: "Mixedcast sends one response for several downstream queries, so turning it off costs overhead.",
		check: func(f []*metrics.Series) error {
			base, noMix := f[0].Points[0].Sample.OverheadBytes, f[2].Points[0].Sample.OverheadBytes
			return want(noMix > base, "overhead: baseline %s, no mixedcast %s", metrics.MB(base), metrics.MB(noMix))
		},
		gap: "The ablation has one consumer, and mixedcast only merges responses for several, so both rows read 2.29 MB. fig8/overhead-shared shows it with five."},
	{fig: "balance", name: "recall-1",
		paper: "PDR retrieves the whole item with or without load balancing.",
		check: func(f []*metrics.Series) error {
			a, b := recall(f[0])[0], recall(f[1])[0]
			return want(min(a, b) >= 0.999, "recall: min-max %.3f, nearest-only %.3f", a, b)
		}},
	{fig: "balance", name: "min-max-pays",
		paper: "Splitting the wanted chunks among neighbors by min-max load (§IV-B) beats sending each to its nearest copy.",
		check: func(f []*metrics.Series) error {
			a, b := f[0].Points[0].Sample, f[1].Points[0].Sample
			return want(a.Latency < b.Latency, "latency: min-max %s, nearest-only %s", metrics.Seconds(a.Latency), metrics.Seconds(b.Latency))
		},
		gap: "On the uniform grid at three copies both assignments read 2.7 s and 2.02 MB; ROADMAP item 5 measures the heuristic against the optimum."},
}

// verdict checks c on its figure's CI rows. It returns whether the
// ledger holds — the claim holds, or it is a gap and does not — and what
// the rows read when they miss the claim.
func (c claim) verdict() (ok bool, reading error) {
	rows := ciFigures
	if c.averaged {
		rows = paperRunFigures
	}
	reading = c.check(rows[c.fig]())
	return (reading == nil) == (c.gap == ""), reading
}

// report fails t when the ledger does not hold for c, and logs a gap.
// Under -v it also logs whether the claim itself holds, which `make
// ledger-seeds` counts.
func (c claim) report(t *testing.T) {
	t.Helper()
	ok, reading := c.verdict()
	if testing.Verbose() {
		t.Logf("ledger: holds=%t gap=%t", reading == nil, c.gap != "")
	}
	switch {
	case !ok && c.gap == "":
		t.Errorf("paper: %s\nmeasured: %v", c.paper, reading)
	case !ok:
		t.Errorf("the gap closed: the rows now hold %q. Drop the gap here and in EXPERIMENTS.md.", c.paper)
	case c.gap != "":
		t.Logf("GAP: %s\nmeasured: %v", c.gap, reading)
	}
}

// failingClaims lists the ledger rows whose verdict fails.
func failingClaims() []string {
	var out []string
	for _, c := range paperClaims {
		if ok, _ := c.verdict(); !ok {
			out = append(out, c.fig+"/"+c.name)
		}
	}
	return out
}

// TestPaperClaims checks every claim of the ledger on its figure's CI
// rows, one subtest each, and that every figure has a claim.
func TestPaperClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	claimed := map[string]bool{}
	for _, c := range paperClaims {
		claimed[c.fig] = true
		t.Run(c.fig+"/"+c.name, c.report)
	}
	for _, f := range Figures {
		if !claimed[f.Name] && !slices.Contains(unclaimed, f.Name) {
			t.Errorf("figure %s has no claim", f.Name)
		}
	}
}

// requireClaims runs the named ledger rows for the claim tests that
// predate the ledger.
func requireClaims(t *testing.T, ids ...string) {
	t.Helper()
	if testing.Short() {
		t.Skip("long")
	}
	for _, id := range ids {
		i := slices.IndexFunc(paperClaims, func(c claim) bool { return c.fig+"/"+c.name == id })
		if i < 0 {
			t.Fatalf("no claim %s", id)
		}
		paperClaims[i].report(t)
	}
}
