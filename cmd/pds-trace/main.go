// Command pds-trace analyzes a hop-level JSONL trace exported by
// pds-sim -trace-out or pds-bench -trace-out: it reconstructs the
// per-query message trees — the consumer's flood hop by hop, every
// response generated or relayed for it, recursive chunk sub-queries,
// and the airtime the tree burned — and prints one summary line per
// query root, or a full tree with -query.
//
// Examples:
//
//	pds-sim -entries 2000 -trace-out trace.jsonl
//	pds-trace trace.jsonl               # one line per query root
//	pds-trace -query 271 trace.jsonl    # one root in detail, with hops
//	pds-sim -trace-out /dev/stdout -entries 500 | tail -n +1 | pds-trace -
//	pds-sim -workload stream: -trace-out s.jsonl && pds-trace -playback s.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
	"time"

	"pds/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pds-trace:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pds-trace", flag.ContinueOnError)
	queryID := fs.Uint64("query", 0, "print this query root in detail (0 = list all roots)")
	tiers := fs.Bool("tiers", false, "print per-chunk tier attribution (tiered retrievals)")
	playback := fs.Bool("playback", false, "print the workload plane: prefetches, stalls, deadline misses")
	asJSON := fs.Bool("json", false, "emit the summaries as JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var in io.Reader = os.Stdin
	if fs.NArg() > 0 && fs.Arg(0) != "-" {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	events, err := trace.ReadJSONL(in)
	if err != nil {
		return err
	}
	a := trace.Analyze(events)

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if *queryID != 0 {
			q := a.Query(*queryID)
			if q == nil {
				return fmt.Errorf("no query root %d in trace", *queryID)
			}
			return enc.Encode(q)
		}
		return enc.Encode(a.Queries)
	}

	if *queryID != 0 {
		q := a.Query(*queryID)
		if q == nil {
			return fmt.Errorf("no query root %d in trace", *queryID)
		}
		printDetail(q)
		return nil
	}

	if *tiers {
		return printTiers(a)
	}

	if *playback {
		return printPlayback(a)
	}

	fmt.Printf("%d events, %d query roots", a.Events, len(a.Queries))
	if a.Unrooted > 0 {
		fmt.Printf(", %d unrooted response events", a.Unrooted)
	}
	fmt.Println()
	printTierSummary(a)
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "QUERY\tNODE\tKIND\tROUND\tSTART\tHOPS\tDEPTH\tRESPS\tENTRIES\tRELAYS\tMERGES\tSUPPR\tSELF\tFAILOPEN\tSUBQ\tFRAMES\tAIRTIME")
	for _, q := range a.Queries {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\n",
			q.ID, q.Consumer, q.Kind, q.Round, fmtDur(q.Start),
			len(q.Hops), q.MaxDepth, len(q.RespIDs), q.ServedEntries,
			q.Relays, q.Merges, q.Suppressions, q.SelfInflicted, q.FailOpen,
			len(q.SubQueryIDs), q.Frames, fmtDur(q.Airtime))
	}
	return w.Flush()
}

// tierOrder fixes the display order of tier attributions.
var tierOrder = []string{"local", "p2p", "edge", "origin", "missing"}

// printTierSummary prints one aggregate line per serving tier when the
// trace contains tiered-retrieval attributions.
func printTierSummary(a *trace.Analysis) {
	if len(a.Tiers) == 0 {
		return
	}
	fmt.Printf("tiered retrieval: %d chunk attributions —", len(a.ChunkServes))
	for _, tier := range tierNames(a) {
		tc := a.Tiers[tier]
		fmt.Printf(" %s=%d (%d B)", tier, tc.Chunks, tc.Bytes)
	}
	fmt.Println()
}

// printTiers prints every chunk's serving tier, one row per ChunkTier
// event, then the aggregate.
func printTiers(a *trace.Analysis) error {
	if len(a.ChunkServes) == 0 {
		fmt.Println("no tier attributions in trace (pure-P2P run, or tracing was off)")
		return nil
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "NODE\tCHUNK\tTIER\tBYTES\tAT")
	for _, cs := range a.ChunkServes {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%s\n", cs.Node, cs.Chunk, cs.Tier, cs.Bytes, fmtDur(cs.T))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	printTierSummary(a)
	return nil
}

// printPlayback prints every workload-plane event — the prefetch,
// stall and deadline-miss record of a streaming or flash-crowd session
// — then the aggregate playback summary.
func printPlayback(a *trace.Analysis) error {
	if len(a.Playback) == 0 {
		fmt.Println("no playback events in trace (no workload driver, or tracing was off)")
		return nil
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "NODE\tEVENT\tSEG\tITEM\tAT\tDETAIL")
	for _, pe := range a.Playback {
		detail := ""
		switch pe.Kind {
		case trace.PrefetchIssued:
			detail = fmt.Sprintf("in-flight %d", pe.Val)
		case trace.Stall:
			detail = "stalled " + fmtDur(time.Duration(pe.Val))
		case trace.SegmentDeadlineMiss:
			if pe.Val == 0 {
				detail = "never arrived"
			} else {
				detail = "late by " + fmtDur(time.Duration(pe.Val))
			}
		}
		fmt.Fprintf(w, "%d\t%s\t%d\t%s\t%s\t%s\n",
			pe.Node, pe.Kind, pe.Index, pe.Item, fmtDur(pe.T), detail)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	s := a.PlaybackSummary
	fmt.Printf("playback: %d prefetches, %d stalls (%s stalled), %d deadline misses\n",
		s.Prefetches, s.Stalls, fmtDur(s.StallTime), s.DeadlineMisses)
	return nil
}

// tierNames lists the tiers present in the analysis, canonical order
// first, then any unknown notes sorted.
func tierNames(a *trace.Analysis) []string {
	seen := make(map[string]bool)
	var out []string
	for _, t := range tierOrder {
		if _, ok := a.Tiers[t]; ok {
			out = append(out, t)
			seen[t] = true
		}
	}
	var extra []string
	for t := range a.Tiers {
		if !seen[t] {
			extra = append(extra, t)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}

func printDetail(q *trace.QuerySummary) {
	fmt.Printf("query %d: %s round %d from node %d at %s\n",
		q.ID, q.Kind, q.Round, q.Consumer, fmtDur(q.Start))
	fmt.Printf("  flood: %d forwarders, max depth %d (%d forwards incl. sub-queries)\n",
		len(q.Hops), q.MaxDepth, q.Forwards)
	fmt.Printf("  responses: %d messages, %d entries served, %d relays, %d mixedcast merges, %d bloom-suppressed (%d self-inflicted), %d fail-open offers\n",
		len(q.RespIDs), q.ServedEntries, q.Relays, q.Merges, q.Suppressions, q.SelfInflicted, q.FailOpen)
	if len(q.SubQueryIDs) > 0 {
		fmt.Printf("  chunk sub-queries: %d %v\n", len(q.SubQueryIDs), q.SubQueryIDs)
	}
	fmt.Printf("  channel: %d frames, %d bytes, %s airtime\n", q.Frames, q.Bytes, fmtDur(q.Airtime))
	if q.FirstResponse > 0 {
		fmt.Printf("  first response after %s\n", fmtDur(q.FirstResponse-q.Start))
	}
	if len(q.Hops) > 0 {
		fmt.Println("  hops:")
		w := tabwriter.NewWriter(os.Stdout, 2, 0, 1, ' ', 0)
		for _, h := range q.Hops {
			fmt.Fprintf(w, "    depth %d\tnode %d\t<- %d\tat %s\t(+%s)\n",
				h.Depth, h.Node, h.From, fmtDur(h.T), fmtDur(h.Latency))
		}
		w.Flush()
	}
}

// fmtDur rounds durations to the microsecond for readable columns.
func fmtDur(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}
