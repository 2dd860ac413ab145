GO ?= go
BENCH_RUNS ?= 3
BENCH_SIZE ?= 2
FUZZTIME ?= 30s
LINT_REPLAY_DIR ?= lint-replay
REV ?= HEAD
FIG ?= fig11
PAIRS ?= 10

.PHONY: build test lint lint-replay verify smoke loc alloc-ledger cpu-ledger ledger-seeds golden fuzz bench benchdiff baseline ab compare

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs the static-analysis gate: the repo's four invariant
# analyzers (cmd/pds-lint — frozen messages, determinism, hot-path
# allocations, goroutine supervision; see DESIGN.md §12/§17), a gofmt
# check, and — when the binary is installed — golangci-lint with the
# pinned .golangci.yml.
# Findings are suppressed only by an audited `//lint:allow <analyzer>
# <reason>` comment; pds-lint prints every suppression and the
# per-analyzer wall times, and -budget fails the run outright if the
# whole sweep takes over a minute (a slow analyzer is a regression).
lint:
	$(GO) run ./cmd/pds-lint -budget 60s ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run; \
	else \
		echo "golangci-lint not installed; skipped (CI runs it — see .golangci.yml)"; fi

# lint-replay runs the working tree's pds-lint over a `git archive` of
# every commit, oldest first, one snapshot at a time, and writes what it
# prints (suppressed lines kept, the timing line dropped) to
# $(LINT_REPLAY_DIR)/<commit>.txt. A finding a later commit fixed or
# turned into a //lint:allow is a catch (DESIGN.md §17). To check that
# a lint change keeps every catch, replay the parent and the change into
# two directories and `diff -r` them. At 10–25 s a commit (88 commits
# took ~35 min with both replays side by side on 2 CPUs) it stays out of
# CI.
lint-replay:
	@mkdir -p $(LINT_REPLAY_DIR)
	@out=$$(cd $(LINT_REPLAY_DIR) && pwd); tmp=$$(mktemp -d); \
	trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/pds-lint ./cmd/pds-lint || exit 1; \
	for c in $$(git log --reverse --format=%h); do \
		rm -rf $$tmp/snap; mkdir $$tmp/snap; \
		git archive $$c | tar -x -C $$tmp/snap; \
		(cd $$tmp/snap && $$tmp/pds-lint ./... 2>&1) | \
			grep -v '^pds-lint: timings:' > $$out/$$c.txt; \
		echo "$$c: $$(tail -n 1 $$out/$$c.txt)"; \
	done

# verify is the pre-merge gate: lint first (cheapest signal, fails
# fast), then vet, a full build, the whole test suite, and the race
# detector across every package — shared immutable messages and
# parallel sweep runs mean concurrency is no longer confined to the
# socket code — then the micro-benchmark smoke runs (smoke, below), and
# last the nested benchmarks/ module, which `./...` does not reach.
verify: lint
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test -race ./...
	$(MAKE) smoke
	$(GO) vet -C benchmarks ./...
	$(GO) test -C benchmarks ./...

# smoke runs every micro-benchmark for a handful of iterations, so they
# keep compiling and running; the scaling and allocation guards they
# illustrate are plain tests and already ran. `make verify` and CI both
# call it.
smoke:
# A hundred frames per dedup-window size and a hundred acknowledged
# 256 KB messages.
	$(GO) test ./internal/link -run '^$$' -bench 'HandleIncoming|AckedStream' -benchtime 100x -benchmem
# A hundred encodes (fresh and into a warm buffer) and decodes of one
# response with every section set; the allocation bounds are
# alloc_test.go.
	$(GO) test ./internal/wire -run '^$$' -bench 'Encode|Decode' -benchtime 100x -benchmem
# The store's index walk and sorted insert, one serve pass, one Bloom
# test, one heard query and one CDI response's pairs, a hundred
# iterations each.
	$(GO) test ./internal/store ./internal/core ./internal/bloom -run '^$$' -bench 'Match|PutCached|ServePass|BloomContains|HearQuery|CDIPairs' -benchtime 100x -benchmem
# A fired event through Schedule and through a reusable Timer, and one
# frame through the medium with 1, 4 and 16 saturated senders, a
# hundred each; the zero-alloc claims (Reset + Step, a steady-state
# frame) are plain tests.
	$(GO) test ./internal/sim ./internal/radio -run '^$$' -bench 'Engine|MediumFrame' -benchtime 100x -benchmem
# Twenty ARQ windows — eight 1.4 KB frames out, eight acks back — over
# one loopback TCP face, and twenty 896 KB retrievals between two
# nodes on a face mesh (both skip when loopback TCP is unavailable);
# how the writer batches, where acks go and when the link fragments
# are plain tests.
	$(GO) test . ./internal/face -run '^$$' -bench 'FaceBurst|FaceMeshRetrieve' -benchtime 20x -benchmem
# Twenty times a thousand peers attached to a deployment of a
# hundred; what an idle peer may cost is TestIdlePeerCost.
	$(GO) test ./internal/scenario -run '^$$' -bench AddPeer -benchtime 20x -benchmem
# Ten mobility steps of the 10 000-walker city, each walker moved
# through its radio; TestCityWalkersKeepOnePosition pins where they end.
	$(GO) test ./internal/scenario -run '^$$' -bench CityStep -benchtime 10x -benchmem

# loc prints the tracked size metric (ROADMAP: "non-test line count is a
# tracked metric"): lines of non-test Go per package of this module, and
# the total. `go list` leaves out _test.go files, testdata and the nested
# benchmarks/ module by itself.
loc:
	@$(GO) list -f '{{$$d := .Dir}}{{.ImportPath}}{{range .GoFiles}} {{$$d}}/{{.}}{{end}}' ./... | \
	while read pkg files; do echo "$$(cat $$files | wc -l) $$pkg"; done | \
	awk '{printf "%7d  %s\n", $$1, $$2; total += $$1} END {printf "%7d  total\n", total}'

# LAYERS folds the stacks `go tool pprof -traces` prints, their values
# in one unit, into each layer's share: a stack goes to its innermost
# pds/internal/<pkg> frame (pds.* frames are "pds"), else to "driver"
# when it holds a main.* frame (the benchmark), else to "runtime".
LAYERS = awk 'function flush() { if (v > 0) { l = layer != "" ? layer : drv ? "driver" : "runtime"; sum[l] += v; total += v } v = 0; layer = ""; drv = 0 } \
	/^-+\+-+$$/ { flush(); next } $$1 ~ /:$$/ { next } { fn = $$1 } NF >= 2 && $$1 ~ /^[0-9]/ { v = $$1 + 0; fn = $$2 } \
	layer == "" && match(fn, /^pds\/internal\/[a-z0-9_]+\./) { layer = substr(fn, 14, RLENGTH - 14) } \
	layer == "" && fn ~ /^pds\./ { layer = "pds" } fn ~ /^main\./ { drv = 1 } \
	END { flush(); for (l in sum) printf "%6.1f%%  %s\n", 100 * sum[l] / total, l | "sort -rn" }'

# alloc-ledger prints, for each simulator workload of the repo
# benchmark, the ten functions that allocate the most objects over a
# one-second run at seed 1, from the benchmark's own -memprofile: the
# sites an allocation optimisation starts from (ROADMAP item 12); then
# the bytes and the objects folded by layer (LAYERS). memprofilerate=1
# records every allocation, not a sample, so a share reads the same run
# to run. It takes under a minute and stays out of CI.
alloc-ledger:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for w in sim-pdd-flood sim-pdr-bulk sim-city-idle; do \
		GODEBUG=memprofilerate=1 $(GO) run -C benchmarks pds/benchmarks -workload $$w -seconds 1 -memprofile $$tmp >/dev/null || exit 1; \
		p=$$tmp/$$w.mem.pprof; \
		echo "== $$w"; \
		$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=10 $$p || exit 1; \
		for i in alloc_space alloc_objects; do \
			echo "== $$w: $$i by layer"; \
			$(GO) tool pprof -sample_index=$$i -unit=B -traces $$p 2>/dev/null | $(LAYERS); \
		done; \
	done

# cpu-ledger prints, for each simulator workload of the repo benchmark,
# where a four-second run at seed 1 spends its CPU, from the benchmark's
# own -cpuprofile: this module's top 25 functions by cumulative share,
# the top 10 of all by flat share, the samples folded by layer (LAYERS)
# and the "alloc + GC" share, the cumulative shares of runtime.mallocgc
# and runtime.gcBgMarkWorker added up (ROADMAP item 12). RUNS=k profiles
# each workload k times: it prints each run's alloc + GC line and reads
# the tables off the k profiles merged (pprof merges several inputs),
# so the three readings an allocation claim quotes come from one
# command. Shares are sampled (about 500 samples a run) and a layer's
# moves two to five points run to run: they locate a site and never
# prove a gain. It takes about a minute a run and stays out of CI.
RUNS ?= 1
ALLOC_GC = awk '$$6 == "runtime.mallocgc" || $$6 == "runtime.gcBgMarkWorker" { s += $$5 } END { printf "%.1f%%\n", s }'
cpu-ledger:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for w in sim-pdd-flood sim-pdr-bulk sim-city-idle; do \
		p=; \
		for r in $$(seq $(RUNS)); do \
			mkdir -p $$tmp/$$r; \
			$(GO) run -C benchmarks pds/benchmarks -workload $$w -seconds 4 -cpuprofile $$tmp/$$r >/dev/null || exit 1; \
			p="$$p $$tmp/$$r/$$w.cpu.pprof"; \
			echo "== $$w: run $$r alloc + GC $$($(GO) tool pprof -top -cum -nodefraction=0 $$tmp/$$r/$$w.cpu.pprof 2>/dev/null | $(ALLOC_GC))"; \
		done; \
		echo "== $$w: by cumulative share"; \
		$(GO) tool pprof -top -cum -nodefraction=0 $$p 2>/dev/null | sed -n '/flat%/p; / pds\//p' | head -n 26; \
		echo "== $$w: by flat share"; \
		$(GO) tool pprof -top -nodecount=10 $$p 2>/dev/null | sed -n '/flat%/,$$p'; \
		echo "== $$w: by layer"; \
		$(GO) tool pprof -unit=ns -traces $$p 2>/dev/null | $(LAYERS); \
		echo "== $$w: alloc + GC $$($(GO) tool pprof -top -cum -nodefraction=0 $$p 2>/dev/null | $(ALLOC_GC))"; \
	done

# ledger-seeds runs the paper ledger (TestPaperClaims) once per seed in
# SEEDS, with every figure's CI rows built at that seed (-ledger-seed),
# and prints for each claim at how many of the seeds its rows hold it,
# gaps marked, and the seeds where the ledger's verdict is off: where a
# claim fails or a gap holds (ROADMAP item 15). Tier-1 runs seed 1
# only: a verdict that flips at another seed is printed, never failed
# on. About 30 s a seed on 2 CPUs; it stays out of CI.
SEEDS ?= 1 2 3 4 5 6 7 8
ledger-seeds:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for s in $(SEEDS); do \
		$(GO) test ./internal/scenario -run '^TestPaperClaims$$' -ledger-seed $$s -count 1 -v > $$tmp/$$s; \
		grep -q 'ledger: holds=' $$tmp/$$s || { cat $$tmp/$$s; exit 1; }; \
	done; \
	cd $$tmp && awk -v n=$(words $(SEEDS)) ' \
		$$1 == "===" && $$3 ~ /^TestPaperClaims\// { id = substr($$3, 17) } \
		/ ledger: holds=/ { if (!(id in held)) { order[++k] = id; held[id] = 0 } \
			holds = /holds=true/; gap[id] = /gap=true/; held[id] += holds; \
			if (holds == gap[id]) off[id] = off[id] " " FILENAME } \
		END { for (i = 1; i <= k; i++) { id = order[i]; \
			printf "%-45s %-5s holds at %d/%d%s\n", id, gap[id] ? "gap" : "claim", held[id], n, \
				off[id] == "" ? "" : "   off at" off[id] } }' $(SEEDS)

# golden rewrites internal/scenario/testdata/figure_rows.golden from the
# current runners. Re-pin protocol (DESIGN.md §11): the golden moves only
# in a commit that touches no other file, and whose message carries the
# before/after row diff (the `git diff` printed last) and why each cell
# moved. A code change that moves a row is two commits: the code, then
# `make golden`. The rewrite first checks the paper ledger
# (TestPaperClaims) and refuses while a claim fails; the ledger's own run
# then prints which claim and what the rows read.
golden:
	$(GO) test ./internal/scenario -run 'TestFigureRowsGolden|TestPaperClaims' -update-golden
	git --no-pager diff -- internal/scenario/testdata/figure_rows.golden

# fuzz runs short bursts of the fuzzers: the Bloom filter's one-loop
# hash pair against hash/fnv, the codec and its two frame shapes (one
# buffer, or segments around the payloads), the checksummed framing above it
# that both socket carriers receive through (wire.DecodeChecked, driven
# from udptransport's datagram corpus), the link's receive path fed
# whatever two frames decode to, the persistent store's record framing,
# and the two CLI spec grammars (fault plans and workload specs). CI runs
# this list too, with FUZZTIME=10s.
fuzz:
	$(GO) test ./internal/bloom -fuzz FuzzHashPair -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -fuzz FuzzDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -fuzz FuzzSplit -fuzztime $(FUZZTIME)
	$(GO) test ./internal/udptransport -fuzz FuzzDecodeDatagram -fuzztime $(FUZZTIME)
	$(GO) test ./internal/link -fuzz FuzzHandleIncoming -fuzztime $(FUZZTIME)
	$(GO) test ./internal/diskstore -fuzz FuzzSegmentDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fault -fuzz FuzzParsePlan -fuzztime $(FUZZTIME)
	$(GO) test ./internal/workload -fuzz FuzzParseSpec -fuzztime $(FUZZTIME)

# bench regenerates every figure with machine-readable output in
# BENCH_PDS.json (wall time and allocation counters per figure), plus
# the diskstore micro-benchmarks. Override BENCH_RUNS / BENCH_SIZE for
# quicker or heavier sweeps.
bench:
	$(GO) run ./cmd/pds-bench -json -runs $(BENCH_RUNS) -size $(BENCH_SIZE) all
	$(GO) test ./internal/diskstore -run '^$$' -bench . -benchmem

# benchdiff is the benchmark-regression gate: it compares the fresh
# BENCH_PDS.json (run `make bench` first) against the committed
# BENCH_BASELINE.json and fails when a figure's allocation count or
# allocated bytes rise by more than 10% — both repeat per seed on any
# host. Wall time is printed beside them and decides nothing.
# Regenerate the baseline with `make baseline` after an intentional
# cost change, at the CI settings (BENCH_RUNS=1 BENCH_SIZE=1) so figure
# costs stay comparable.
benchdiff:
	$(GO) run ./cmd/pds-benchdiff BENCH_BASELINE.json BENCH_PDS.json

baseline:
	$(GO) run ./cmd/pds-bench -json -runs 1 -size 1 all
	cp BENCH_PDS.json BENCH_BASELINE.json

# ab measures the working tree against commit REV on this host: it
# builds pds-bench from a `git archive` of REV and from the working tree,
# runs figure FIG at `-runs 1 -size 1 -json` PAIRS times on each side,
# alternating (odd pairs run REV first, even pairs the change), and hands
# the reports to `pds-benchdiff -ab`, which prints each pair's wall time
# and mallocs, the medians, how many pairs the change won on wall time,
# and whether every series row is byte-identical. Host time is claimed
# only from such pairs (ROADMAP item 2), and nothing here gates.
# Example: `make ab REV=HEAD~1 FIG=fig11 PAIRS=10`.
ab:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir $$tmp/src $$tmp/base $$tmp/change; \
	git archive $(REV) | tar -x -C $$tmp/src || exit 1; \
	$(GO) build -C $$tmp/src -o $$tmp/base/pds-bench ./cmd/pds-bench || exit 1; \
	$(GO) build -o $$tmp/change/pds-bench ./cmd/pds-bench || exit 1; \
	reports=; \
	for i in $$(seq $(PAIRS)); do \
		if [ $$((i % 2)) = 1 ]; then order="base change"; else order="change base"; fi; \
		for side in $$order; do \
			(cd $$tmp/$$side && ./pds-bench -runs 1 -size 1 -json $(FIG) >/dev/null) || exit 1; \
			mv $$tmp/$$side/BENCH_PDS.json $$tmp/$$side-$$i.json; \
		done; \
		reports="$$reports $$tmp/base-$$i.json $$tmp/change-$$i.json"; \
	done; \
	$(GO) run ./cmd/pds-benchdiff -ab $$reports

# compare runs the routing × caching strategy matrix (see DESIGN.md
# §16): the seven compare/<scenario> figures, one row per strategy pair.
compare:
	$(GO) run ./cmd/pds-bench -runs $(BENCH_RUNS) -size $(BENCH_SIZE) compare
