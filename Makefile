GO ?= go
BENCH_HISTORY ?= BENCH_reach.json
FUZZTIME ?= 10s
WORKERS ?= 1
OBS_PAR_ADDR ?= 127.0.0.1:6171
OBS_QUALITY_ADDR ?= 127.0.0.1:6172

SERVE_ADDR ?= 127.0.0.1:6173

.PHONY: check test vet build race fuzz-smoke gauntlet-smoke bench-save bench-cmp obs-smoke obs-par-smoke obs-quality-smoke profile-smoke serve-smoke

## check: vet, build, test everything, race-test the BDD core and the
## oracle stress driver, smoke the fuzz targets and the generator
## gauntlet (counts checked against independent ground truths), then
## smoke the observability layer end to end (trace schema + required
## spans, structural profiler, parallel telemetry + Amdahl breakdown,
## quality ledger + Prometheus exposition, benchmark trajectory and
## scaling curve in advisory mode) and the multi-tenant service daemon
## (round trip, forced budget-degrade, tenant isolation, graceful drain).
check: vet build test race fuzz-smoke gauntlet-smoke obs-smoke obs-par-smoke obs-quality-smoke profile-smoke serve-smoke
	$(GO) run ./cmd/tables -bench-cmp $(BENCH_HISTORY) -bench-advisory
	$(GO) run ./cmd/tables -speedup $(BENCH_HISTORY) -bench-advisory

## vet: static analysis plus race-testing the obs registry/tracer, whose
## lock-free fast paths no other target race-tests (`race` covers the BDD
## core). The benchmark in perfbench/ is a nested module that the root
## `./...` never compiles, so it is vetted (and, in `test`, tested) on its
## own: it calls the count, reach, approx and decomp APIs directly.
vet:
	$(GO) vet ./...
	$(GO) -C perfbench vet ./...
	$(GO) test -race -count=1 ./internal/obs/...

build:
	$(GO) build ./...

test:
	$(GO) test ./...
	$(GO) -C perfbench test -short ./...

## race: the memory-model half of the parallel-engine checks — the BDD
## core's own tests, the oracle differential + concurrent stress drivers
## (several clients hammering one Workers=4 manager while GC and
## reordering fire), and the parallel image path in reach.
race:
	$(GO) test -race -count=1 ./internal/bdd ./internal/oracle ./internal/count ./internal/serve
	$(GO) test -race -count=1 -run Parallel ./internal/reach

## fuzz-smoke: run each native fuzz target briefly ($(FUZZTIME) apiece) on
## top of its checked-in seed corpus under testdata/fuzz/. This is a smoke
## pass for `make check`; leave a target running with e.g.
## `go test ./internal/oracle -run '^$$' -fuzz FuzzLoad` to really dig.
fuzz-smoke:
	$(GO) test ./internal/oracle -run '^$$' -fuzz 'FuzzLoad$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/oracle -run '^$$' -fuzz 'FuzzNetlistParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/oracle -run '^$$' -fuzz 'FuzzITESequence$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/oracle -run '^$$' -fuzz 'FuzzGauntletParams$$' -fuzztime $(FUZZTIME)

## gauntlet-smoke: build every small gauntlet instance with bddcount and
## verify each exact count against its independent ground truth (published
## N-Queens sequence, brute-force Life simulation, DFS cycle enumeration,
## closed-form adder-miter arithmetic), then exercise the sampling and
## weighted paths once each.
gauntlet-smoke:
	$(GO) build -o /tmp/bddkit-bddcount ./cmd/bddcount
	/tmp/bddkit-bddcount -family queens -n 6 -check >/dev/null
	/tmp/bddkit-bddcount -family queens -n 7 -check -workers 4 >/dev/null
	/tmp/bddkit-bddcount -family life -rows 3 -cols 3 -check >/dev/null
	/tmp/bddkit-bddcount -family hamilton-grid -rows 2 -cols 3 -check >/dev/null
	/tmp/bddkit-bddcount -family hamilton-knight -rows 3 -cols 3 -check >/dev/null
	/tmp/bddkit-bddcount -family equiv-adder -n 8 -check >/dev/null
	/tmp/bddkit-bddcount -family equiv-adder -n 8 -fault -check >/dev/null
	/tmp/bddkit-bddcount -family queens -n 5 -mode sample -samples 20 -seed 7 -check >/dev/null
	/tmp/bddkit-bddcount -family life -rows 3 -cols 3 -mode weighted -bias 0.25 >/dev/null
	$(GO) run ./cmd/tables -table gauntlet >/dev/null
	@echo "gauntlet-smoke OK"

## bench-save: run Table 1 (small scale) and append a schema-versioned
## record to the benchmark trajectory file. Run twice (or on two commits)
## and `make bench-cmp` diffs the latest pair. Records are tagged with
## $(WORKERS); save at WORKERS=1 and WORKERS=4 to feed `tables -speedup`.
bench-save:
	$(GO) run ./cmd/tables -table 1 -workers $(WORKERS) -bench-save $(BENCH_HISTORY) >/dev/null

## bench-cmp: compare the two most recent trajectory records; fails on a
## >15% wall-time or >25% peak-node regression (beyond absolute floors).
bench-cmp:
	$(GO) run ./cmd/tables -bench-cmp $(BENCH_HISTORY)

## obs-smoke: end-to-end check of the observability layer — run a real
## traversal with -trace and per-iteration profiles, validate the JSONL
## schema and span coverage, and render the traceview rollup.
obs-smoke:
	$(GO) run ./cmd/reach -in testdata/counter.net -method hd-rua -threshold 20 \
		-budget 30s -profile -trace /tmp/bddkit-obs-smoke.jsonl >/dev/null
	$(GO) run ./cmd/obscheck -quiet \
		-require reach.cluster,reach.iteration,reach.image,reach.subset,reach.profile,approx.rua \
		/tmp/bddkit-obs-smoke.jsonl
	$(GO) run ./cmd/traceview summary /tmp/bddkit-obs-smoke.jsonl | head -20

## obs-par-smoke: end-to-end check of the parallel observability stack —
## run a Workers=4 traversal with sampling armed and the live endpoint up
## (-obs-linger keeps it serving briefly after the run so the curls always
## land), scrape /parallel and /metrics, validate the v2 trace vocabulary
## (bdd.contention is always emitted on a parallel run), and render the
## Amdahl stop-the-world breakdown.
obs-par-smoke:
	$(GO) build -o /tmp/bddkit-reach-par ./cmd/reach
	/tmp/bddkit-reach-par -in testdata/counter.net -method bfs -workers 4 \
		-par-sample 64 -obs $(OBS_PAR_ADDR) -obs-linger 6s \
		-trace /tmp/bddkit-obs-par-smoke.jsonl >/dev/null & \
	pid=$$!; \
	ok=1; \
	for i in $$(seq 1 50); do \
		if curl -sf http://$(OBS_PAR_ADDR)/parallel >/tmp/bddkit-par-smoke-parallel.json 2>/dev/null \
			&& grep -q '"workers": *4' /tmp/bddkit-par-smoke-parallel.json; then ok=0; break; fi; \
		sleep 0.1; \
	done; \
	if [ $$ok -ne 0 ]; then echo "obs-par-smoke: /parallel never reported workers=4"; kill $$pid 2>/dev/null; exit 1; fi; \
	curl -sf http://$(OBS_PAR_ADDR)/metrics | grep -q 'bdd_stw_total' || { echo "obs-par-smoke: /metrics missing bdd_stw_total"; kill $$pid 2>/dev/null; exit 1; }; \
	wait $$pid
	$(GO) run ./cmd/obscheck -quiet -require bdd.contention /tmp/bddkit-obs-par-smoke.jsonl
	$(GO) run ./cmd/traceview amdahl /tmp/bddkit-obs-par-smoke.jsonl
	@echo "obs-par-smoke OK"

## obs-quality-smoke: end-to-end check of the quality-of-result telemetry —
## run the approximation corpus (Table 2, which includes the hwb functions)
## with the ledger armed and the live endpoint up, scrape /metrics twice
## and lint the Prometheus exposition (including counter monotonicity
## across the pair) with `obscheck -prom`, check /quality reports ledger
## operations, and validate the schema-v3 quality.op events in the trace.
obs-quality-smoke:
	$(GO) build -o /tmp/bddkit-tables-q ./cmd/tables
	$(GO) build -o /tmp/bddkit-obscheck-q ./cmd/obscheck
	/tmp/bddkit-tables-q -table 2 -obs $(OBS_QUALITY_ADDR) -obs-linger 6s \
		-trace /tmp/bddkit-obs-quality-smoke.jsonl >/dev/null & \
	pid=$$!; \
	ok=1; \
	for i in $$(seq 1 50); do \
		if curl -sf http://$(OBS_QUALITY_ADDR)/metrics >/tmp/bddkit-quality-metrics-1.txt 2>/dev/null \
			&& grep -q 'quality_ops_total' /tmp/bddkit-quality-metrics-1.txt; then ok=0; break; fi; \
		sleep 0.1; \
	done; \
	if [ $$ok -ne 0 ]; then echo "obs-quality-smoke: /metrics never served quality_ops_total"; kill $$pid 2>/dev/null; exit 1; fi; \
	sleep 1; \
	curl -sf http://$(OBS_QUALITY_ADDR)/metrics >/tmp/bddkit-quality-metrics-2.txt || { echo "obs-quality-smoke: second /metrics scrape failed"; kill $$pid 2>/dev/null; exit 1; }; \
	curl -sf http://$(OBS_QUALITY_ADDR)/quality >/tmp/bddkit-quality-snapshot.json || { echo "obs-quality-smoke: /quality scrape failed"; kill $$pid 2>/dev/null; exit 1; }; \
	grep -q '"per_op"' /tmp/bddkit-quality-snapshot.json || { echo "obs-quality-smoke: /quality missing per_op aggregates"; kill $$pid 2>/dev/null; exit 1; }; \
	wait $$pid
	/tmp/bddkit-obscheck-q -prom -quiet /tmp/bddkit-quality-metrics-1.txt /tmp/bddkit-quality-metrics-2.txt
	/tmp/bddkit-obscheck-q -quiet -require quality.op /tmp/bddkit-obs-quality-smoke.jsonl
	@echo "obs-quality-smoke OK"

## serve-smoke: end-to-end check of the bddserve daemon — build a tenant
## up from a netlist through ops/approx/count/snapshot/restore, force a
## budget-degrade on a starved tenant (degradation marker in the envelope,
## loss on the quality ledger, counts on /metrics which must lint clean
## under `obscheck -prom`), verify a concurrent tenant stays exact, and
## drain the daemon gracefully on SIGTERM. Artifacts (server log, metrics
## scrapes, snapshot) land under /tmp/bddkit-serve-smoke*.
serve-smoke:
	sh scripts/serve-smoke.sh $(SERVE_ADDR)

## profile-smoke: exercise the structural profiler — forest profile with
## the live-node cross-check, plus a single-output profile after RUA.
profile-smoke:
	$(GO) run ./cmd/bddlab -in testdata/counter.net -profile text | tail -3
	$(GO) run ./cmd/bddlab -in testdata/counter.net -out tc -approx rua -profile text >/dev/null
	@echo "profile-smoke OK"
