GO ?= go
FUZZTIME ?= 10s

SERVE_ADDR ?= 127.0.0.1:6173

.PHONY: check test vet build race fuzz-smoke gauntlet-smoke obs-smoke profile-smoke serve-smoke

## check: vet, build, test everything, race-test the BDD core and the
## oracle stress driver, smoke the fuzz targets and the generator
## gauntlet (counts checked against independent ground truths), then
## smoke the observability layer end to end (trace schema + required
## spans, each cmd's session wiring, structural profiler) and the
## multi-tenant service daemon (round trip, forced budget-degrade, tenant
## isolation, graceful drain). The quality ledger and the Prometheus
## exposition are checked end to end by internal/obs's session tests,
## which `test` runs and `vet` race-tests. Table 1 at test scale, every
## traversal complete with one state count per row, is TestTable1SmallRuns
## in `test`; performance is perfbench's (see BENCHMARK.json).
check: vet build test race fuzz-smoke gauntlet-smoke obs-smoke profile-smoke serve-smoke

## vet: static analysis plus race-testing the obs registry/tracer, whose
## lock-free fast paths no other target race-tests (`race` covers the BDD
## core), the obs session tests, which run sessions side by side, and
## bddtop's frames, which scrape a live session between manager work.
## The benchmark in perfbench/ is a nested module that the root `./...`
## never compiles, so it is vetted (and, in `test`, tested) on its own:
## it calls the count, reach, approx and decomp APIs directly.
vet:
	$(GO) vet ./...
	$(GO) -C perfbench vet ./...
	$(GO) test -race -count=1 ./internal/obs/... ./cmd/bddtop

build:
	$(GO) build ./...

## test: -count=1, because Go's test cache does not key on GOMAXPROCS, so
## a cached result made at one GOMAXPROCS would stand in for another.
test:
	$(GO) test -count=1 ./...
	$(GO) -C perfbench test -short ./...

## race: the BDD core's own tests, the oracle differential driver, the
## counting sweeps and the service (whose HTTP handlers and admission run
## on their own goroutines, and whose /metrics scrapes run beside a
## tenant's operations), a node-budget abort inside an image, and
## the traversals and the sifts a Run's deadline or cancellation ends,
## the first-image sift of a transition relation included (the
## context.AfterFunc goroutine raises the flag the traversal and siftVar
## poll).
race:
	$(GO) test -race -count=1 ./internal/bdd ./internal/oracle ./internal/count ./internal/serve
	$(GO) test -race -count=1 -run 'TestBudgetAbortDumpHasStackAndLedger|TestNestedRunBoundsTraversal|TestCancelledTraversal|TestSift|TestFirstImageSift|TestNoFirstImageSift' ./internal/reach

## fuzz-smoke: run each native fuzz target briefly ($(FUZZTIME) apiece) on
## top of its checked-in seed corpus under testdata/fuzz/. This is a smoke
## pass for `make check`; leave a target running with e.g.
## `go test ./internal/oracle -run '^$$' -fuzz FuzzLoad` to really dig.
fuzz-smoke:
	$(GO) test ./internal/oracle -run '^$$' -fuzz 'FuzzLoad$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/oracle -run '^$$' -fuzz 'FuzzNetlistParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/oracle -run '^$$' -fuzz 'FuzzITESequence$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/oracle -run '^$$' -fuzz 'FuzzGauntletParams$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz 'FuzzServeRequest$$' -fuzztime $(FUZZTIME)

## gauntlet-smoke: build every small gauntlet instance with bddcount and
## verify each exact count against its independent ground truth (published
## N-Queens sequence, brute-force Life simulation, DFS cycle enumeration,
## closed-form adder-miter arithmetic), then exercise the sampling and
## weighted paths once each.
gauntlet-smoke:
	$(GO) build -o /tmp/bddkit-bddcount ./cmd/bddcount
	/tmp/bddkit-bddcount -family queens -n 6 -check >/dev/null
	/tmp/bddkit-bddcount -family queens -n 7 -check >/dev/null
	/tmp/bddkit-bddcount -family life -rows 3 -cols 3 -check >/dev/null
	/tmp/bddkit-bddcount -family hamilton-grid -rows 2 -cols 3 -check >/dev/null
	/tmp/bddkit-bddcount -family hamilton-knight -rows 3 -cols 3 -check >/dev/null
	/tmp/bddkit-bddcount -family equiv-adder -n 8 -check >/dev/null
	/tmp/bddkit-bddcount -family equiv-adder -n 8 -fault -check >/dev/null
	/tmp/bddkit-bddcount -family queens -n 5 -mode sample -samples 20 -seed 7 -check >/dev/null
	/tmp/bddkit-bddcount -family life -rows 3 -cols 3 -mode weighted -bias 0.25 >/dev/null
	$(GO) run ./cmd/tables -table gauntlet >/dev/null
	@echo "gauntlet-smoke OK"

## obs-smoke: end-to-end check of the observability layer — run a real
## traversal with -trace and per-iteration profiles, validate the JSONL
## schema and span coverage, and render the traceview rollup. Then check
## that every other cmd builds its managers with its session: each
## -metrics counter grepped below is fed only through a manager's own
## observer or quality ledger, so it reads 0 if a cmd drops that wiring.
## equiv files no ledger records, so its check reads bdd_gc_total on
## testdata/xorpairs.net, whose garbage forces collections.
obs-smoke:
	$(GO) run ./cmd/reach -in testdata/counter.net -method hd-rua -threshold 20 \
		-budget 30s -profile -trace /tmp/bddkit-obs-smoke.jsonl >/dev/null
	$(GO) run ./cmd/obscheck -quiet \
		-require reach.cluster,reach.iteration,reach.image,reach.subset,reach.profile,approx.rua \
		/tmp/bddkit-obs-smoke.jsonl
	$(GO) run ./cmd/traceview summary /tmp/bddkit-obs-smoke.jsonl | head -20
	$(GO) run ./cmd/tables -table 2 -metrics 2>&1 >/dev/null | grep -q '^quality_ops_total [1-9]'
	$(GO) run ./cmd/bddcount -family queens -n 6 -metrics 2>&1 >/dev/null | grep -q '^quality_ops_total [1-9]'
	$(GO) run ./cmd/bddlab -in testdata/counter.net -out tc -approx rua -metrics 2>&1 >/dev/null \
		| grep -q '^quality_ops_total [1-9]'
	$(GO) run ./cmd/mc -in testdata/counter.net -ctl 'AG EF q0' -reachable -metrics 2>&1 >/dev/null \
		| grep -q '^quality_ops_total [1-9]'
	$(GO) run ./cmd/equiv -metrics testdata/xorpairs.net testdata/xorpairs.net 2>&1 >/dev/null \
		| grep -q '^bdd_gc_total [1-9]'
	@echo "obs-smoke OK"

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
