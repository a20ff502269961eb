GO ?= go

.PHONY: check build app-sites transport-seam race-seam fleet-seam vet ppmvet vet-report vet-score langcheck test race race-parallel bench bench-check bench-pairs bench-steady plancache-equiv fuzz-smoke dist-smoke server-smoke chaos rescale-smoke figures codesize

## check: the tier-1 gate — build, static analysis (go vet + the
## phase-semantics analyzers over both front ends, the
## one-descriptor-per-application rule, the one-link-per-peer rule, the
## one-race-engine rule and the one-fleet-supervisor rule) and race-test.
check: build app-sites transport-seam race-seam fleet-seam vet ppmvet langcheck race

build:
	$(GO) build ./...

## app-sites: an application is described once — its package under
## internal/apps and its entries in the two apps.go tables — and
## everything else looks it up. A `case "cg"` or a second "cg-grid"
## anywhere else in product code is a switch or a flag growing back;
## the offending lines are printed.
app-sites:
	@! grep -rn --include='*.go' -e 'case "cg"' -e '"cg-grid"' cmd internal \
		| grep -v -e '_test\.go:' -e '^internal/apps/' -e '^internal/dist/apps\.go:' -e '^internal/jobspec/apps\.go:'

## transport-seam: each peer connection is one link. Outside link.go
## (the link) and mesh.go (dial, accept, handshake) no internal/dist
## product file touches a socket (`net.` or `.conn`), and none encodes
## bytes itself (encoding/binary: framing is internal/wire's, fault
## framing internal/faultinject's); the offending lines are printed.
transport-seam:
	@out=$$( { grep -n -e '\bnet\.' -e '\.conn\b' internal/dist/*.go \
			| grep -v -e '_test\.go:' -e '^internal/dist/link\.go:' -e '^internal/dist/mesh\.go:'; \
		grep -n 'encoding/binary' internal/dist/*.go | grep -v '_test\.go:'; } ); \
	if [ -n "$$out" ]; then echo "$$out"; exit 1; fi

## race-seam: one phase-race engine under both front ends.
## internal/phaserace owns the pair verdict and imports nothing from ppm/
## or go/; ppmc does not link go/ast, go/types or internal/analysis; and
## neither internal/lang nor internal/analysis declares a verdict of its
## own (a verdict type, or a pairVerdict / solveTerms / solveOne /
## pointPair / intervalPair / strideVerdict func). The offending lines
## are printed.
race-seam:
	@out=$$( { $(GO) list -deps ./cmd/ppmc | grep -x -e 'go/ast' -e 'go/types' -e 'ppm/internal/analysis'; \
		$(GO) list -f '{{join .Imports "\n"}}{{"\n"}}{{join .TestImports "\n"}}' ./internal/phaserace | grep -e '^ppm/' -e '^go/'; \
		grep -nE -e '^[[:space:]]*type verdict\b' \
			-e '^func (\([^)]*\) )?(pairVerdict|solveTerms|solveOne|pointPair|intervalPair|strideVerdict)\(' \
			internal/lang/*.go internal/analysis/*.go; } ); \
	if [ -n "$$out" ]; then echo "$$out"; exit 1; fi

## fleet-seam: one fleet supervisor. Host processes are started, their
## replies collected and failed jobs retried only in
## internal/dist/fleet.go (StartFleet, Fleet.Run, Supervisor): no other
## product file under cmd/ or internal/ calls StartHost, receives from a
## Host's Replies or computes a retry backoff (retryDelay), and nothing in
## internal/server, cmd/ppm-run or cmd/ppm-server sleeps. The offending
## lines are printed.
fleet-seam:
	@out=$$( { grep -rn --include='*.go' -e '\.StartHost(' -e '\.Replies\b' -e 'retryDelay(' cmd internal \
			| grep -v -e '_test\.go:' -e '^internal/dist/fleet\.go:'; \
		grep -rn --include='*.go' 'time\.Sleep(' internal/server cmd/ppm-run cmd/ppm-server | grep -v '_test\.go:'; } ); \
	if [ -n "$$out" ]; then echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

## ppmvet: phase-semantics static analysis of Go PPM programs — every
## analyzer over the whole tree (apps, examples, commands, runtime); any
## finding fails. Fix it, or //ppmvet:ignore it with a reason.
ppmvet:
	$(GO) run ./cmd/ppmvet ./...

## vet-report: machine-readable findings report for CI artifacts. Exit
## status is ignored: the report is the product, ppmvet is the gate.
vet-report:
	$(GO) run ./cmd/ppmvet -json ./... > ppmvet-report.json; true

## vet-score: the phase checkers scored against the runtime. The oracle
## test labels a mutant corpus of .ppm programs with StrictWrites at 1-3
## nodes and prints, per front end (ppmc check, and ppmvet on the Go
## ppmc emit produces) and per rule, the conflicts caught and missed and
## the false alarms; the full table is internal/analysis/testdata/
## oracle.golden. The output is kept in vet-score.txt (a CI artifact).
vet-score:
	$(GO) test -count=1 -run 'TestOracleTable' -v ./internal/analysis/ > vet-score.txt; \
		status=$$?; cat vet-score.txt; exit $$status

## langcheck: phase-semantics analysis of the example .ppm programs.
langcheck:
	$(GO) run ./cmd/ppmc check examples/language/*.ppm

test:
	$(GO) test ./...

## race: the suite under the race detector, then the VP scheduler's own
## tests again at 1, 2 and 4 CPUs: the pool has min(K, GOMAXPROCS)
## workers, and with one worker every multi-phase body must still make
## progress. TestBoundaryLine rides along: two owners' concurrent installs
## into the line their partition bound cuts. The last line repeats the
## two tests of the barrier-free phase end, which depend on scheduling: a
## node-level read behind an owner that has not applied yet, and one
## message from each peer per global phase.
race:
	$(GO) test -race ./...
	$(GO) test -race -cpu 1,2,4 -run 'TestLatch|TestNoLeak|TestWarmDo|TestBoundaryLine' ./internal/core/
	$(GO) test -race -cpu 1,2,4 -count=10 -run 'TestNodeReadAfterPhaseSeesApply|TestGlobalPhaseExchanges' ./internal/dist/

## race-parallel: the whole suite under the race detector with the
## parallel in-run scheduler forced on for every cluster.Run. Passing
## means the parallel scheduler is data-race-free AND bit-identical to
## the sequential one on every golden test in the repo. -count=1: the
## variable is read in a package initializer, where the test cache does
## not see it, so a cached `make race` result would otherwise stand in.
race-parallel:
	PPM_PARALLEL=1 $(GO) test -race -count=1 ./...

## bench: the repo's one benchmark (benchmark/, described to the driver
## by BENCHMARK.json): all four workloads, end-to-end metrics. Pass flags
## through ARGS, e.g. `make bench ARGS="-workload mesh-commits -trace 1"`.
bench:
	$(GO) run -C benchmark . $(ARGS)

## bench-check: the benchmark's A/A check — every workload twice, failing
## if an end-to-end metric differs between the two sets by more than its
## bound (the noise floor a claimed gain has to clear on this host).
bench-check:
	$(GO) run -C benchmark . -check $(ARGS)

## bench-pairs: the change (this working tree) against BASE in N
## alternated pairs of benchmark runs, identical benchmark/ on both
## sides: `make bench-pairs BASE=HEAD~1 N=10 ARGS="-workload sim-figures"`.
## Prints each side's median and quartiles and the pairs won, per metric
## (see scripts/bench_pairs.go).
N ?= 10
bench-pairs:
	$(GO) run scripts/bench_pairs.go -base $(BASE) -n $(N) -- $(ARGS)

## bench-steady: the steady-state gate (cold vs warm phase iteration
## costs; see steady_bench_test.go): warm CG and Jacobi iterations
## allocate nothing and run at least 1.5x (CG) and 1.25x (Jacobi) faster
## than cold (plan cache off).
bench-steady:
	BENCH_STEADY=1 $(GO) test -run TestSteadyBenchArtifact -v .

## plancache-equiv: the figure-app equivalence matrix with the plan
## cache forced off and forced on — both must be green, proving the
## cache changes no observable bit anywhere in the suite.
plancache-equiv:
	PPM_PLAN_CACHE=0 $(GO) test -count=1 -run 'Equivalence|MatchesSimulator|TestPlanCache|TestFleetPlanCache' . ./internal/core/ ./internal/dist/
	PPM_PLAN_CACHE=1 $(GO) test -count=1 -run 'Equivalence|MatchesSimulator|TestPlanCache|TestFleetPlanCache' . ./internal/core/ ./internal/dist/

## fuzz-smoke: every native fuzz target, in every package that has
## one, for 5 s each (`go test -fuzz` takes one target per invocation):
## the wire decoders (internal/wire/fuzz_test.go), the job protocol
## (internal/jobspec/fuzz_test.go) and the .ppm front end
## (internal/lang/fuzz_test.go). The seed corpora already run as
## ordinary tests under `go test ./...`; this lets the engine mutate
## them. A crasher lands in the package's testdata/fuzz and is checked
## in with its fix. Listing no target at all is a failure, not a pass.
fuzz-smoke:
	@found=; \
	for pkg in $$(grep -rl --include='*_test.go' '^func Fuzz' cmd internal | xargs -r -n1 dirname | sort -u); do \
		list=$$($(GO) test -list '^Fuzz' ./$$pkg/) || exit 1; \
		for f in $$(echo "$$list" | grep '^Fuzz'); do \
			found=1; \
			echo "== $$pkg $$f"; \
			$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime 5s ./$$pkg/ || exit 1; \
		done; \
	done; \
	test -n "$$found" || { echo "fuzz-smoke: no fuzz target listed under cmd/ or internal/"; exit 1; }

## dist-smoke: real multi-process runs — 2 ppm-node processes over
## loopback TCP solving a small cg point, launched by ppm-run (which
## hands each the job as -spec-json), once with the default wire path
## and once with the delta commit codec; a jacobi run; the two apps that
## live on the demand-read path, whose phases no recorded plan can
## prefetch: the Section 5 search and one Barnes-Hut step; then colloc
## and scatter, the one app whose commit streams are not empty.
dist-smoke:
	$(GO) build -o bin/ ./cmd/ppm-run ./cmd/ppm-node
	./bin/ppm-run -distributed -app cg -nodes 2 -cores 2 -cg-grid 8x8x8 -cg-iters 6
	./bin/ppm-run -distributed -app cg -nodes 2 -cores 2 -cg-grid 8x8x8 -cg-iters 6 -wire-codec delta
	./bin/ppm-run -distributed -app jacobi -nodes 2 -cores 2 -jacobi-grid 10x6x4 -jacobi-sweeps 6
	./bin/ppm-run -distributed -app search -nodes 2 -search-n 65536 -search-k 512
	./bin/ppm-run -distributed -app nbody -nodes 2 -bh-n 600 -bh-steps 1
	./bin/ppm-run -distributed -app colloc -nodes 2 -cores 2 -colloc-levels 4 -colloc-m0 6
	./bin/ppm-run -distributed -app scatter -nodes 2 -cores 2 -scatter-n 1200 -scatter-iters 3

## server-smoke: the full-binary serving path — a real ppm-server
## process fronting warm serve-mode ppm-node fleets, driven over HTTP:
## cg + jacobi + scatter submitted concurrently, a duplicate served
## from the content-addressed cache, every Series diffed bit-for-bit
## against direct `ppm-run -spec -json`, and a SIGTERM drain. Writes
## the /metrics snapshot to server-metrics.json (CI artifact).
server-smoke:
	PPM_SERVER_SMOKE=1 PPM_SERVER_METRICS_OUT=$(CURDIR)/server-metrics.json \
		$(GO) test -count=1 -run TestServerSmoke -v ./internal/server/

## chaos: the seeded fault matrix under the race detector — injected
## drop/delay/dup/trunc/partition/kill faults against real ppm-node
## fleets, plus the kill-recovery and fast-partition-abort scenarios.
## Deterministic (seeded rng streams), so a failure replays exactly.
chaos:
	PPM_CHAOS=1 $(GO) test -race -run 'TestChaosMatrix|TestSubprocessKillRecovery|TestSubprocessPartitionAborts|TestHeartbeat|TestFetchTimeout|TestCommitWaitTimeout' -v ./internal/dist/

## rescale-smoke: elastic-rescale recovery under the race detector — a
## 3-process fleet loses host 2 permanently (killhost re-arms on every
## relaunch), the supervisor blames it for two failed attempts, rescales
## to 2 host processes (rank 2 restored from its checkpoint onto host 1),
## and cg/jacobi/scatter finish bit-identical to an uninterrupted 3-rank
## run. Also pins the floor error (a dead host at 1 process) and the
## in-process rescaled-restore identity, then runs the same supervisor
## behind the job server: a retry after a fleet kill, a rescaled retry,
## and an operator stop that is not retried.
rescale-smoke:
	$(GO) test -race -count=1 -run 'TestSubprocessRescale|TestRescaled' -v ./internal/dist/
	$(GO) test -race -count=1 -run 'TestServerJobRetry' -v ./internal/server/

## figures: print the paper's figure sweeps.
figures:
	$(GO) run ./cmd/ppm-figures

## codesize: print Table 1 (counted lines of each app's ppm.go and
## mpi.go). TestTable1FromRepo requires PPM < 0.95 x MPI per app.
codesize:
	$(GO) run ./cmd/ppm-codesize
