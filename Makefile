GO ?= go

.PHONY: check fmt build app-sites transport-seam race-seam fleet-seam docs-check pairs-check vet ppmvet vet-report vet-score langcheck test race race-parallel bench bench-check bench-pairs bench-steady plancache-equiv fuzz-smoke dist-smoke server-smoke chaos rescale-smoke figures codesize

## check: the tier-1 gate — build, static analysis (go vet + the
## phase-semantics analyzers over both front ends, the
## one-descriptor-per-application rule, the one-link-per-peer rule, the
## one-race-engine rule, the one-fleet-supervisor rule and the docs'
## names), gofmt and race-test.
check: fmt build app-sites transport-seam race-seam fleet-seam docs-check pairs-check vet ppmvet langcheck race

## fmt: every tracked .go file is as gofmt prints it; the files that
## are not are printed.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "$$out"; exit 1; fi

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

## docs-check: README.md, LANGUAGE.md and DESIGN.md name, in backticks,
## no identifier of the module that no longer exists
## (scripts/docs_check.go prints each dead name). Then the fixture
## scripts/testdata/docs_check_dead.md, which names two dead ones, must
## fail it with exactly those two.
docs-check:
	$(GO) run scripts/docs_check.go
	@out=$$($(GO) run scripts/docs_check.go scripts/testdata/docs_check_dead.md 2>&1); \
	if ! echo "$$out" | grep -qx '2 dead names'; then \
		echo "docs-check: the fixture's two dead names went unreported:"; echo "$$out"; exit 1; fi

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

## vet-score: the static checkers scored against the runtime, both
## tables recomputed in full. The oracle test labels a mutant corpus of
## .ppm programs with StrictWrites at 1-3 nodes and prints, per front end
## (ppmc check, and ppmvet on the Go ppmc emit produces) and per rule,
## the conflicts caught and missed and the false alarms
## (internal/analysis/testdata/oracle.golden). The Go mutant test plants
## host-state, retained-slice and stale-read hazards in the examples and
## scores every ppmvet rule against `go run -race` and a run with
## StrictWrites set in the source (testdata/gomutants.golden; the runs
## take a few minutes). Either golden changing fails the
## target. The output is kept in vet-score.txt (a CI artifact).
vet-score:
	$(GO) test -count=1 -run 'TestOracleTable|TestGoMutantTable' -v ./internal/analysis/ -update > vet-score.txt; \
		status=$$?; cat vet-score.txt; \
		git diff --exit-code internal/analysis/testdata/oracle.golden internal/analysis/testdata/gomutants.golden || status=1; \
		exit $$status

## langcheck: phase-semantics analysis of the example .ppm programs.
langcheck:
	$(GO) run ./cmd/ppmc check examples/language/*.ppm

test:
	$(GO) test ./...

## race: the suite under the race detector, then the VP scheduler's own
## tests again at 1, 2 and 4 CPUs: the pool has min(K, GOMAXPROCS)
## workers, and with one worker every multi-phase body must still make
## progress. TestBoundaryLine rides along: two owners' concurrent installs
## into the line their partition bound cuts. The third line repeats the
## two tests of the barrier-free phase end, which depend on scheduling: a
## node-level read behind an owner that has not applied yet, and one
## message from each peer per global phase. The fourth runs the commit
## tests under the parallel simulator scheduler: simulated nodes read each
## other's commit streams between the exchange barrier and the closing
## one, and apply concurrently unless StrictWrites serializes them; with
## them the strict findings (TestStrictFindingsMatchSimulator), which each
## node's coordinator reads out of its VPs and its storage. The fifth repeats the read path, whose pooled buffers the link writer, the
## link reader and the fetching VP hand each other across goroutines. The
## sixth repeats the tests of pooled array storage, which crosses runs and
## goroutines: a run's partitions, node arrays and fetched lines go back
## to the pool when it ends, under the memory lock the read server
## serves from, and the next run draws them on another goroutine, as it
## draws the phase scratch (chunks, write arenas) an earlier run's doRuns
## handed back (TestSecondRunPhaseScratch); with them, a duplicated frame
## of one run must not open the next run's first global phase on one rank
## early. The seventh runs on one P the test that fills every pool with
## garbage before its runs (TestStalePooledScratch): a sync.Pool's first
## Put lands in the putting P's private slot, which a draw on another P
## never sees, so on one P every draw can meet the garbage. The eighth
## repeats two tests of
## what crosses runs and ranks at node level: two ranks whose node-level
## reads of each other's partition wait at once
## (TestNodeReadsAfterLastPhaseCross), and the mailbox dropping the
## messages of collectives that finished in an earlier run
## (TestStaleCollectiveMessagesDropped).
race:
	$(GO) test -race ./...
	$(GO) test -race -cpu 1,2,4 -run 'TestLatch|TestNoLeak|TestWarmDo|TestBoundaryLine|TestLaneHandOver' ./internal/core/
	$(GO) test -race -cpu 1,2,4 -count=10 -run 'TestNodeReadAfterPhaseSeesApply|TestGlobalPhaseExchanges' ./internal/dist/
	PPM_PARALLEL=1 $(GO) test -race -cpu 1,2,4 -count=3 -run 'Strict|Equivalence|FastPath|ScatterCodecMatchesSimulator' ./internal/core/ ./internal/dist/
	$(GO) test -race -cpu 1,2,4 -count=5 -run 'TestFetchRanges|TestLateReadReply|ReadPath' ./internal/dist/ ./internal/core/
	$(GO) test -race -cpu 1,2,4 -count=5 -run 'TestSecondJob|ReadAfterRun|UseAfterRun|TestFetchRanges|TestNextRunWaits|TestSecondRunPhaseScratch' ./internal/dist/ ./internal/core/
	$(GO) test -race -cpu 1 -count=5 -run 'TestStalePooledScratch' ./internal/core/
	$(GO) test -race -cpu 1,2,4 -count=5 -run 'TestNodeReadsAfterLastPhaseCross|TestStaleCollectiveMessagesDropped' ./internal/dist/

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
## Prints each side's median and quartiles, the pairs won and lost and a
## sign-test p, per metric (see scripts/bench_pairs.go). Fails when an
## end-to-end metric loses at p < 0.05 (0 of 6 pairs, at most 1 of 10) by
## more than the base's quartile spread, unless CLAIM names it.
N ?= 10
CLAIM ?=
bench-pairs:
	$(GO) run scripts/bench_pairs.go -base $(BASE) -n $(N) -claim '$(CLAIM)' -- $(ARGS)

## pairs-check: the sign-test p values bench-pairs gates on.
pairs-check:
	$(GO) run scripts/bench_pairs.go -selfcheck

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
## the wire decoders (internal/wire/fuzz_test.go), what a peer sends
## through a live engine's reader (internal/dist/peerframes_fuzz_test.go),
## the job protocol and the result decoders, a Result as the HTTP API
## serves it and a node's NodeReply (FuzzNodeJob and FuzzResultDecode in
## internal/jobspec/fuzz_test.go), a validated spec
## through a work-capped RunLocal (internal/jobspec/runlocal_fuzz_test.go),
## the .ppm front end (internal/lang/fuzz_test.go) and checkpoint restore
## (internal/core/checkpoint_fuzz_test.go). The seed corpora already run as
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
## and scatter, the one app whose commit streams are not empty; last
## examples/jobs/nbody-nonfinite.json, whose result is mostly NaN and
## ±Inf, as its -json line (payloads are base64 of little-endian words);
## then 3 processes: colloc, whose 155 rows deal unevenly over the ranks,
## and search over an array of 65537, dealt 21846 / 21846 / 21845.
dist-smoke:
	$(GO) build -o bin/ ./cmd/ppm-run ./cmd/ppm-node
	./bin/ppm-run -distributed -app cg -nodes 2 -cores 2 -cg-grid 8x8x8 -cg-iters 6
	./bin/ppm-run -distributed -app cg -nodes 2 -cores 2 -cg-grid 8x8x8 -cg-iters 6 -wire-codec delta
	./bin/ppm-run -distributed -app jacobi -nodes 2 -cores 2 -jacobi-grid 10x6x4 -jacobi-sweeps 6
	./bin/ppm-run -distributed -app search -nodes 2 -search-n 65536 -search-k 512
	./bin/ppm-run -distributed -app nbody -nodes 2 -bh-n 600 -bh-steps 1
	./bin/ppm-run -distributed -app colloc -nodes 2 -cores 2 -colloc-levels 4 -colloc-m0 6
	./bin/ppm-run -distributed -app scatter -nodes 2 -cores 2 -scatter-n 1200 -scatter-iters 3
	./bin/ppm-run -distributed -spec examples/jobs/nbody-nonfinite.json -json
	./bin/ppm-run -distributed -app colloc -nodes 3 -cores 2 -colloc-levels 5 -colloc-m0 5
	./bin/ppm-run -distributed -app search -nodes 3 -search-n 65537 -search-k 512

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
