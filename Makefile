GO ?= go

.PHONY: check vet lint spinvet alloccheck build test race fuzz-smoke bench benchsmoke benchcheck profile tables

# Every gate CI runs (.github/workflows/ci.yml), so a local `make check`
# exercises both walks the way CI does: the fuzzers' metered and sampled
# rows run the observed walk, the benchmark gates the plain one.
check: vet lint build test alloccheck race fuzz-smoke benchsmoke benchcheck

# The benchmark under benchmark/ is a module of its own, which `go vet ./...`
# at the root never reaches: it is vetted from its own directory.
vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...

# Static verification of the SPIN safety attributes (paper §2.4): guard
# purity (FUNCTIONAL), handler terminability (EPHEMERAL), and descriptor
# consistency. Any diagnostic fails the build, and so does any file gofmt
# would rewrite.
lint: spinvet
	@unformatted="$$(gofmt -l .)"; [ -z "$$unformatted" ] || \
		{ echo "gofmt -l reports:"; echo "$$unformatted"; exit 1; }
	@for c in $(DOC_CEILINGS); do f="$${c%%:*}"; max="$${c##*:}"; n="$$(wc -c < "$$f")"; \
		[ "$$n" -le "$$max" ] || { echo "lint: $$f is $$n bytes, over its DOC_CEILINGS $$max"; exit 1; }; \
	done

spinvet:
	$(GO) run ./cmd/spinvet ./...

# The documentation diet's ratchet, checked by `make lint`: each file may
# not grow past its byte ceiling. A change may lower a ceiling to the size
# it leaves; raising one needs a CHANGES.md line saying why.
DOC_CEILINGS = DESIGN.md:55236 EXPERIMENTS.md:49040 README.md:22421

# The standing allocation invariants from the fast-path, tracing, fault,
# overload, journal, and remote PRs: a synchronous raise stays 0-alloc
# with tracing off, with the fault policy on, with admission enabled but
# no policy, with the journal off or lifecycle-only, and with the remote
# subsystem compiled in and serving — and trace recording itself never
# allocates; plus the frame path's budgets (simulator, wire, scheduler,
# UDP echo, TCP segment, keep-alive GET, and the bytes of a 16 KiB GET).
# AllocsPerRun is unreliable under the race detector, so this runs without
# -race.
#
# The gates are selected by name, so the target first counts what the
# pattern selects and fails below ALLOC_GATES: renaming a gate out of the
# pattern then breaks CI instead of silently dropping the gate. Raise the
# floor when adding a gate.
ALLOC_PATTERN = ZeroAlloc|DoesNotAllocate|AllocBudget
ALLOC_GATES = 27
alloccheck:
	@listing="$$($(GO) test -list '$(ALLOC_PATTERN)' ./...)" || { echo "$$listing"; exit 1; }; \
	n="$$(echo "$$listing" | grep -c '^Test')"; \
	[ "$$n" -ge $(ALLOC_GATES) ] || \
		{ echo "alloccheck: '$(ALLOC_PATTERN)' selects $$n tests, floor is $(ALLOC_GATES)"; exit 1; }
	$(GO) test -run '$(ALLOC_PATTERN)' -count=1 ./...

build:
	$(GO) build ./...

# Shuffled, like every gate below that runs the whole tree: a test that
# leans on another's leftovers fails here rather than on a reorder.
test:
	$(GO) test -shuffle=on ./...

# The one race gate: the whole tree under the race detector, twice, with no
# name selection — a renamed test cannot leave it. Plan swaps race against
# raises, trace toggles against both, the striped counters against Stats(),
# the scheduler's watchdogs against ticks; quarantine and probation
# recompiles, the admission soak at ~10x drain capacity, journal group
# commit and replay, the remote breaker/dedup/partition drills and the
# many-event install-versus-raise soak all run here. The dispatch and sched
# packages then run once more at GOMAXPROCS 2 whatever the host's core
# count, so the dispatcher's concurrency and frame-cell tests (parallel
# raises of one event, Stats racing raises) and the scheduler's Kill from a
# watchdog goroutine against a tick's two lock rounds interleave on two Ps;
# again whole packages, no name selection.
race:
	$(GO) test -race -shuffle=on -count=2 ./...
	$(GO) test -race -shuffle=on -cpu 2 ./internal/dispatch ./internal/sched

# A short differential-fuzzing pass over the dispatch code generator: the
# optimized plans (peephole, reordering, inlining, bypass, guard index,
# plain and observed stencil with and without its fault barrier, sampled
# and metered raises) must agree
# with naive reference evaluation; over journal replay; and over the
# simulator's event heap, which must fire in stable instant order. Go runs
# one fuzz target per invocation.
#
# The targets are discovered, not listed: the target counts what
# `go test -list '^Fuzz'` finds, fails below FUZZ_TARGETS, and loops over
# what it found, so a renamed target cannot leave the gate and a new one
# joins it. Raise the floor when adding a target.
FUZZ_TARGETS = 5
FUZZ_TIME = 10s
fuzz-smoke:
	@listing="$$($(GO) test -list '^Fuzz' ./...)" || { echo "$$listing"; exit 1; }; \
	found="$$(echo "$$listing" | awk '/^Fuzz/ { t[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2, t[i]; n = 0 }')"; \
	n="$$(echo "$$found" | grep -c '^.')"; \
	[ "$$n" -ge $(FUZZ_TARGETS) ] || \
		{ echo "fuzz-smoke: go test -list finds $$n fuzz targets, floor is $(FUZZ_TARGETS)"; exit 1; }; \
	echo "$$found" | while read -r pkg target; do \
		echo "fuzz-smoke: $$pkg $$target"; \
		$(GO) test -fuzz "^$$target\$$" -fuzztime $(FUZZ_TIME) -run '^$$' "$$pkg" || exit 1; \
	done

# Native (wall-clock) microbenchmarks, including the zero-allocation
# parallel raise path.
bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# Benchmark-regression smoke gate: the specialized inline-plan raise must
# stay within 25% of the committed inline/bypass ratio, the bypass batch
# loop above its floor, and the remote plane, a filter plan, the growth
# of install cost with the handler list and a hardened raise against a
# plain one under their ceilings
# (the committed figures are constants beside the gates in
# benchsmoke_test.go). Ratio-based so it is meaningful on any host.
# Selected by prefix, so a new TestBenchSmoke* joins the gate; the target
# first counts what the prefix selects and fails below BENCHSMOKE_GATES, so
# a gate renamed out of the prefix breaks CI instead of silently leaving it.
BENCHSMOKE_GATES = 6
benchsmoke:
	@listing="$$($(GO) test -list '^TestBenchSmoke' .)" || { echo "$$listing"; exit 1; }; \
	n="$$(echo "$$listing" | grep -c '^TestBenchSmoke')"; \
	[ "$$n" -ge $(BENCHSMOKE_GATES) ] || \
		{ echo "benchsmoke: '^TestBenchSmoke' selects $$n tests, floor is $(BENCHSMOKE_GATES)"; exit 1; }
	SPIN_BENCH_SMOKE=1 $(GO) test -run '^TestBenchSmoke' -count=1 -v .

# The end-to-end benchmark's own checks (benchmark/README.md): its module's
# tests, then one second of each workload, whose output checks (served
# counts, fired totals, fold values, journal verification) make run.sh
# exit non-zero. No timing is asserted. The workloads are the names in
# BENCHMARK.json's "workloads" array, read from the file on every run, so
# the list cannot drift from the benchmark; finding none fails.
BENCH_WORKLOADS_AWK = /"workloads"[[:space:]]*:/ { if (/\]/) exit; w = 1; next } \
	w && /^[[:space:]]*\],?[[:space:]]*$$/ { exit } \
	w && match($$0, /"name"[[:space:]]*:[[:space:]]*"[^"]*"/) { \
		s = substr($$0, RSTART, RLENGTH); sub(/^"name"[[:space:]]*:[[:space:]]*"/, "", s); print substr(s, 1, length(s) - 1) }
benchcheck:
	cd benchmark && $(GO) test ./...
	@workloads="$$(awk '$(BENCH_WORKLOADS_AWK)' BENCHMARK.json)"; \
	[ -n "$$workloads" ] || { echo "benchcheck: BENCHMARK.json lists no workloads"; exit 1; }; \
	echo "benchcheck: workloads" $$workloads; \
	for w in $$workloads; do \
		bash benchmark/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 || exit 1; \
	done

# CPU profiles of the parallel raise benchmarks (raise.prof) and of the
# hardened raise against the plain one (hardened.prof). EXPERIMENTS.md
# ("Reading the inline-plan profile") explains what to look for in the
# output of `go tool pprof -top raise.prof`; in hardened.prof the barrier
# stencil, flatFrame[...,on,...], should cost what the plain one does.
profile:
	$(GO) test -bench BenchmarkRaiseParallel -run '^$$' -benchtime 2s -cpuprofile raise.prof -o raise.test .
	$(GO) tool pprof -top -nodecount 15 raise.test raise.prof
	$(GO) test -bench BenchmarkHardenedRaise -run '^$$' -benchtime 2s -cpuprofile hardened.prof -o raise.test .
	$(GO) tool pprof -top -nodecount 15 raise.test hardened.prof

# Calibrated virtual-time reproductions of the paper's tables (clock:
# model). `make test` pins them through cmd/spin/testdata/tables_*.golden.
tables:
	$(GO) run ./cmd/spin tables
