# Pre-PR gate: `make check` must pass before any change lands.
GO ?= go

.PHONY: check build fmt vet lint lint-json lint-budget test race cover quick-repeat golden golden-drift bench fuzz smoke soak-short shard-short leakcheck loc

# The suite runs twice: once under the race detector, once with coverage
# (which is also the plain run, and includes every slice the stand-alone
# targets below pick out: lint-budget, golden, soak-short, shard-short).
# The join path's seeded property tests then run three times more.
check: build fmt vet lint race cover quick-repeat golden-drift leakcheck

build:
	$(GO) build ./...

# Formatting gate: every Go file is gofmt-clean (the listing is empty).
fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Repo-specific invariants (determinism taint, view escape, context
# flow, worker purity, plus the syntactic rules); exits nonzero on any
# unsuppressed or stale-suppressed finding. See internal/lint and the
# "Static analysis" section of DESIGN.md.
lint:
	$(GO) run ./cmd/relestlint

# Same run, machine-readable: a JSON array of findings in LINT.json
# (empty array when clean). The artifact is written even when findings
# exist, but the target still fails so CI sees the gate.
lint-json:
	@$(GO) run ./cmd/relestlint -json > LINT.json; st=$$?; \
	cat LINT.json; exit $$st

# The interprocedural engine must stay cheap enough to run on every
# change: full module load + call graph + taint fixpoint + all rules
# inside the CPU-time budget asserted by TestLintRuntimeBudget (the run's
# own CPU time, not the wall clock, which counts time spent waiting for a
# core beside other packages' tests).
lint-budget:
	$(GO) test -count=1 -run TestLintRuntimeBudget -v ./internal/lint | grep -v '^=== RUN\|^--- PASS'

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The seeded property tests of the join path and of the incremental
# synopsis, repeated: a test whose draws depend on map order or any other
# unseeded source fails some runs and passes others, and three runs in a
# row catch most of that.
quick-repeat:
	$(GO) test -count=3 -run '^TestQuick' ./internal/algebra ./internal/relation ./internal/estimator

# Coverage: report every package, enforce a floor where the contract is
# "instrumentation must be fully exercised" (internal/obs), "every
# admission/shutdown path must be driven" (internal/server), "every
# analyzer and the dataflow engine must be exercised by fixtures"
# (internal/lint), "every estimator path of the sketch tier must be
# exercised" (internal/sketch), "every scatter-gather and degradation path
# must be driven" (internal/cluster), or "no branch of the one weighted-count
# kernel goes unexercised" (internal/estimator). Other packages are
# report-only — their floors are the statistical tests themselves.
COVER_FLOORS = internal/obs:70 internal/server:70 internal/lint:70 \
	internal/sketch:70 internal/cluster:70 internal/estimator:85

cover:
	@out=$$($(GO) test -cover ./... 2>&1); st=$$?; \
	echo "$$out" | grep -v '\[no test files\]'; \
	[ $$st -eq 0 ] || exit $$st; \
	for pf in $(COVER_FLOORS); do \
		pkg=$${pf%%:*}; floor=$${pf##*:}; \
		echo "$$out" | awk -v want="relest/$$pkg" -v f="$$floor" -v pkg="$$pkg" ' \
			$$1 == "ok" && $$2 == want { for (i = 3; i < NF; i++) if ($$i == "coverage:") { p = $$(i+1); sub(/%/, "", p); seen = 1 } } \
			END { \
				if (!seen) { printf "%s: no coverage line in the test output\n", pkg; exit 1 } \
				if (p+0 < f+0) { printf "%s coverage %.1f%% is below the %d%% floor\n", pkg, p, f; exit 1 } \
				printf "%s coverage %.1f%% (floor %d%%)\n", pkg, p, f }' || exit 1; \
	done

# Adversarial soak slice: the five workload scenarios (zipf-mix, bursty,
# hot-key eviction churn, churn-heavy streams, cancellation storm) each
# run against a live relestd while a calibration probe stream holds the
# PR-3 bias/coverage bands. Seed-pinned and bounded well under a minute;
# the full-length soak is the same test with the knobs in
# internal/server/soak_test.go raised.
soak-short:
	$(GO) test -count=1 -run TestSoakScenarios -v ./internal/server | grep -v '^=== RUN'

# Sharded-tier slice: the coordinator's scatter-gather happy path, the
# deadline-miss degradation contract (partial: true, widened CI, named
# missed shards), and byte-identical estimates across a shard rebalance.
# The full gate adds the one-shard golden byte-identity and the
# shards={1,2,4} calibration bands, which run in `make test`.
shard-short:
	$(GO) test -count=1 -run 'TestShardFanout|TestShardDeadlineMiss|TestShardRebalance' -v ./internal/cluster | grep -v '^=== RUN'

# Leak gate, last in `check`: the tests spawn the real daemon
# (cmd/relestd), benchmark/run.sh builds relbench, `go run ./benchmark`
# builds and runs a binary named benchmark, and every package runs as a
# *.test binary; one that is still alive after they finish was orphaned
# — fail here rather than surprise whatever runs next. A shell still
# running benchmark/run.sh (building, before it execs relbench) counts
# too. (-x matches a process name exactly; -f because the kernel
# truncates process names to 15 characters, with the pattern anchored to
# the command's first words, so a shell whose command text merely
# mentions these names — this gate's own, whose second word is -c —
# does not count.)
leakcheck:
	@leaked=$$(pgrep -ax relestd; pgrep -ax relbench; pgrep -ax benchmark; \
		pgrep -af '^[^ ]*[.]test( |$$)'; pgrep -af '^[^ ]*sh [^ ]*benchmark/run[.]sh( |$$)'); \
	if [ -n "$$leaked" ]; then \
		echo "leaked process(es):"; echo "$$leaked"; exit 1; \
	fi

# Service smoke test: build the daemon, walk the whole lifecycle against
# the real binary (start, register, estimate, scrape /metrics, SIGTERM,
# clean drain). This is the executable form of the README quick-start.
smoke:
	$(GO) test -run TestDaemonSmoke -count=1 -v ./cmd/relestd

# Short fuzzing smoke: each fuzzer runs for a few seconds on top of its
# committed seed corpus (testdata/fuzz). Crashers found locally land in
# testdata/fuzz as regression inputs.
fuzz:
	$(GO) test -run XXX -fuzz FuzzNormalize -fuzztime 3s ./internal/algebra
	$(GO) test -run XXX -fuzz FuzzPredicate -fuzztime 3s ./internal/algebra
	$(GO) test -run XXX -fuzz FuzzParse -fuzztime 3s ./internal/query
	$(GO) test -run XXX -fuzz FuzzDrawState -fuzztime 3s ./internal/sampling

# Golden-drift gate: the byte-identity tests must pass against the
# committed estimate fixtures (CLI, server, and the estimator's kernel
# bit-pattern table), and nothing may have regenerated them — a drifted
# golden means estimates changed, which is never a side effect. (A fixture
# staged for its first commit and untouched since, "A ", is not drift.)
# `check` runs the drift half only: its full-suite runs include the tests.
golden: golden-drift
	$(GO) test -count=1 -run 'TestGoldenOutput|TestMetricsOutput|TestEstimateGoldenByteIdentity|TestKernelGolden' ./cmd/relest ./internal/server ./internal/estimator

golden-drift:
	@drift=$$(git status --porcelain -- cmd/relest/testdata internal/server/testdata internal/estimator/testdata | grep -v '^A  '); \
	if [ -n "$$drift" ]; then \
		echo "golden estimate fixtures drifted:"; echo "$$drift"; exit 1; \
	fi

# The repo's one benchmark (BENCHMARK.json; see benchmark/README.md).
bench:
	bash benchmark/run.sh

# Size report: non-test and test Go lines per package and in total
# (benchmark/ and testdata/ excluded), then the lint:ignore suppressions
# per rule outside internal/lint. Not part of `check`; it is the before and
# after of a simplification.
loc:
	@find . -name '*.go' -not -path './.*' -not -path './benchmark/*' -not -path '*/testdata/*' | sort | \
	xargs awk '{ dir = FILENAME; sub(/\/[^\/]*$$/, "", dir); sub(/^\.\/?/, "", dir); \
		pkg[dir] = 1; if (FILENAME ~ /_test\.go$$/) test[dir]++; else prod[dir]++ } \
		END { for (d in pkg) printf "%s %d %d\n", (d == "" ? "." : d), prod[d], test[d] }' | sort | \
	awk 'BEGIN { printf "%-28s %8s %8s\n", "package", "non-test", "test" } \
		{ printf "%-28s %8d %8d\n", $$1, $$2, $$3; p += $$2; t += $$3 } \
		END { printf "%-28s %8d %8d\n", "total", p, t }'
	@echo; echo "lint:ignore suppressions outside internal/lint:"
	@grep -rhoE --include='*.go' --exclude-dir=lint 'lint:ignore [A-Za-z0-9_-]+' . | \
	awk '{ print $$2 }' | sort | uniq -c | \
	awk '{ printf "  %-20s %d\n", $$2, $$1; t += $$1 } END { printf "  %-20s %d\n", "total", t }'
