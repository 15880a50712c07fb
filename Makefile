# Convenience targets for the tableseg reproduction.

GO ?= go

.PHONY: all build test vet lint lint-json lint-sarif lint-self update-locks serve-smoke resume-smoke check bench bench-stages bench-check experiments results results-check corpus cover fuzz clean

all: build check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis: determinism, context discipline,
# error wrapping, float equality, stage purity,
# the CFG-based concurrency checks, the dataflow checks (rngflow,
# probflow, aliasflow), the interprocedural call-graph checks
# (ctxflow, lockflow, httpresp), the schema-lock drift checks
# (wiredrift, codecdrift) and the escape/borrow checks (borrowflow,
# poolsafe — see internal/analysis). Exits non-zero on any finding;
# a `//tableseglint:ignore <analyzer> <reason>` directive at the site
# is the one way to silence one.
lint: vet
	$(GO) run ./cmd/tableseglint

# Machine-readable variants of the same gate: a flat JSON array for
# scripting, and a SARIF 2.1.0 log (written to tableseglint.sarif,
# what the CI lint job uploads as an artifact). Both exit 1 on
# findings, like lint.
lint-json: vet
	$(GO) run ./cmd/tableseglint -json

lint-sarif: vet
	$(GO) run ./cmd/tableseglint -sarif > tableseglint.sarif

# Self-lint: run the full suite (all 18 analyzers) over the analysis
# machinery itself — so the linter is held to its own invariants — and
# over the daemon stack (api/v1, internal/server and its client),
# which was written to pass every concurrency analyzer without
# exemptions. Including api/v1 also makes wiredrift gate the committed
# wire lock here. CI's selflint job runs this and uploads
# tableseglint-self.sarif.
lint-self:
	$(GO) run ./cmd/tableseglint internal/analysis internal/analysis/schema internal/analysis/callgraph internal/analysis/cfg internal/analysis/dataflow internal/analysis/escape cmd/tableseglint api/v1 internal/server internal/server/client

# Regenerate the two committed schema locks (lint/schema-apiv1.lock,
# lint/schema-artifacts.lock) from the live tree. Deterministic: a
# second run is a byte-identical no-op, which CI's lock-drift job
# checks with git diff. Refuses to rewrite breaking drift — restore
# the shape, start api/v2, or bump the codec version instead.
update-locks:
	$(GO) run ./cmd/tableseglint -update-locks

# End-to-end daemon smoke test: start tablesegd, segment a synthetic
# site through `tableseg -remote`, assert byte-identical output to the
# in-process path, check /healthz and /varz, drain via SIGTERM.
serve-smoke:
	./scripts/serve-smoke.sh

# End-to-end checkpoint/resume smoke test: run a batch over the
# synthetic corpus, kill -9 it mid-run, resume over the half-written
# cache with -resume, and assert the -json and -csv outputs are
# byte-identical to an uninterrupted reference run.
resume-smoke:
	./scripts/resume-smoke.sh

test: vet
	$(GO) test ./...

# Full gate: static analysis plus the test suite under the race
# detector (the batch engine is concurrent; this is the configuration
# CI runs).
check: lint
	$(GO) test -race ./...

# The paper's tables, figures, ablations, baselines and extensions.
experiments:
	$(GO) run ./cmd/experiments -all -seeds 42,43,44,45

# Regenerate the checked-in reference outputs under ./results.
results:
	$(GO) run ./cmd/experiments -table 1 > results/table1.txt
	$(GO) run ./cmd/experiments -table 2 > results/table2.txt
	$(GO) run ./cmd/experiments -table 3 > results/table3.txt
	$(GO) run ./cmd/experiments -table 4 > results/table4.txt
	$(GO) run ./cmd/experiments -ablations > results/ablations.txt
	$(GO) run ./cmd/experiments -baselines > results/baselines.txt
	$(GO) run ./cmd/experiments -extensions > results/extensions.txt
	$(GO) run ./cmd/experiments -scale > results/scale.txt
	$(GO) run ./cmd/experiments -seeds 42,43,44,45 > results/seeds.txt

# Regenerate every deterministic reference output into a temporary
# directory and diff it against ./results, failing on any difference.
# scale.txt is left out: its wall-clock column varies run to run.
RESULTS_CHECKED = table1 table2 table3 table4 ablations baselines extensions seeds

results-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/experiments" ./cmd/experiments && \
	for t in 1 2 3 4; do "$$tmp/experiments" -table $$t > "$$tmp/table$$t.txt" || exit 1; done && \
	"$$tmp/experiments" -ablations > "$$tmp/ablations.txt" && \
	"$$tmp/experiments" -baselines > "$$tmp/baselines.txt" && \
	"$$tmp/experiments" -extensions > "$$tmp/extensions.txt" && \
	"$$tmp/experiments" -seeds 42,43,44,45 > "$$tmp/seeds.txt" && \
	for f in $(RESULTS_CHECKED); do diff -u "results/$$f.txt" "$$tmp/$$f.txt" || exit 1; done && \
	echo "results-check: $(RESULTS_CHECKED) byte-identical"

# One benchmark per table/figure (see DESIGN.md's index), plus the
# per-stage microbenchmarks. The stage/solver results are exported as
# BENCH_stages.json, stamped with the Go version, goos, goarch, cpu and
# GOMAXPROCS they were measured on.
bench:
	$(GO) test -bench=. -benchmem -run '^$$' . | $(GO) run ./cmd/benchjson -filter '^(Stage|Solver)' -out BENCH_stages.json

# Re-record the committed allocs/op ledger from the stage/solver
# microbenchmarks alone.
bench-stages:
	$(GO) test -bench '^(BenchmarkStage|BenchmarkSolver)' -benchmem -run '^$$' . | $(GO) run ./cmd/benchjson -filter '^(Stage|Solver)' -out BENCH_stages.json

# The allocs/op gate: re-run the stage/solver microbenchmarks and check
# them against the committed BENCH_stages.json, which is left
# untouched. Fails when any row's allocs/op grew, when a row is missing
# from the run, or when the Go version, goos or goarch differs from the
# ledger's stamp (re-record with `make bench-stages`). allocs/op is
# deterministic, so the gate does not flake; ns/op growth beyond 30%
# is printed as a warning only (machines jitter).
bench-check:
	$(GO) test -bench '^(BenchmarkStage|BenchmarkSolver)' -benchmem -run '^$$' . | $(GO) run ./cmd/benchjson -filter '^(Stage|Solver)' -baseline BENCH_stages.json -out /dev/null

# Render the synthetic twelve-site corpus to ./corpus.
corpus:
	$(GO) run ./cmd/sitegen -out corpus

cover:
	$(GO) test -cover ./...

# Short exploratory fuzzing of the HTML lexer, the extraction front
# end and the artifact codec (decode of arbitrary bytes must error,
# never panic; decodable artifacts must round-trip).
fuzz:
	$(GO) test -fuzz=FuzzTokenize -fuzztime=30s ./internal/htmlx
	$(GO) test -fuzz=FuzzExtracts -fuzztime=30s ./internal/extract
	$(GO) test -fuzz=FuzzArtifactCodec -fuzztime=30s ./internal/stage

clean:
	rm -rf corpus
	rm -f tableseglint.sarif tableseglint-self.sarif
