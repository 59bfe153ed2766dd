# Verification tiers. tier1 is the repository's baseline gate; race is
# mandatory since the worker pool and the memoized model caches put
# goroutines on shared chips, fronts, and Cholesky factors. `make ci`
# runs four of .github/workflows/ci.yml's jobs locally: test, lint,
# race and the history gate. Three more have targets of their own
# (`make fuzz`, `make cover`, `make service-smoke`); the observability
# smoke has none.
.PHONY: tier1 race golden ci fmt-check cover lint fuzz service-smoke history-check

tier1:
	go build ./... && go test ./...

race:
	go vet ./... && go test -race ./...

# The test, lint, race and history-gate jobs: build, lint
# (accordionvet + gofmt -s + vet + shellcheck), gofmt cleanliness,
# tests, the experiment digests and four kernels' golden runs again
# from a 386 build (pure-Go math), one pass of each kernel benchmark,
# the race tier, then the committed run history through the gate.
ci:
	go build ./...
	$(MAKE) lint
	$(MAKE) fmt-check
	go test ./...
	GOARCH=386 go test ./internal/experiments -run '^TestExperimentDigests$$'
	GOARCH=386 go test ./internal/rms/ferret ./internal/rms/xh264 ./internal/rms/hotspot ./internal/rms/btcmine -run '^TestRunGolden$$'
	go test -run '^$$' -bench '^BenchmarkKernel' -benchtime 1x .
	go test -race ./...
	$(MAKE) history-check

# The repository's own static-analysis suite (see README "Static
# analysis"): accordionvet's six domain analyzers, simplify-mode gofmt,
# go vet, and shellcheck over the scripts (skipped with a notice if
# shellcheck is not installed).
lint:
	go run ./cmd/accordionvet ./...
	@unformatted="$$(gofmt -s -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt -s required on:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi
	go vet ./...
	@if command -v shellcheck >/dev/null 2>&1; then \
		shellcheck scripts/*.sh; \
	else \
		echo "shellcheck not installed; skipping script lint"; \
	fi

# Run each committed fuzz target for FUZZTIME (default 30s) beyond its
# checked-in corpus; mirrors the CI fuzz-smoke job.
FUZZTIME ?= 30s
fuzz:
	go test ./internal/telemetry -run '^$$' -fuzz FuzzEventsNDJSONRoundTrip -fuzztime $(FUZZTIME)
	go test ./internal/experiments -run '^$$' -fuzz FuzzFirstFloat -fuzztime $(FUZZTIME)
	go test ./internal/mathx -run '^$$' -fuzz FuzzFFTSizes -fuzztime $(FUZZTIME)
	go test ./internal/chip -run '^$$' -fuzz FuzzLoad -fuzztime $(FUZZTIME)
	go test ./internal/fault -run '^$$' -fuzz FuzzPlanInfected -fuzztime $(FUZZTIME)
	go test ./internal/fault -run '^$$' -fuzz FuzzCorruptValue -fuzztime $(FUZZTIME)
	go test ./internal/service -run '^$$' -fuzz FuzzRequestNormalize -fuzztime $(FUZZTIME)

# Fail if any file needs gofmt, listing the offenders.
fmt-check:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt required on:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi

# Full-suite coverage with a minimum-total floor (COVER_MIN to adjust).
cover:
	./scripts/coverage.sh

# Drive the real accordiond over HTTP with the benchmark's serve
# workload: it fails on any non-200 answer, a replay whose bytes differ,
# or a SIGTERM that does not drain to exit 0. Then run the benchmark
# module's own tests, which `go test ./...` does not reach. Mirrors the
# CI service-smoke job.
service-smoke:
	bash benchmark/run.sh --workload serve --seed 1 --seconds 3 --trace 0
	cd benchmark && go test .

# Gate the newest record in the committed run-history store against
# its baseline window (see README "Run history & regression gate");
# mirrors the CI history-gate job. HISTORY_DIR to point elsewhere.
HISTORY_DIR ?= HISTORY
history-check:
	go run ./cmd/accordionhist check -dir $(HISTORY_DIR)

# Regenerate the pinned golden artifacts after an intentional model change.
golden:
	UPDATE_GOLDEN=1 go test ./internal/experiments ./internal/rms/...
