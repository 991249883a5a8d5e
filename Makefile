# Tier-1 gate: every change must keep `make check` green.
.PHONY: check build vet lint test allocs bench bench-check bench-smoke bench-routing fuzz-smoke ingest-soak

check: build vet lint test allocs

build:
	go build ./...

# Vet, then the gofmt gate: every tracked Go file must be gofmt-clean.
# testdata/ is exempt: the go tool never builds it, and the lint
# fixtures there are analyzer inputs, not code.
vet:
	go vet ./...
	go vet -unsafeptr=true ./...
	@files=$$(git ls-files '*.go' ':(exclude,glob)**/testdata/**') && \
	unformatted=$$(gofmt -l $$files) && \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; fi

# Project-specific static analysis: metric naming/doc sync, lat/lng
# argument order, exact float comparison, context discipline, sync.Pool
# pairing, and the dataflow checks — Model immutability, pooled-scratch
# escape, atomic-cell publish discipline, and the error/status taxonomy
# against docs/API.md. See docs/STATIC_ANALYSIS.md.
lint:
	go run ./cmd/stmaker-lint

test:
	go test -race ./...

# The allocation guards (Test*Allocs) skip under -race, whose sync.Pool
# drops pooled scratch at random, so they get a run of their own.
allocs:
	go test -count=1 -run 'Allocs$$' ./...

bench:
	go test -bench=. -benchmem ./...

# The end-to-end benchmark (go run ./bench, see bench/README.md) is a
# nested module outside ./..., so the targets above never compile it.
# Vet and test it here, so a library change that breaks its imports
# fails CI instead of the next benchmark run.
bench-check:
	cd bench && go vet ./... && go test ./...

# One iteration of every benchmark: catches benchmarks that panic, fail
# their setup, or silently rot, without the minutes a real run costs.
# This includes the routing pairs (BenchmarkHMMMatch100PointsALT,
# BenchmarkHMMMatchSparseALT, BenchmarkTrainOverlay) and the reference
# decoder's BenchmarkHMMMatch100PointsNaive and
# BenchmarkNetworkDistanceNaive, so the ALT overlay and the test oracle
# are exercised on every CI build.
# Run on every CI build; use `make bench` for real measurements.
bench-smoke:
	go test -run='^$$' -bench=. -benchtime=1x ./...

# The routing benchmarks that feed BENCH_routing.json: HMM matching with
# and without the ALT overlay (BenchmarkHMMMatch*), the overlay build
# (BenchmarkTrainOverlay) and the simulator's point-to-point
# Graph.ShortestPath (BenchmarkShortestPath20x20); see docs/PERFORMANCE.md
# "Precomputed routing".
bench-routing:
	go test -run='^$$' -bench='HMMMatch|TrainOverlay|ShortestPath20x20' -benchmem -count=5 ./internal/roadnet/

# Short randomized smoke of the fuzz targets (15s each): enough to
# catch shallow regressions on every CI run without a dedicated fuzz
# farm. Run with a larger -fuzztime locally when touching the decoders.
fuzz-smoke:
	go test -run='^$$' -fuzz=FuzzLoadTrips -fuzztime=15s ./internal/worldio
	go test -run='^$$' -fuzz=FuzzSanitize -fuzztime=15s ./internal/sanitize
	go test -run='^$$' -fuzz=FuzzReadModel -fuzztime=15s ./internal/modelio
	go test -run='^$$' -fuzz=FuzzParseManifest -fuzztime=15s ./internal/modelio
	go test -run='^$$' -fuzz=FuzzWALReplay -fuzztime=15s ./internal/ingest
	go test -run='^$$' -fuzz=FuzzIngestNDJSON -fuzztime=15s ./internal/server
	go test -run='^$$' -fuzz=FuzzALTEquivalence -fuzztime=15s ./internal/roadnet
	go test -run='^$$' -fuzz=FuzzWithinEquivalence -fuzztime=15s ./internal/spatial

# End-to-end ingestion soak: a simulated fleet streamed through the real
# HTTP ingest path with one crash/recovery cycle in the middle, asserting
# zero acknowledged-fix loss and a working model compaction at the end.
# See docs/ROBUSTNESS.md "Ingestion durability".
ingest-soak:
	go run ./cmd/ingest-soak
