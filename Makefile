# Targets mirror .github/workflows/ci.yml so local runs reproduce CI.

GO ?= go

.PHONY: all build vet fmt fmt-check test alloc-gate race race-soak bench-selftest bench bench-smoke syscalls bench-churn bench-rebalance bench-hotkey bench-shard admin-smoke origin-smoke examples-smoke check-docs fuzz-smoke ci

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	$(GO) vet -tags memprofile ./cmd/flickrun

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

# Allocation gate: every zero-allocation pin — codecs, leased upstream
# session, kernel-TCP scatter write, cache hits, histogram Record, the
# compiled pipeline and the whole proxied request — under its own name, so
# an allocation regression fails as one instead of inside tier-1 output.
# The layout pins ride along: value.Value's size and the protocol codecs'
# init-time field slots.
alloc-gate:
	$(GO) test -count=1 -run 'ZeroAlloc|Allocs|TestValueSize|TestFieldSlotsMatchDesc|TestEntryHeaderSize|TestCacheHeapPerEntry' ./...

# Race matrix: the packages whose tests share state across goroutines —
# scheduler, the kernel pump (netstack.Events), refcounted buffers, codecs, client fleets, upstream pools,
# cache, topology sources, admin handlers, wait-free histograms. The gate
# script fails on any failure or any listed package that ran no tests, and
# ends with one line: "race matrix: <pkgs> packages, <tests> tests, 0 failed".
# CI calls this target, so the list is written here only.
RACE_PKGS = ./internal/core/... ./internal/netstack/... ./internal/buffer/... ./internal/proto/... \
	./internal/loadgen/... ./internal/upstream/... ./internal/backend/... \
	./internal/apps/... ./internal/cache/... ./internal/topology/... \
	./internal/admin/... ./internal/metrics/...

race:
	GO=$(GO) ./scripts/race_gate.sh $(RACE_PKGS)

# Soak of the cache's concurrency tests: lookups vs fills, invalidation and
# upstream 304s, 20 runs each; then, without -race so the interleavings
# are dense, the latency histogram's record-vs-snapshot invariant (no
# quantile above max, 200 runs, ~10 s) and the two instance-lifecycle
# races: a failed dispatch's instance back in the pool before its client
# sees the close (300 runs, < 1 s), and scale-in under connect load with
# zero client errors (100 runs, ~20 s); then Service.Close with a full
# upstream window on a shared socket (200 runs, ~5 s). Also run by the CI
# race job.
race-soak:
	$(GO) test -race -count=20 -run 'Stress|Race|Reval' ./internal/cache/
	$(GO) test -count=200 -run RecordVsSnapshot ./internal/metrics/
	$(GO) test -count=300 -run TestDispatchDialFailureReleasesInstance ./internal/core/
	$(GO) test -count=100 -run TestScaleInUnderConnectLoadZeroClientErrors ./internal/apps/
	$(GO) test -count=200 -run TestServiceCloseWithFullUpstreamWindow ./internal/apps/

# The nested benchmark module's own vet and tests (< 10 s). It compiles
# against internal/cache, internal/upstream and the codecs, so it also
# catches an API change that would break the regression benchmark.
bench-selftest:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# Read and write syscalls per request of the serving proxy over one
# out-of-process benchmark run of workload W (`bash benchmark/run.sh
# -workload W -trace 0`, unchanged), sampled from /proc/<pid>/io. Needs jq.
W ?= mc-small

syscalls:
	./scripts/syscalls.sh $(W)

bench-smoke:
	$(GO) test -bench=BenchmarkSchedulerScaling -benchtime=100x -run='^$$' .

# Connection-churn smoke through the per-worker sharded upstream pools,
# small parameters (also run by the CI bench-smoke job).
bench-churn:
	$(GO) run ./cmd/flickbench -quick churn

# Live-topology smoke: the consistent-hash ring across a B→B+1
# scale-out under load, plus the hot-key skew pair whose max-load column
# separates the plain ring from the bounded-load ring (also run by the
# CI bench-smoke job).
bench-rebalance:
	$(GO) run ./cmd/flickbench -quick rebalance

# Hot-key response-cache smoke: the cached proxy vs the plain proxy
# under the identical seeded 50%-hot workload — offload, hit ratio and
# cross-arm byte-identity — followed by the conditional freshness arm
# (ETagged origin, short TTL, stale-while-revalidate across expiries;
# also run by the CI bench-smoke job).
bench-hotkey:
	$(GO) run ./cmd/flickbench -quick hotkey

# Control-plane smoke: start flickrun with the admin API, exercise
# /healthz, /counters and a PUT /topology scale-out over HTTP, and
# assert the change is visible in GET /topology (also run by the CI
# admin-smoke step). Backends are fake addresses — upstream dials are
# lazy, so the control plane works without live backends.
admin-smoke:
	./scripts/admin_smoke.sh

# Wire-level origin smoke: flickrun's httplb fronts a stock net/http
# origin (cmd/chunkedorigin) over kernel TCP; fetches of the
# Content-Length, chunked, and conditional-304 routes through the
# balancer must be byte-identical to direct fetches (also run by the CI
# origin-smoke job).
origin-smoke:
	./scripts/origin_smoke.sh

# Upstream-sharding microbenchmark: leased-session round trips with one
# pool shard per core vs one shared pool — the write-lock contention the
# per-worker sharding removes (also run by the CI bench-smoke job).
bench-shard:
	$(GO) test ./internal/upstream -bench=BenchmarkUpstreamShardScaling -benchtime=500x -run='^$$'

# Every example program runs to completion: each one deploys a service
# and drives it in-process, so a facade or apps change that breaks one
# fails here (each takes a few seconds).
EXAMPLES = quickstart httplb memcachedrouter hadoopagg scheduling

examples-smoke:
	@for ex in $(EXAMPLES); do \
		echo "examples-smoke: $$ex"; \
		timeout 60 $(GO) run ./examples/$$ex > /dev/null || { echo "examples-smoke: $$ex failed"; exit 1; }; \
	done

# Documentation gate: every relative markdown link (and intra-doc
# anchor) resolves and every exported identifier in the data-path
# packages has a doc comment.
DOC_PKGS = .,internal/compiler,internal/types,internal/lang,internal/value,internal/grammar,internal/netstack,internal/upstream,internal/backend,internal/buffer,internal/core,internal/apps,internal/bench,internal/cache,internal/metrics,internal/leakcheck,internal/admin,internal/topology,internal/proto/memcache,internal/proto/http,internal/tools/docscheck

check-docs:
	$(GO) run ./internal/tools/docscheck -pkgs $(DOC_PKGS) README.md docs/ARCHITECTURE.md docs/PERFORMANCE.md

# Short-budget native fuzzing of every protocol decoder plus the grammar
# round-trip (go test -fuzz accepts one target per invocation). The
# checked-in corpora under testdata/fuzz/ run on every plain `make test` too.
FUZZTIME ?= 10s

fuzz-smoke:
	$(GO) test ./internal/proto/http -run='^$$' -fuzz=FuzzHTTPDecode -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/proto/memcache -run='^$$' -fuzz=FuzzMemcacheDecode -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/proto/hadoop -run='^$$' -fuzz=FuzzHadoopDecode -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/grammar -run='^$$' -fuzz=FuzzGrammarRoundTrip -fuzztime=$(FUZZTIME)

ci: build vet fmt-check check-docs test examples-smoke alloc-gate race race-soak bench-selftest bench-smoke bench-churn bench-rebalance bench-hotkey bench-shard admin-smoke origin-smoke fuzz-smoke
