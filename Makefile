.PHONY: check test build fmt conform bench-smoke fuzz-smoke recover-demo profile-demo domains-demo trace-demo attack-demo resilience-demo

check:
	sh scripts/check.sh

test:
	go test ./...

build:
	go build ./...

fmt:
	gofmt -w .

conform:
	go run ./cmd/pkru-conform -fault all
	go run ./cmd/pkru-conform -traces 64 -ops 512
	go run ./cmd/pkru-conform -supervised
	go run ./cmd/pkru-conform -vkeys
	go run ./cmd/pkru-conform -attacks -q

# attack-demo runs the Garmr attack corpus (docs/attacks.md): every
# attack class drilled red (defense off — the breach must land) and
# green (defense armed — the attack must die with the declared fault),
# from both CLI entry points, plus the concurrent race drills hammering
# the eviction/retag and migration-revalidation windows under -race.
attack-demo:
	@echo "--- attack corpus: red/green verdict matrix ---"
	go run ./cmd/pkru-exploit -attacks
	@echo "--- same corpus through the conformance CLI (CI entry point) ---"
	go run ./cmd/pkru-conform -attacks -q
	@echo "--- concurrent drills: retag and migration races under -race ---"
	go test -race -run 'TestRace' ./internal/attack/

# resilience-demo proves tenant-scoped fault containment end to end
# (docs/recovery.md): one tenant mounts the attack payload roster through
# its gates until its circuit breaker opens and its pool quarantines; the
# servo's verdict line must read CONTAINED — only the hostile tenant's
# epoch bumps, every healthy tenant completes 100% of its requests, zero
# leaks, zero breaches — or the run exits non-zero. The breaker
# transition instants on the exported timeline and the healthy-tenant
# latency report are then validated by tracecheck.
resilience-demo:
	@echo "--- hostile tenant in, healthy tenants out: containment verdict ---"
	go run ./cmd/pkru-servo -domains=8 -domain-workers=1 -domain-cycles=96 \
		-hostile=tenant003 -churn=false -breaker-probe-after=1h -recover=quarantine \
		-trace-json /tmp/pkru-resilience-demo.json -latency-out /tmp/pkru-resilience-lat.json
	@echo "--- breaker transitions on the timeline + healthy latency report ---"
	go run ./scripts/tracecheck /tmp/pkru-resilience-demo.json /tmp/pkru-resilience-lat.json
	@echo "--- containment overhead (smoke iterations) ---"
	go run ./cmd/pkru-bench -experiment resilience -micro-iters 20000
	@rm -f /tmp/pkru-resilience-demo.json /tmp/pkru-resilience-lat.json

# domains-demo exercises the N-domain layer end to end
# (docs/domains.md): 64 logical domains multiplexed onto 13 hardware
# key slots under concurrent entry and tenant churn (isolation leaks
# exit non-zero), the drill proving multiplexing is semantically
# invisible, and the slot-miss overhead bench.
domains-demo:
	@echo "--- 64 tenants on 13 slots under churn ---"
	go run ./cmd/pkru-servo -domains=64 -domain-workers 4 -domain-cycles 1500
	@echo "--- virtual-key conformance drill ---"
	go run ./cmd/pkru-conform -vkeys -vkey-domains 64
	@echo "--- multiplexing stats ---"
	go run ./cmd/pkrusafe domains 32
	@echo "--- slot-miss overhead (smoke iterations) ---"
	go run ./cmd/pkru-bench -experiment vkeys -micro-iters 2000

# recover-demo proves the supervisor's headline property on the quickstart
# example run without a profile (so its shared site is misclassified MT):
# the default fail-stop policy dies on the PKUERR, while -recover=heal
# migrates the site and completes.
recover-demo:
	@echo "--- -recover=abort must crash ---"
	@if go run ./cmd/pkrusafe run examples/pkir/quickstart.pkir; then \
		echo "recover-demo: abort run unexpectedly succeeded" >&2; exit 1; \
	else echo "(crashed as expected)"; fi
	@echo "--- -recover=heal must complete ---"
	go run ./cmd/pkrusafe run examples/pkir/quickstart.pkir -recover=heal -heal-out=-

# profile-demo runs the continuous-profiling closed loop headlessly
# (docs/profiling.md): a fresh store bootstraps at the empty seed, the
# healed delta commits as a candidate generation, the staged rollout
# (half the replayed requests on the candidate) promotes it, and a second
# run over the saved store finds nothing left to heal.
profile-demo:
	@rm -f /tmp/pkru-profile-demo-store.json
	@echo "--- run 1: heal, commit, shadow, promote ---"
	go run ./cmd/pkru-servo -config mpk -recover heal -requests 4 \
		-profile-store /tmp/pkru-profile-demo-store.json -shadow-frac 0.5
	@echo "--- run 2: the promoted generation leaves nothing to heal ---"
	go run ./cmd/pkru-servo -config mpk -recover heal -requests 2 \
		-profile-store /tmp/pkru-profile-demo-store.json -shadow-frac 0.5
	@echo "--- the store's own diff of the promotion ---"
	-go run ./cmd/pkru-profile diff -store /tmp/pkru-profile-demo-store.json
	@rm -f /tmp/pkru-profile-demo-store.json

# trace-demo exercises the request-scoped tracing plane end to end
# (docs/tracing.md): the multi-tenant workload with a compartment fault
# injected into every 40th request under the retry policy, the adaptive
# sampling controller live, and the retained traces + per-tenant latency
# report exported and validated — tracecheck fails unless at least one
# trace correlates gate entry, fault and recovery under one trace ID.
trace-demo:
	@echo "--- multi-tenant workload: injected faults under retry, traced ---"
	go run ./cmd/pkru-servo -domains=24 -domain-workers 4 -domain-cycles 500 \
		-recover retry -inject-fault 40 -adapt-target 2us \
		-trace-json /tmp/pkru-trace-demo.json -latency-out /tmp/pkru-latency-demo.json
	@echo "--- timeline + latency report validation ---"
	go run ./scripts/tracecheck /tmp/pkru-trace-demo.json /tmp/pkru-latency-demo.json
	@echo "--- single-run timeline from the toolchain CLI (heal arc) ---"
	go run ./cmd/pkrusafe trace examples/pkir/quickstart.pkir -recover heal \
		-o /tmp/pkru-quickstart-trace.json
	go run ./scripts/tracecheck /tmp/pkru-quickstart-trace.json
	@rm -f /tmp/pkru-trace-demo.json /tmp/pkru-latency-demo.json /tmp/pkru-quickstart-trace.json

# bench-smoke keeps the benchmark module building and running: perfbench
# imports vm, ffi, browser and pkalloc through a replace, so an API change
# there can break it without touching any file under perfbench/. A short
# compute run must report every op correct and none failed.
bench-smoke:
	cd perfbench && go vet ./... && go test ./...
	@line=$$(bash perfbench/run.sh --workload compute --seed 1 --seconds 2 | tail -n 1); \
	echo "$$line"; \
	case "$$line" in *'"correct":true'*'"failed":0'*) ;; \
	*) echo "bench-smoke: benchmark run not clean" >&2; exit 1 ;; esac

# fuzz-smoke is the one list of fuzz targets CI runs: ten seconds each,
# seeds first. Add a new Fuzz* target here, not to the CI workflow.
fuzz-smoke:
	go test -fuzz '^FuzzDifferential$$' -fuzztime 10s ./internal/conformance
	go test -fuzz '^FuzzSpaceOracle$$' -fuzztime 10s ./internal/conformance
	go test -fuzz '^FuzzVKeys$$' -fuzztime 10s ./internal/conformance
	go test -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/pkir
	go test -fuzz '^FuzzScript$$' -fuzztime 10s ./internal/jsengine
	go test -fuzz '^FuzzParseAllocID$$' -fuzztime 10s ./internal/profile
