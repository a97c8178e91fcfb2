GO ?= go

.PHONY: all build test vet race fault lint verify \
	trace-demo fuzz fuzz-smoke fuzz-native dash-check loc clean

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The executor's node runner runs every pipeline, a plan's and an
# interpreted one's, over the one pipe; those packages are the
# concurrency-heavy ones, and core's list regions run interpreter clones
# that share the session's state under one lock. All of them must stay
# race-clean. The model
# property tests and the list planner's own tests ride along: the first
# drive interpreter clones (every `&` is one), the second plan the regions
# those clones run. List-region workers plan pipelines concurrently over
# graphs that carry their own adjacency index, so the graph package and the
# pipeline planner's tests run under the race detector too. Every file
# reader shares the VFS's blocks with later writers, so the VFS runs there
# as well. The utilities' lanes share the line cursor pool and the block
# pool, so their host diffs (with the lane law), cursor and allocation
# tests run there too. The interpreter caches one expand.Plan per word and
# its pipeline-stage clones run the same plans at once, so expand runs
# there as well (TestPlanSharedAcrossGoroutines runs one set of plans from
# several goroutines).
race:
	$(GO) test -race ./internal/pipe/... ./internal/vfs/... ./internal/exec/... ./internal/expand/... ./internal/interp/... ./internal/core/... ./internal/trace/... ./internal/dfg/...
	$(GO) test -race -run 'OverApproximates|DeadStore|ListParallel|ParallelizeList|AssignedBy|FuncTable' ./internal/analysis/... ./internal/rewrite/... ./internal/fuzz/...
	$(GO) test -race -run 'Plan|Parallelize|Graph' ./internal/rewrite/...
	$(GO) test -race -run 'MatchesGNU|Lanes|Cursor|Allocates' ./internal/coreutils/...

# The fault suite: injected failures, panics, stalls, and cancellations
# at every plan position must tear the plan down cleanly (no node is ever
# re-run in place) and fall back byte-identically; the seeded chaos
# sweep runs the whole self-healing stack differentially. An interpreted
# pipeline ends on the same runner, so the interpreter's teardown, panic
# and early-exit rows (Pipeline) run here too. The Argv and
# EarlyExpansion three-mode differentials ride along so the parallel lanes
# they force run under the race detector, and the region former's own
# tests (Region) so a rule cannot change without them.
fault: fuzz-smoke
	$(GO) test -race -count=2 \
		-run 'Fault|Panic|Cancel|Timeout|Fallback|Hangup|FailingLane|Chaos|Stall|Journal|Quarantine|Trap|Trace|Argv|EarlyExpansion|Region|Pipeline' \
		./internal/exec/... ./internal/interp/... ./internal/core/... ./internal/dfg/...

# fuzz-smoke is the deterministic differential gate (~30s): a fixed seed
# window through all five engines plus a seeded chaos sweep over both
# fault layers. Any divergence or invariant violation fails the build;
# artifacts (repro scripts, triage metadata) land under artifacts/fuzz.
fuzz-smoke:
	$(GO) run ./cmd/jashfuzz -n 500 -chaos 100 -q -out artifacts/fuzz

# fuzz is the long differential + chaos soak for nightly runs: a wide
# seed sweep, the 10k-episode chaos invariant check, and the native
# coverage-guided parser/expander fuzzers (FuzzSplit checks the one-pass
# field splitter against the old splitter), each under a wall budget.
# The sweep covers seeds 1-20,000 through all five oracles (1 m 46 s on
# a 2-core host): the list-region exit bug sat at seeds 13232 and 18264,
# past fuzz-smoke's 500 and the 2,000 this target used to sweep. The same
# 20,000 programs then check the variable-effect model against the
# interpreter, statement by statement, and every store the def-use chains
# call dead against a run with that store's value replaced (10 s + 4 s;
# tier-1 runs the first 2,000).
fuzz:
	$(GO) run ./cmd/jashfuzz -n 20000 -chaos 500 -q -out artifacts/fuzz
	$(GO) test ./internal/fuzz/ -run 'OverApproximates|DeadStoreIsDead' -fuzz.model=20000
	$(GO) test -timeout 30m ./internal/fuzz/ -run TestChaosInvariants -fuzz.chaos=3334
	$(GO) test -fuzz='^FuzzParse$$' -fuzztime 5m -run '^$$' ./internal/syntax/
	$(GO) test -fuzz='^FuzzParseCommand$$' -fuzztime 2m -run '^$$' ./internal/syntax/
	$(GO) test -fuzz='^FuzzExpand$$' -fuzztime 5m -run '^$$' ./internal/expand/
	$(GO) test -fuzz='^FuzzExpandPattern$$' -fuzztime 2m -run '^$$' ./internal/expand/
	$(GO) test -fuzz='^FuzzSplit$$' -fuzztime 2m -run '^$$' ./internal/expand/

# fuzz-native runs just the coverage-guided targets briefly (local use).
fuzz-native:
	$(GO) test -fuzz='^FuzzParse$$' -fuzztime 30s -run '^$$' ./internal/syntax/
	$(GO) test -fuzz='^FuzzExpand$$' -fuzztime 30s -run '^$$' ./internal/expand/
	$(GO) test -fuzz='^FuzzSplit$$' -fuzztime 30s -run '^$$' ./internal/expand/

# lint runs jashlint over the example scripts (warnings and errors fail
# the build; suppressions are honored) plus go vet.
lint:
	$(GO) run ./cmd/jashlint -severity warning examples/*/script.sh
	$(GO) vet ./...

# dash-check: the AgreesWithDash tests compare arithmetic and control flow
# with an implementation this tree did not write, but only where /bin/sh is
# dash — elsewhere they skip and prove nothing. Where it is dash
# (ubuntu-latest), a skip fails the build; elsewhere say so in one line.
# The host-reference diffs ride along (sort, sed, comm/join/paste and the
# flag rows against GNU; awk against the host's awk): each skips when its
# tool is missing, and a skip whose tool is on PATH fails the build.
dash-check:
	@if [ "$$(basename "$$(readlink /bin/sh)")" != dash ]; then \
		echo "dash-check: /bin/sh is not dash; the dash-agreement tests skip on this host"; \
	else \
		out=$$($(GO) test -count=1 -run 'AgreesWithDash' -v ./internal/expand/ ./internal/interp/); st=$$?; \
		echo "$$out"; \
		if [ $$st -ne 0 ]; then exit $$st; fi; \
		if echo "$$out" | grep -q SKIP; then \
			echo "dash-check: /bin/sh is dash, yet a dash-agreement test skipped"; exit 1; \
		fi; \
	fi
	@out=$$($(GO) test -count=1 -run 'Match(es)?(GNU|Host)' -v ./internal/coreutils/); st=$$?; \
	echo "$$out"; \
	if [ $$st -ne 0 ]; then exit $$st; fi; \
	for tool in $$(echo "$$out" | sed -n 's/.*: \(.*\) not installed$$/\1/p'); do \
		if command -v "$$(basename "$$tool")" >/dev/null; then \
			echo "dash-check: $$(basename "$$tool") is on PATH, yet its host-reference diff skipped"; exit 1; \
		fi; \
	done

# verify is the tier-1 gate: everything a change must pass before merge.
verify: vet build test race fault lint dash-check

# trace-demo exercises the observability stack end to end: two example
# scripts run under the JIT with -trace (a single optimized pipeline,
# and the value-flow-parallelized command list), each JSONL stream is
# gated through jashtrace -check, the reportgen span tree with its
# critical path is rendered to text, and jashtrace -chrome converts the
# quickstart trace for Perfetto. Artifacts land in trace-demo/ (CI uploads
# the directory).
trace-demo:
	mkdir -p trace-demo
	$(GO) run ./cmd/jash -words /data/words.txt=2000000 \
		-trace trace-demo/quickstart.jsonl \
		examples/quickstart/script.sh >/dev/null
	$(GO) run ./cmd/jash \
		-words /logs/web0.log=200000 -words /logs/web1.log=200000 \
		-words /logs/web2.log=200000 \
		-trace trace-demo/reportgen.jsonl \
		examples/reportgen/script.sh >/dev/null
	$(GO) run ./cmd/jashtrace -check trace-demo/quickstart.jsonl
	$(GO) run ./cmd/jashtrace -check trace-demo/reportgen.jsonl
	$(GO) run ./cmd/jashtrace trace-demo/reportgen.jsonl \
		>trace-demo/reportgen.txt
	$(GO) run ./cmd/jashtrace -chrome trace-demo/quickstart.chrome.json \
		trace-demo/quickstart.jsonl

# loc prints the non-test Go lines outside bench/ (wc -l), per package
# directory and in total: the size ROADMAP's subtraction items track.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; all += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); \
		printf "%7d total\n", all }'

clean:
	$(GO) clean ./...
	rm -rf trace-demo
