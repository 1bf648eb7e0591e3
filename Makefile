GO ?= go

.PHONY: build test race bench fmt vet lint fuzz examples soak serve-smoke crash-matrix ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The performance harness: every benchmark/ workload, untraced then traced,
# each in a fresh process; non-zero exit on any failed op or output check.
# Compare two sets of runs with `go run ./benchmark compare A B`.
bench:
	bash benchmark/run.sh -all

# Fails (listing the offending files) when any file needs reformatting.
fmt:
	@files="$$(gofmt -l .)"; \
	if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Static analysis beyond vet. Uses staticcheck when it is on PATH (CI installs
# it); otherwise falls back to go vet so the target stays runnable on machines
# without the tool.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck not found; falling back to go vet ./..."; \
		$(GO) vet ./...; \
	fi

# Short coverage-guided fuzz of the binary decoders: the spill-frame decoder
# (both codec versions), the manifest WAL decoder and the segment-footer
# decoder. Each must reject arbitrary corruption with a typed error and never
# panic or over-allocate; the store targets are seeded from golden files.
# FuzzPlanEquivalence fuzzes the dataflow plan generator's seed and row count
# and holds every engine configuration to the reference interpreter;
# FuzzAprioriEquivalence fuzzes baskets and thresholds and holds the
# vertical-bitset Apriori miner to the horizontal one it replaced;
# FuzzPseudonymize holds the runner's inline FNV-64a token formatter to
# hash/fnv and fmt's %016x on arbitrary strings; FuzzSaveTableChunking saves
# random batch lengths with nullable columns under random frame and segment
# sizes and holds every segment file, byte for byte, to the copy-then-encode
# save path it replaced. FuzzScanPruning scans random tables (ints at
# +-2^53 and the int64 edges, -0/NaN/Inf floats, strings cut from fuzz bytes,
# all-null frames) under random predicate conjunctions and holds the rows
# and the skipped segment and frame counts to plain-Go filters over the
# saved rows. FuzzParsePred renders random typed predicates (operator
# characters in string values, int64 edges, -0/NaN/Inf floats) and holds
# ParsePred's parse of them to the predicate itself, and rejects numbers
# followed by junk. FuzzFrameEncoderRange encodes random row ranges of
# batches of every column type under both codec settings on one reused
# encoder and holds the bytes to the encoding of a copy of those rows and to
# the build-both-and-compare encoder it replaced.
# FuzzTopologicalOrder holds the index-based composition order (literal and
# built by procedural.New) to the map-based one it replaced.
# FuzzSessionization holds Sessionizer.Count over typed columns (users out of
# order, ties, null and extreme times, gaps of exactly the timeout and 1 ms
# more) to the event-object Sessionize it replaced.
# FuzzAssociationBaskets holds the runner's typed basket builder over
# transaction columns of every type (nulls, "", -0, NaN) to the string-keyed
# builder it replaced, basket for basket, in first-seen order.
# FuzzTableBatches mixes row appends, batch appends and snapshots on a keyed
# or round-robin table and holds Partition, Rows, Scan, NumRows and every
# earlier snapshot to a plain row model. FuzzSpillStore interleaves appends
# and reads on a partition store under random budgets and frame sizes, holds
# every read and spill counter to a plain row model, and merges the same
# batches as runs against a stable sort. FuzzSortKeys sorts 1-3 keys over
# every column type (nulls, -0, NaN, infinities, ints beyond 2^53, strings
# sharing an 8-byte prefix) in both directions and holds the sort's
# selection, its merge comparator and its range split to a boxed stable sort.
# FuzzKeyTable maps random batches of 1-3 typed key columns (nulls, -0, NaN
# payloads, "", ints meeting times) through the group and join key tables,
# also with one forced hash for every row, and holds ids, hashes and join
# matches to a string map over the encoded key bytes.
# The
# time box keeps the target usable as a pre-commit check; raise FUZZTIME for a
# longer soak. Go fuzzing accepts one -fuzz pattern per package invocation,
# so the targets run back to back.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeBatch' -fuzztime $(FUZZTIME) ./internal/storage/
	$(GO) test -run '^$$' -fuzz 'FuzzTableBatches' -fuzztime $(FUZZTIME) ./internal/storage/
	$(GO) test -run '^$$' -fuzz 'FuzzSpillStore' -fuzztime $(FUZZTIME) ./internal/storage/
	$(GO) test -run '^$$' -fuzz 'FuzzFrameEncoderRange' -fuzztime $(FUZZTIME) ./internal/storage/
	$(GO) test -run '^$$' -fuzz 'FuzzKeyTable' -fuzztime $(FUZZTIME) ./internal/storage/
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeManifest' -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeSegmentFooter' -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^$$' -fuzz 'FuzzSaveTableChunking' -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^$$' -fuzz 'FuzzScanPruning' -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^$$' -fuzz 'FuzzParsePred' -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^$$' -fuzz 'FuzzPlanEquivalence' -fuzztime $(FUZZTIME) ./internal/dataflow/
	$(GO) test -run '^$$' -fuzz 'FuzzSortKeys' -fuzztime $(FUZZTIME) ./internal/dataflow/
	$(GO) test -run '^$$' -fuzz 'FuzzAprioriEquivalence' -fuzztime $(FUZZTIME) ./internal/analytics/
	$(GO) test -run '^$$' -fuzz 'FuzzSessionization' -fuzztime $(FUZZTIME) ./internal/analytics/
	$(GO) test -run '^$$' -fuzz 'FuzzPseudonymize' -fuzztime $(FUZZTIME) ./internal/runner/
	$(GO) test -run '^$$' -fuzz 'FuzzAssociationBaskets' -fuzztime $(FUZZTIME) ./internal/runner/
	$(GO) test -run '^$$' -fuzz 'FuzzTopologicalOrder' -fuzztime $(FUZZTIME) ./internal/procedural/

# Fault-injection soak of the multi-tenant service runtime under the race
# detector: concurrent tenants, injected cluster faults, a tight memory
# budget, and the invariant that every submission ends in exactly one of
# completed/rejected/shed/failed with no goroutine or spill-file leak.
soak:
	$(GO) test -race -count=1 -timeout 5m -run 'TestSoakFaultInjection' ./internal/service/

# Boots toreadorctl serve on an ephemeral port and drives a campaign through
# the HTTP surface (submit, stats, graceful shutdown).
serve-smoke:
	$(GO) test -race -count=1 -timeout 5m -run 'TestServeSmoke' ./cmd/toreadorctl/

# Crash-recovery proof of the durable segment store under the race detector:
# the fault-injection matrix crashes (and error-injects) the store at every
# mutating filesystem operation in the write/commit/checkpoint path under
# three data-loss models, reopens, and asserts the recovered manifest is
# exactly the pre- or post-commit state. The recovery edge cases and the
# toreadorctl tables smoke ride along.
crash-matrix:
	$(GO) test -race -count=1 -timeout 5m \
		-run 'TestCrashRecoveryMatrix|TestErrorInjectionMatrix|TestRecover' ./internal/store/
	$(GO) test -race -count=1 -timeout 5m -run 'TestCLITablesSmoke' ./cmd/toreadorctl/

# Compiles every example main so API drift in the public surface is caught
# even before their smoke tests run.
examples:
	$(GO) build ./examples/...

ci: fmt vet lint build examples test race
