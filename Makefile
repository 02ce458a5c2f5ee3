GO ?= go

.PHONY: build test verify bench allocs bench-smoke compare flake figures json loc fuzz chaos chaos-search durability membership livecheck shard batteries-check ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The PR gate: static checks plus the full suite under the race detector,
# which exercises the parallel explorer, the sharded visited-set, and the
# sweep/batch cell runners under contention. gofmt -l prints the files it
# would rewrite; any name fails the gate.
verify:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchmem -run '^$$' ./...

# The per-layer allocation rows of a write and of a received update: a
# shard turn's (a client operation, a replicated update), the causal
# store's alone, a compressed batch frame inflated, and a frame read off a
# connection, at a fixed iteration count on one CPU so that B/op and
# allocs/op read the same from run to run. A write allocates 0 times
# (DoInLoop/write, CausalWrite), and so does a received update (ApplyUpdate,
# CausalReceive, its waiting leg included): the store keeps its value as a
# view of the record it is handed — the receive record's payload, or the do
# record's head, which a client's request is copied into once. DoInLoop's
# rows also read the bytes of records the history keeps per operation
# (history-B/op) and, in the journal leg, the bytes the journal writes
# (journal-B/op): a write of a 16-byte value keeps 62.6 B of records, 15 B
# fewer than with its send whole (77.6 B), since the send leaves out the
# value its do record holds. An inflated
# frame allocates only compress/flate's own (InflateTo: 1 B in 1 alloc). The
# last row is the pin of a whole write over TCP, request frame to reply:
# 0 allocations, and no bytes but the records and what the node keeps. A
# batch frame's trip through a connection's LZ stream, both ends
# (BenchmarkStream), allocates nothing either: each end's buffers start at
# the first frame's size and double to full size, once per connection
# (amortized over 200000 frames, 1 B/op). Last, the time WaitQuiesced takes
# to see a three-node cluster quiesce once a write at every node has been
# delivered (BenchmarkQuiesce, ms/quiesce): about a round trip, where two
# 10 ms sleeps between sweeps once made it ≈21 ms (≈0.4 ms now, -cpu 1).
allocs:
	$(GO) test ./internal/cluster -run '^$$' -bench '^Benchmark(DoInLoop|ApplyUpdate|InflateTo)$$' -benchtime 200000x -cpu 1 -benchmem
	$(GO) test ./internal/store/causal -run '^$$' -bench '^Benchmark(CausalWrite|CausalReceive)$$' -benchtime 200000x -cpu 1 -benchmem
	$(GO) test ./internal/wire -run '^$$' -bench '^Benchmark(ReadFrame|Stream)$$' -benchtime 200000x -cpu 1 -benchmem
	$(GO) test ./internal/cluster -run '^TestWriteOverTCPAllocatesOnlyWhatItKeeps$$' -count 1 -v
	$(GO) test ./internal/cluster -run '^$$' -bench '^BenchmarkQuiesce$$' -benchtime 200x -cpu 1

# The benchmark under benchmark/ is its own module, so `go build ./...` and
# `go test ./...` never compile it: an interface change in the main module
# (store.Replica gaining a method, say) can break its wrappers unnoticed.
# This vets it and runs its own tests, which drive every workload -quick,
# traced and untraced, with full verification. The per-layer Go benchmarks
# next to the code are run by nothing else either, so each gets one
# iteration here: enough to keep them compiling and passing their own checks
# (BenchmarkReplicatedWrite among them: on a three-node loopback cluster a
# write reads 2 frames/write and ≈18 wire-B/write (≈64 before protocol
# version 14 coded batch frames through the link's LZ stream, which carries
# each write's repeated value as a back-reference; ≈70 before 13 implied
# each update's seq and stamp), and its durable leg, every
# node journaling to an fsynced file, 1.00 wal-writes/write and 1.00
# commits/write — the origin's; a receiver commits only when asked, or per
# block of staged receives, +0.004. Each write waits out the link's 200 µs
# pace and the poll's sleeps: ≈0.63 ms/op in memory and ≈0.54 ms/op durable,
# 3000x on a 2-vCPU host's ext4. Its stream leg, writes back to back, reads
# ≈3.3 µs/op and 0.04 frames/write). BenchmarkSettleBacklog is left out: a
# round is 30 000 writes, and it reads only over many rounds (-benchtime 25x).
bench-smoke:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...
	$(GO) test -bench . -benchtime=1x -run '^$$' -skip '^BenchmarkSettleBacklog$$' ./internal/...

# The paired A/B comparison every speed claim is made with: both trees'
# benchmark/run.sh, alternated, PAIRS pairs per workload on seeds SEED…,
# the ref checked out by git clone into .bench_build/ref; a gated metric
# worse than its BENCHMARK.json bound fails the target.
REF ?= HEAD~1
WORKLOADS ?= mixed-small-closed
PAIRS ?= 10
SEED ?= 1
compare:
	$(GO) run ./cmd/benchpair -ref $(REF) -workloads $(WORKLOADS) -pairs $(PAIRS) -seed $(SEED)

# Timing flakes hide at -count=1. Repeat the networked packages — real
# sockets, child processes, goroutines racing test assertions, the
# Supervisor's own and the last three through it — so a 1-in-15 failure
# shows up in one run.
flake:
	$(GO) test -count=20 ./internal/cluster ./internal/supervisor ./internal/durable ./cmd/served ./cmd/loadgen \
		./internal/livecheck ./internal/store/storetest ./internal/chaossearch

figures:
	$(GO) run ./cmd/figures -all

# Machine-readable experiment artifacts, tracked in git so result drift
# shows up in review.
json:
	$(GO) run ./cmd/figures -all -seed 1 -parallel 1 -json > BENCH_FIGURES.json
	$(GO) run ./cmd/msgbound -sweep grid -seed 1 -parallel 1 -json > BENCH_MSGBOUND.json
	$(GO) run ./cmd/chaoshunt -store causal -seed 1 -budget 48 -objective all -parallel 1 -json > BENCH_CHAOS.json
	$(GO) run ./cmd/chaoshunt -store gsp -seed 1 -budget 48 -objective all -parallel 1 -json >> BENCH_CHAOS.json
	$(GO) run ./cmd/loadgen -wirebench -store causal -seed 1 -ops 200 -json > BENCH_WIRE.json
	$(GO) run ./cmd/loadgen -syncbench -store causal -seed 1 -ops 200 -json > BENCH_SYNC.json
	$(GO) run ./cmd/loadgen -livebench -seed 1 -ops 800 -json > BENCH_LIVECHECK.json
	$(GO) run ./cmd/loadgen -shardbench -seed 1 -keys 1000000 -ops 200000 -shards 8 -json > BENCH_SHARD.json

# Go lines per package over the tracked files, non-test then test, the root
# module and benchmark/ (its own module) apart: the before/after a
# simplicity PR states.
loc:
	@git ls-files '*.go' | xargs wc -l | awk '$$2 != "total" { \
		dir = $$2; if (!sub(/\/[^\/]*$$/, "", dir)) dir = "."; \
		mod = (dir ~ /^benchmark(\/|$$)/) ? "benchmark" : "root"; \
		kind = ($$2 ~ /_test\.go$$/) ? "test" : "code"; \
		n[mod, dir, kind] += $$1; tot[mod, kind] += $$1; seen[mod "\t" dir] = 1 } \
		END { printf "%-10s %-34s %8s %8s\n", "module", "package", "non-test", "test"; \
		for (k in seen) { split(k, p, "\t"); \
			printf "%-10s %-34s %8d %8d\n", p[1], p[2], n[p[1], p[2], "code"], n[p[1], p[2], "test"] | "sort" } \
		close("sort"); \
		for (m in tot) { split(m, p, SUBSEP); mods[p[1]] = 1 } \
		for (m in mods) printf "%-10s %-34s %8d %8d\n", m, "TOTAL", tot[m, "code"], tot[m, "test"] | "sort -r"; }'

# Brief coverage-guided runs of every fuzz target (decoders, replica
# Receive paths and the forest's prefix-root query), on top of the checked-in
# seed corpora the ordinary test run already replays.
fuzz:
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzReadFrame -fuzztime 10s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzReusedFrameBuffer -fuzztime 10s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzReader -fuzztime 10s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzStreamDecode -fuzztime 10s
	$(GO) test ./internal/abstract -run '^$$' -fuzz FuzzUnmarshalExecution -fuzztime 10s
	$(GO) test ./internal/durable -run '^$$' -fuzz FuzzRecoverTail -fuzztime 10s
	$(GO) test ./internal/cluster -run '^$$' -fuzz FuzzDecodeBatch -fuzztime 10s
	$(GO) test ./internal/cluster -run '^$$' -fuzz FuzzDecodeEventBinary -fuzztime 10s
	$(GO) test ./internal/cluster -run '^$$' -fuzz FuzzEventDecoder -fuzztime 10s
	$(GO) test ./internal/cluster -run '^$$' -fuzz FuzzDecodeDigest -fuzztime 10s
	$(GO) test ./internal/cluster -run '^$$' -fuzz FuzzDecompressFrame -fuzztime 10s
	$(GO) test ./internal/cluster -run '^$$' -fuzz FuzzStatsRoundTrip -fuzztime 10s
	$(GO) test ./internal/membership -run '^$$' -fuzz FuzzForestPrefix -fuzztime 10s
	$(GO) test ./internal/store/causal -run '^$$' -fuzz FuzzReceive -fuzztime 10s
	$(GO) test ./internal/store/gsp -run '^$$' -fuzz FuzzReceive -fuzztime 10s
	$(GO) test ./internal/store/statesync -run '^$$' -fuzz FuzzReceive -fuzztime 10s

# The durability battery: the on-disk journal's torn-tail/torn-seal
# regression suite, the disk-backed supervisor and chaos runs, the commit
# rule's crash windows under the race detector (a write costs one commit; a
# receive is staged and committed only before something reports it, so a
# receiver that crashes holding staged receives recovers the committed
# prefix and is resent the rest; a restart that lost its history
# fail-stops), and the kill -9 harness (a real served child process
# SIGKILL'd mid-load and restarted on the same -data-dir).
durability:
	$(GO) test ./internal/durable -count=1
	$(GO) test -race ./internal/durable -run 'CommitWindow' -count=1
	$(GO) test -race ./internal/cluster -run 'CommitWindow|RestartWithoutHistory' -count=1
	$(GO) test -race ./cmd/served -run 'Kill9|ParsePeers|WriteJSON|AdminServer' -count=1
	$(GO) test -race ./cmd/loadgen -run 'TestRunChaosDiskBacked' -count=1

# The fault-injection sweep: every registered store through seeded
# partition/crash/link-fault schedules in the simulator, then the TCP
# cluster, the Supervisor and loadgen chaos mode under the race detector, with
# the rules that a live link never resends (a connection delivers in order or
# dies), that a replicated write costs each peer one frame (no batch is acked,
# and a receiver answers only the quiescence check's questions, after applying
# and journaling what it counts), and that the fault transport cuts the
# replies a node writes back on the reverse link but never a client's
# connection, that every frame a node writes is one Write (the fault
# transport shapes per Write), that a busy link sends a shard's log once
# per pace, in one frame per pass with a section per shard, and that a
# reconnect starts each shard's run state and the link's LZ stream afresh at
# both ends. Last, a loadgen chaos run whose schedule opens a dup window on
# a busy link: the emulator once repeated frames a TCP connection never
# repeats, and the copy decoded as the frames after it (the audit found
# receives sorted before their sends).
chaos:
	$(GO) test ./internal/fault -count=1
	$(GO) test ./internal/store/storetest -run 'TestRegisteredStoresConform/.*/Chaos' -count=1
	$(GO) test -race ./internal/cluster ./internal/supervisor ./cmd/loadgen -run 'Chaos|Supervisor|Restart|LiveLinkNeverResends|ReplicatedWriteIsOneFramePerPeer|BusyLinkPacesFrames|DrainedAnswersAfterApply|FailedJournalNeverAnswers|ObeysLinkCut|ClientAnsweredOverCutNetwork|EveryFrameIsOneWrite|BatchFrameCarriesEveryShard|ReconnectStartsRunsAfresh' -count=1
	$(GO) run ./cmd/loadgen -chaos -seed 2 -ops 200 -clients 3

# The dynamic-membership battery: the hash-chain forest and view unit suites,
# the join/leave/rejoin protocol tests (anti-entropy catch-up, divergence
# and version-mismatch refusal, a gossip reply lost to a link cut), churned fault schedules through the
# supervisor, the forest a restarted node rebuilds from its journal and the
# range it serves from it, and the kill -9 mid-sync harness (a served child
# joining via -join, SIGKILL'd mid-pull, restarted on the same -data-dir).
membership:
	$(GO) test -race ./internal/membership -count=1
	$(GO) test -race ./internal/cluster ./internal/supervisor -run 'Join|Rejoin|Leave|Churn|SyncCost|Member|RestartedForest|RangeServed|GossipReply' -count=1
	$(GO) test -race ./internal/fault -run 'Churn' -count=1
	$(GO) test -race ./cmd/served -run 'Kill9MidSyncJoin|ParseTopology' -count=1
	$(GO) test -race ./cmd/loadgen -run 'Syncbench' -count=1

# The online-checker battery: the streaming checker's unit and equivalence
# suites (every registered store: streaming, post-run audit and the
# BuildAudit + CheckCausal reference on seeded chaos schedules), the TCP
# violation-during-run acceptance test, the cluster and conformance audits
# that hold AuditShards to the reference, the tapped chaos pipeline, and the
# served /livecheck endpoint — all under the race detector, since the checker
# is fed concurrently by every node's shard turns.
livecheck:
	$(GO) test -race ./internal/livecheck -count=1
	$(GO) test -race ./internal/cluster -run 'LiveChecker|ThreeNodeAudit|ClientRequestResponse|MergeHistoriesRejectsDuplicateSend|BuildAuditFrontierless' -count=1
	$(GO) test -race ./internal/store/storetest -run 'TestRegisteredStoresConform/.*/(ShardedCluster|LentMessages/Cluster)' -count=1
	$(GO) test -race ./cmd/loadgen -run 'LiveAudit|ShardedChurn|Livebench|LatCell' -count=1
	$(GO) test -race ./cmd/served -run 'AdminServer|Kill9Recovery' -count=1

# The sharding battery: keyspace routing and the per-shard turns —
# the router and sharded-cluster convergence/audit suites, the shard-count
# mismatch refusal, the sharded supervisor crash/restart, the per-shard
# livecheck set, the group-commit fsync coordinator and the seal its
# journals rename through, the sharded conformance leg of every registered
# store, the compression regression tests that rode the sharding PR, and
# the kill -9 mid-group-commit harness — all under the race detector,
# since shards share the node's transport and fsync rounds.
shard:
	$(GO) test -race ./internal/cluster ./internal/supervisor -run 'Shard|Compress' -count=1
	$(GO) test -race ./internal/livecheck -run 'ShardSet' -count=1
	$(GO) test -race ./internal/durable -run 'GroupCommit|SealIsARename|SealRefuses|CrashInSealWindow' -count=1
	$(GO) test -race ./internal/store/storetest -run 'TestRegisteredStoresConform/.*/ShardedCluster' -count=1
	$(GO) test -race ./cmd/served -run 'Kill9ShardedGroupCommit' -count=1

# The adversarial chaos search: a small-budget hunt per objective against
# the default store, with each best schedule re-validated on the real TCP
# cluster. The tracked pipeline rows come from `make json` instead (no
# -validate there: validation counts are wall-clock and nondeterministic).
chaos-search:
	$(GO) test ./internal/chaossearch ./cmd/chaoshunt -count=1
	$(GO) run ./cmd/chaoshunt -store causal -seed 1 -budget 24 -objective all -validate

# A battery whose -run expression matches nothing prints "no tests to run"
# and passes, and one alternative of it matching nothing is quieter still,
# so a renamed or deleted test silently drops out of its battery. This lists
# the tests of each battery line's packages (go test -list, nothing runs)
# and fails unless the expression names a test in every package and each of
# its alternatives names one in some package. -run matches slash-separated
# elements level by level and only the top one is a test's name, so the
# expression is cut at its first slash; the fuzz targets' -run '^$$' selects
# nothing on purpose and is skipped.
batteries-check:
	@grep -E '^	\$$\(GO\) test .* -run ' Makefile | grep -v -e "-run '^" | { status=0; \
	while read -r line; do \
		re=$$(printf '%s\n' "$$line" | sed -E "s/.* -run '([^']*)'.*/\1/; s,/.*,,"); \
		all=; \
		for pkg in $$(printf '%s\n' "$$line" | grep -oE ' \./[A-Za-z0-9_/.]+'); do \
			names=$$($(GO) test -list . $$pkg | grep -E '^(Test|Fuzz|Benchmark|Example)') || exit 1; \
			all="$$all $$names"; \
			if ! printf '%s\n' $$names | grep -qE -e "$$re"; then \
				echo "batteries-check: -run '$$re' names no test in $$pkg"; status=1; \
			fi; \
		done; \
		for alt in $$(printf '%s\n' "$$re" | tr '|' ' '); do \
			if ! printf '%s\n' $$all | grep -qE -e "$$alt"; then \
				echo "batteries-check: '$$alt' in -run '$$re' names no test"; status=1; \
			fi; \
		done; \
	done; exit $$status; }

# What CI runs — .github/workflows/verify.yml is `make ci` and nothing else,
# so this prerequisite list is the only one: the verify gate, the batteries
# and the check that each still selects tests, the fuzz targets, then
# regenerate the tracked JSON artifacts and fail if they drifted from what
# the commit claims.
ci: verify bench-smoke chaos chaos-search durability membership livecheck shard batteries-check fuzz json
	git diff --exit-code BENCH_FIGURES.json BENCH_MSGBOUND.json BENCH_CHAOS.json BENCH_WIRE.json BENCH_SYNC.json BENCH_LIVECHECK.json BENCH_SHARD.json
