# Convenience targets; everything is plain cargo underneath.

.PHONY: build test fmt clippy analyze tsan audit chaos check bench-json bench-batch bench-scale stage3-gate bench-eco bench-serve tables

build:
	cargo build --release

test:
	cargo test -q

fmt:
	cargo fmt --check

clippy:
	cargo clippy --workspace --all-targets -- -D warnings

# The static-analysis pass (DESIGN.md §13): determinism taint from the
# scheduler/stage seed set, the sanctioned-site rules (Instant only in
# obs::clock, float<->int casts only in db::geom, raw stage entry points
# only in the pipeline), no lock guard live across a channel send,
# unwrap/expect in library code, and the panic-surface audit against the
# catch_unwind containment boundaries. Ratcheted via xtask/analyze-allow.txt;
# re-baseline with `cargo xtask analyze --bless`. JSON report lands in
# target/analyze-report.json.
analyze:
	cargo xtask analyze

# ThreadSanitizer over the concurrency-heavy subset (scheduler, engine,
# batch parity). Needs a nightly toolchain with rust-src; mirrors the
# nightly `tsan` CI job.
tsan:
	RUSTFLAGS="-Zsanitizer=thread" TSAN_OPTIONS="suppressions=.tsan-suppressions" \
		cargo +nightly test -Zbuild-std --target x86_64-unknown-linux-gnu \
		-p mcl-core --lib -- scheduler:: engine::
	RUSTFLAGS="-Zsanitizer=thread" TSAN_OPTIONS="suppressions=.tsan-suppressions" \
		cargo +nightly test -Zbuild-std --target x86_64-unknown-linux-gnu \
		--test batch_parity

# Certifying audit suite: independent legality auditor, flow-optimality
# certificates, replay determinism. Release builds drop debug_assertions, so
# the `audit` feature forces the certifiers on.
audit:
	cargo test --release -p mcl-audit
	cargo test --release -p mcl-core --features audit
	cargo test --release -p mcl-core --features replay-log --test replay_determinism

# Chaos suite (DESIGN.md §11): deterministic fault injection against the
# containment contract — no success-claiming reports under faults, no
# partial mutation out of failed stages, degradation rungs equal their
# declared algorithms, batch survivors byte-identical, at 1/2/4 threads.
chaos:
	cargo test --features faultinject --test chaos --test chaos_serve

check: build test fmt clippy analyze audit chaos

# Regenerate BENCH_mgl.json (cells/s at 1/2/4/8 threads, seed scheduler vs
# current). Knobs: MCL_BENCH_CELLS, MCL_BENCH_DENSITY_PCT, MCL_BENCH_REPS.
bench-json:
	cargo run --release -p mcl-bench --bin speedup

# Batch-scheduler throughput (DESIGN.md §12): the `batch` section of
# BENCH_mgl.json — engine vs sequential solo on 16 small designs at
# 1/2/4/8 threads, plus one throttled-admission run (4 threads, 2 in
# flight, one MGL helper per runner), with
# per-thread-count bit-identity asserted. Knobs: MCL_BENCH_BATCH,
# MCL_BENCH_BATCH_CELLS, MCL_BENCH_BATCH_DENSITY_PCT, MCL_BENCH_REPS.
bench-batch:
	cargo run --release -p mcl-bench --bin speedup

# Scale sweep (DESIGN.md §14): the `scale` section of BENCH_mgl.json —
# MGL throughput and peak RSS at 10k/100k/1M cells through the parallel
# scheduler. Knobs: MCL_SCALE_SIZES, MCL_SCALE_THREADS, MCL_SCALE_SEED,
# MCL_SCALE_DENSITY_PCT, MCL_SCALE_MIX, MCL_SCALE_MAX_EXPANSIONS; CI gates
# via MCL_SCALE_FLOOR_CPS / MCL_SCALE_MAX_RSS_KB.
bench-scale:
	cargo run --release -p mcl-bench --bin scale

# Stage-3 regression gate: on a fixed 100k-cell fenced design, stage 3
# (fixed_order, the network simplex) must not take longer than stage 1
# (mgl). The ratio of two stages in one run does not depend on machine
# speed; a quadratic simplex pushes it past 1 (over 3 before the O(1) tree
# unlink, about 0.35 after). Artifacts land in STAGE3_DIR.
STAGE3_DIR ?= target/stage3-gate
stage3-gate:
	cargo run --release -q --bin mclegal -- generate --cells 100000 --density 0.55 \
		--fences 2 --seed 1000 --out $(STAGE3_DIR)/design
	cargo run --release -q --bin mclegal -- legalize --bookshelf $(STAGE3_DIR)/design \
		--mode contest --threads 2 --report-json $(STAGE3_DIR)/report.json
	python3 -c 'import json, sys; s = json.load(open(sys.argv[1]))["stage_seconds"]; \
		print("fixed_order", s["fixed_order"], "s, mgl", s["mgl"], "s"); \
		sys.exit(s["fixed_order"] > s["mgl"])' $(STAGE3_DIR)/report.json

# ECO delta-latency bench (DESIGN.md §15): the `eco` section of
# BENCH_mgl.json — resident-session 64-cell deltas on a 100k-cell base vs
# a from-scratch ECO run of the same mutation (p50/p99 delta ms,
# windows_dirty, speedup_vs_full). Knobs: MCL_ECO_CELLS, MCL_ECO_DELTA,
# MCL_ECO_DELTAS, MCL_ECO_THREADS, MCL_ECO_SEED, MCL_ECO_DENSITY_PCT; CI
# gates via MCL_ECO_MAX_P99_MS / MCL_ECO_MIN_SPEEDUP. Always gated: the
# full reference's maxdisp may take at most 4x its fixed_order.
bench-eco:
	cargo run --release -p mcl-bench --bin eco

# Serve latency bench (DESIGN.md §16): the `serve` section of
# BENCH_mgl.json — closed-loop clients at concurrency 1/4/16 against an
# in-process daemon (journal + report dir on, so the fsync is in the
# measured path); per-level p50/p99 job ms, jobs/sec, RETRY_AFTER count.
# Knobs: MCL_SERVE_CELLS, MCL_SERVE_JOBS, MCL_SERVE_THREADS,
# MCL_SERVE_QUEUE_CAP, MCL_SERVE_SEED, MCL_SERVE_DENSITY_PCT; CI gate via
# MCL_SERVE_MAX_P99_MS (single-client p99 ceiling).
bench-serve:
	cargo run --release -p mcl-bench --bin serve

# Paper tables/figures (MCL_SCALE scales cell counts, default 0.05).
tables:
	cargo run --release -p mcl-bench --bin table1
	cargo run --release -p mcl-bench --bin table2
	cargo run --release -p mcl-bench --bin table3
