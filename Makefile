# Convenience targets; everything is plain cargo underneath.

.PHONY: build test fmt clippy doc analyze tsan audit chaos check bench stage3-gate tables

build:
	cargo build --release

test:
	cargo test -q

fmt:
	cargo fmt --check

clippy:
	cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc with warnings as errors: a doc link to a renamed or deleted item
# fails the build.
doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

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
# ECO session deltas, stage-2 fan-out, batch parity). Needs a nightly
# toolchain with rust-src; mirrors the nightly `tsan` CI job.
tsan:
	RUSTFLAGS="-Zsanitizer=thread" TSAN_OPTIONS="suppressions=.tsan-suppressions" \
		cargo +nightly test -Zbuild-std --target x86_64-unknown-linux-gnu \
		-p mcl-core --lib -- scheduler:: engine:: legalizer:: maxdisp::
	RUSTFLAGS="-Zsanitizer=thread" TSAN_OPTIONS="suppressions=.tsan-suppressions" \
		cargo +nightly test -Zbuild-std --target x86_64-unknown-linux-gnu \
		--test batch_parity

# Certifying audit suite: independent legality auditor, flow-optimality
# certificates, replay determinism. Release builds drop debug_assertions, so
# the `audit` feature forces the certifiers on.
audit:
	cargo test --release -p mcl-audit
	cargo test --release -p mcl-core --features audit
	cargo test --release -p mcl-core --test replay_determinism

# Chaos suite (DESIGN.md §11): deterministic fault injection against the
# containment contract — no success-claiming reports under faults, no
# partial mutation out of failed stages, degradation rungs equal their
# declared algorithms, batch survivors byte-identical, at 1/2/4 threads.
chaos:
	cargo test --test chaos --test chaos_serve

check: build test fmt clippy doc analyze audit chaos

# The perf bench (DESIGN.md §6, §12, §14-§16): writes all of BENCH_mgl.json
# in one run. Sections, in order: mgl (seed scheduler vs current at
# 1/2/4/8 threads, the pipeline's stage breakdown, batch engine vs solo
# runs), scale (MGL cells/s and peak RSS at 10k/100k/1M cells), eco
# (64-cell deltas on a resident 100k session vs a from-scratch ECO run)
# and serve (closed-loop clients at concurrency 1/4/16). Exits non-zero
# when a gate is violated. CI runs `perf --smoke`: smaller sizes, no serve.
bench:
	cargo run --release -p mcl-bench --bin perf

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

# Paper tables/figures (MCL_SCALE scales cell counts, default 0.05).
tables:
	cargo run --release -p mcl-bench --bin table1
	cargo run --release -p mcl-bench --bin table2
	cargo run --release -p mcl-bench --bin table3
