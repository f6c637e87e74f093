# Convenience targets; dune is the real build system.

.PHONY: all build test tables-comparison bench bench-quick bench-eval bench-attacks bench-eval-smoke bench-attacks-smoke bench-smoke bench-load fuzz fuzz-smoke opt-smoke systest store-smoke load-smoke gate check examples clean

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Same as bench without the attack comparison; Tables I and II run in full.
bench-quick:
	dune exec bench/main.exe -- --quick

# Evaluation-engine micro-benchmarks; verifies engine/seed-path equivalence
# on every benchmark (scalar, one word, and an 8-word block with a partial
# last word), fails if the largest circuit's block throughput drops below
# the committed BENCH_eval.json value / 1.5, and rewrites BENCH_eval.json.
bench-eval:
	dune exec bench/bench_eval.exe

# Attack-framework benchmarks: oracle throughput (batched engine path
# vs. the pre-framework assoc-list oracle, equivalence-checked, must be
# >= 10x) plus per-attack wall time; writes BENCH_attacks.json.
bench-attacks:
	dune exec bench/bench_attacks.exe

# CI-sized variants; they write outside the tree so the committed
# BENCH_*.json stay full-run artifacts.  Both self-check their emitted
# JSON against the repo parser; bench_eval asserts the block path never
# loses to the single-word path, bench_attacks asserts the batched
# oracle is >= 10x the assoc baseline and >= 1x scalar on the largest
# circuit in the run.
bench-eval-smoke:
	dune exec bench/bench_eval.exe -- --smoke /tmp/BENCH_eval_smoke.json

bench-attacks-smoke:
	dune exec bench/bench_attacks.exe -- --smoke /tmp/BENCH_attacks_smoke.json

bench-smoke: bench-eval-smoke bench-attacks-smoke

# Refresh the committed sustained-load baseline (full 5 s windows per
# transport x mode row; run on the reference machine only).
bench-load: build
	dune exec bin/systest_main.exe -- load --out BENCH_load.json

# Differential fuzzing: engine vs reference vs timing sim vs SAT/BDD,
# plus locking-scheme metamorphic properties.  Failures shrink to
# replayable .bench/.stim pairs; rerun with GKLOCK_SEED=<n> to replay.
fuzz:
	dune exec bin/gklock_cli.exe -- fuzz --cases 2000

# Time-boxed variant for CI: whatever fits in ~10 seconds.
fuzz-smoke:
	dune exec bin/gklock_cli.exe -- fuzz --cases 100000 --time 10 --quiet

# The opt front-end end to end through the CLI: optimize two built-in
# benchmarks and SAT-verify each optimized netlist against its original.
opt-smoke: build
	dune exec bin/gklock_cli.exe -- opt s1238 --check -o /tmp/s1238_opt.bench
	dune exec bin/gklock_cli.exe -- opt s5378 --check -o /tmp/s5378_opt.bench

# End-to-end system tests: the full scenario catalogue (CLI round
# trips, campaign run/interrupt/resume, daemon parity, quota and
# shutdown gating, gate self-check) against the real binaries.  The
# old campaign-smoke / trace-smoke / serve-smoke drivers live on as
# scenarios here.
systest: build
	dune exec bin/systest_main.exe -- run --profile smoke

# Content-addressed store end to end: seed a campaign, migrate a legacy
# results.jsonl with byte-identical report, widen the matrix and prove
# only the delta executes, then gc + fsck the store clean.
store-smoke: build
	dune exec bin/systest_main.exe -- run --only campaign_store,campaign_run

# Short sustained-load measurement (1 s windows; does not touch the
# committed BENCH_load.json).
load-smoke: build
	dune exec bin/systest_main.exe -- load --smoke --out /tmp/BENCH_load_smoke.json

# Perf regression gate: re-measure smoke-profile numbers and compare
# against the committed BENCH_*.json trajectory.  GATE_FLAGS widens
# the tolerances for noisy machines (CI uses --max-slowdown 4
# --ratio-tolerance 3); the committed baselines come from `make
# bench-eval`, `make bench-attacks` and `make bench-load` on the
# reference machine.
gate: build
	dune exec bench/bench_eval.exe -- --smoke /tmp/BENCH_eval_fresh.json
	dune exec bench/bench_attacks.exe -- --smoke /tmp/BENCH_attacks_fresh.json
	dune exec bin/systest_main.exe -- load --smoke --out /tmp/BENCH_load_fresh.json
	dune exec bin/systest_main.exe -- gate --baseline-dir . \
	  --fresh-eval /tmp/BENCH_eval_fresh.json \
	  --fresh-attacks /tmp/BENCH_attacks_fresh.json \
	  --fresh-load /tmp/BENCH_load_fresh.json $(GATE_FLAGS)

# The attack-comparison table end to end (~11 s): every registry attack
# the paper compares, against strict chip oracles.
tables-comparison: build
	dune exec bin/gklock_cli.exe -- tables --table=comparison

# Everything a PR must keep green: full build (libs, CLI, examples,
# benches), the test suite, a fuzz smoke, the comparison table, the
# system-test catalogue and the perf regression gate.
check: build test fuzz-smoke opt-smoke tables-comparison systest store-smoke gate

examples:
	dune exec examples/quickstart.exe
	dune exec examples/attack_resilience.exe
	dune exec examples/timing_exploration.exe
	dune exec examples/hybrid_locking.exe
	dune exec examples/withholding.exe
	dune exec examples/scan_bist.exe

clean:
	dune clean
