# Common developer workflows. Run `just --list` to see targets.

# Build everything in release mode.
build:
    cargo build --release

# The tier-1 gate: release build plus the full test suite.
check:
    cargo build --release
    cargo test -q

# Bit-identity of the dwt kernels in the profile every measured number
# comes from: the oracle suites also run in debug under `check`, but the
# register-blocked convolution chains and the vectorised `lift_step` only
# exist in `--release`. `mimd_golden` and `cross_machine_dwt` pin the
# engine's other consumers (the MIMD simulation's digests, the
# cross-machine agreement) in the same profile; `transform_golden` pins
# the integer lifting, the à trous transform and the MasPar simulator's
# cycles and coefficients.
kernel-pin:
    cargo test -q --release -p dwt
    cargo test -q --release --test engine_properties --test lifting_properties --test property_tests --test transform_extensions --test mimd_golden --test cross_machine_dwt --test transform_golden

# The wire codec in the profile every measured number comes from: a
# plane is encoded in one bulk pass that is only vectorised in
# `--release`, as the dwt kernels are for `kernel-pin`, and so is a
# plane's copy into and out of `FrameIo`'s chunk at each chunk edge. The
# wire, progressive and transport unit tests (`FrameIo`'s one writer and
# one reader, its deadline rule, a dropped shim end), the bitwise round
# trips and the pinned golden bytes of `wire_properties`, the allocation
# budgets of `wire_allocations` — per side of one frame, and
# process-wide for a warm 512² remote call, which allocates the decoded
# image and pyramid and no shard pyramid (the shard decomposes into the
# connection's spare) — and `wserv_remote`'s `frame_io` tests: the
# encoders' bytes, the decode at every split, and the pinned bytes of an
# injected bit flip or reset (`frame_io_injects_faults_on_the_codec_bytes`).
wire-pin:
    cargo test -q --release -p wserv --lib -- wire:: progressive:: transport::
    cargo test -q --release --test wire_properties --test wire_allocations
    cargo test -q --release --test wserv_remote -- frame_io

# Lints as CI runs them.
lint:
    cargo clippy --workspace --all-targets -- -D warnings
    cargo fmt --all --check

# Lines of code outside tests, per source file of one crate: each
# `.rs` file under `crates/<crate>/src` counts its lines above its first
# `#[cfg(test)]` (all of them if it has none), then the crate's total.
loc crate="wserv":
    #!/usr/bin/env bash
    set -euo pipefail
    find "crates/{{crate}}/src" -name '*.rs' | sort | while read -r f; do
        awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { printf "%6d %s\n", n, FILENAME }' "$f"
    done | awk '{ print; total += $1 } END { printf "%6d total\n", total }'

# Every intra-doc link resolves: a doc comment naming a deleted or
# private item fails here, not silently in the rendered pages.
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Regenerate BENCH_dwt.json (engine vs legacy, median ns/pixel, with
# the host's core count and copy rate; asserts the lifting gate).
# Set REPRO_FULL=1 for the full 256²–4096² size sweep.
bench-json:
    cargo run --release -p bench --bin bench_dwt

# Named for the lifting-vs-convolution headline rows of BENCH_dwt.json.
alias lift-bench := bench-json

# Downscaled lifting bench as CI runs it: headline only at 512x512,
# writes target/BENCH_dwt_smoke.json. The gate — CDF 5/3 lifting is no
# slower than the D4 convolution engine at the headline size — is
# asserted inside the binary, so its exit code is the check.
lift-bench-smoke:
    DWT_SMOKE=1 cargo run --release -p bench --bin bench_dwt

# Fault-matrix gate: sweep the drop-rate x crash-count grid CI runs and
# assert crash recovery stays bit-identical at every point, for the
# striped and block decompositions and the distributed reconstruction.
faults:
    #!/usr/bin/env bash
    set -euo pipefail
    for drop in 0.0 0.001 0.02; do
        for crashes in 0 1 3; do
            echo "--- drop_rate=$drop crashes=$crashes"
            FAULT_DROP_RATE=$drop FAULT_CRASHES=$crashes \
                cargo test -q --test fault_matrix
        done
    done

# Regenerate BENCH_faults.json (degradation curves of the block DWT
# under injected link faults and rank crashes).
faults-json:
    cargo run --release -p bench --bin bench_faults

# Pin the MIMD and SIMD simulations: BENCH_faults.json must regenerate
# byte for byte (its header promises reproducibility), and the four
# full-size paper harnesses that run the simulated machines — the three
# distributed transforms on the Paragon and the MasPar's systolic,
# dilution and virtualization ablation — must print exactly the
# captured results/<name>.txt (blank lines ignored). A refactor of
# dwt-mimd, paragon or maspar must leave this green; a deliberate
# modelling change commits the regenerated files.
mimd-pin:
    #!/usr/bin/env bash
    set -euo pipefail
    cargo run --release -p bench --bin bench_faults
    git diff --exit-code BENCH_faults.json
    for name in repro_table1 repro_fig5_7 repro_fig3_block_stripe repro_maspar_ablation; do
        diff <(grep -v '^\s*$' "results/$name.txt") \
             <(REPRO_FULL=1 cargo bench -q -p bench --bench "$name" | grep -v '^\s*$')
        echo "mimd-pin OK: $name identical to results/$name.txt"
    done

# Chaos gate: sweep the shard-crash axis of the serving fault grid and
# run the full chaos invariant suite (exactly-once resolution, seeded
# replay, supervision, failover, quarantine, degraded mode) at every
# point, live driver and sim both.
chaos:
    #!/usr/bin/env bash
    set -euo pipefail
    for crash_shards in 0 1 2; do
        echo "--- crash_shards=$crash_shards"
        WSERV_CRASH_SHARDS=$crash_shards cargo test -q --release --test wserv_chaos
    done

# Downscaled chaos gate: one crash-grid point of the invariant suite,
# plus the smoke bench (whose binary asserts exactly-once on every
# chaos row and that each lost shard cost FaultRecovery time).
chaos-smoke: serve-bench-smoke
    WSERV_CRASH_SHARDS=1 cargo test -q --test wserv_chaos

# Soak the live supervisor's wake-up path: it blocks until a worker
# reports its exit, so a lost report hangs instead of failing an
# assertion. The supervision tests of wserv_chaos (zero-budget failover,
# the live-vs-sim worker-death grid, restart, two deaths at once, death
# while draining, budget exhaustion) run 25 times, one test at a time, each round under `timeout` so a
# hang is a non-zero exit within a minute.
supervise-soak:
    #!/usr/bin/env bash
    set -euo pipefail
    cargo test -q --release --test wserv_chaos --no-run
    for round in $(seq 25); do
        timeout 60 cargo test -q --release --test wserv_chaos -- \
            worker restart_budget --test-threads=1 2>/dev/null
    done
    echo "supervise-soak OK: 25 rounds"

# Soak the remote layer's wake-ups: accept, reads, drain and a
# connection waiting on a progressive credit block until an event — a
# dial, a frame, a credit, a close — so a lost wake hangs instead of
# failing an assertion. The drain, handshake, response-timeout,
# parked-sequence, in-order pipelining, framing, v3-refusal,
# reused-client-id, in-flight-resubmit and spare tests of wserv_remote,
# over the shim and TCP — reads land a header, then a payload a chunk at
# a time, in as many pieces as the transport delivers; a request that
# finds its id in flight, the same request resubmitted or a different
# one under a reused id, waits on the book for that claim and claims
# again; and the pyramid the book releases travels with the
# connection's next request to the shard, across geometry changes,
# degraded responses, a replay holding its result and worker deaths —
# run 25 times, one test at a time, each round under `timeout` so a
# hang is a non-zero exit within a minute.
remote-soak:
    #!/usr/bin/env bash
    set -euo pipefail
    cargo test -q --release --test wserv_remote --no-run
    for round in $(seq 25); do
        timeout 60 cargo test -q --release --test wserv_remote -- \
            drain hello times_out parked pipelining frame_io v3_ reused_client_id resubmit spare \
            --test-threads=1 2>/dev/null
    done
    echo "remote-soak OK: 25 rounds"

# Regenerate BENCH_service.json — the serving *model*: every row of
# bench_service's scenario table (arrival rate x shards x cache x
# batching, chaos, elastic sharding) in virtual time under the
# constants printed in its header. The binary asserts table
# completeness, the exactly-once invariant on every row, each section's
# coverage checks and byte-reproducibility. It models no wire:
# wall-clock numbers for the serving and remote paths come from
# `bash benchmark/run.sh`.
serve-bench:
    cargo run --release -p bench --bin bench_service

# Pin the simulator's output: the whole file is a pure function of the
# seed, so regenerating it must leave the committed copy untouched. A
# refactor of the sim, the shared serving policy or the bench's table
# must leave this green; a deliberate modelling change commits the
# regenerated file.
serve-bench-pin:
    cargo run --release -p bench --bin bench_service
    git diff --exit-code BENCH_service.json

# Downscaled serving bench as CI runs it, once: fixed seed, small table,
# writes target/BENCH_service_smoke.json. Every gate is asserted inside
# the binary, so its exit code is the check.
serve-bench-smoke:
    WSERV_SMOKE=1 cargo run --release -p bench --bin bench_service
