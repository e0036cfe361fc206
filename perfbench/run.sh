#!/bin/sh
# Build the benchmark if it is out of date, then run it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper_coloc --seed 1 --seconds 40 --trace 0
#   bash perfbench/run.sh repeat --runs 10 --sets 2
#
# Every function and every loop is aligned to a 64-byte cache line.
# Otherwise where a hot loop falls within a line depends on all the code
# and data linked before it, down to the length of the checkout's path,
# which the binary embeds; checkpoint parsing, which spends its time in
# one loop, then runs at a speed that differs from build to build of the
# same code (README.md, "Build").
set -e
RUSTFLAGS="-C llvm-args=-align-all-functions=6 -C llvm-args=-align-loops=64"
export RUSTFLAGS
exec cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- "$@"
