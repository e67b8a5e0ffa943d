#!/bin/sh
# Prints perfbench's seed-21 `work.digest` and `telemetry.det_digest` for
# each workload the benchmark gates, one `<workload> <key> <digest>` line
# each. Run from the repository root:
#
#   sh ci/perfbench-digests.sh > ci/perfbench-digests.txt   # regenerate
#   sh ci/perfbench-digests.sh | diff - ci/perfbench-digests.txt   # check
set -eu
for w in elect_wide elect_discovered epidemic_1e8; do
  cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
    --workload "$w" --seed 21 --seconds 0 --trace 1 \
    | grep -E '^  (work\.digest|telemetry\.det_digest) ' | sed "s/^ */$w /"
done
