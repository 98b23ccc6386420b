#!/usr/bin/env bash
# Non-test lines of code, by one rule: every `.rs` under `crates`, `src`
# and `examples` that is not under a `tests/` directory, each counted up
# to its first `#[cfg(test)]` line. Prints the total, then each crate
# (the umbrella's `src` and `examples` as rows of their own), then each
# file of the engine's `coordinator/`. A report, not a gate:
#
#     bash ci/loc.sh
set -u
cd "$(dirname "$0")/.." || exit 2

loc() {
    for f in $(find "$@" -name '*.rs' -not -path '*/tests/*' | sort); do
        awk '/#\[cfg\(test\)\]/{exit} {print}' "$f"
    done | wc -l
}

row() {
    printf '%-45s %6d\n' "$1" "$(loc "$1")"
}

printf '%-45s %6d\n' total "$(loc crates src examples)"
for manifest in $(find crates -name Cargo.toml | sort); do
    row "$(dirname "$manifest")"
done
row src
row examples
for f in crates/engine/src/coordinator/*.rs; do
    row "$f"
done
