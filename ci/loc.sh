#!/usr/bin/env bash
# Non-test lines of code, by one rule: every `.rs` under `crates`, `src`
# and `examples` that is not under a `tests/` directory, each counted up
# to the `#[cfg(test)]` that opens its `mod tests` (a test-only item
# above that line is counted). Prints the total, then each crate (the
# umbrella's `src` and `examples` as rows of their own), then each file
# of the engine's `coordinator/`. A report, not a gate:
#
#     bash ci/loc.sh
set -u
cd "$(dirname "$0")/.." || exit 2

# A file's lines above the `#[cfg(test)]` line that `mod tests` follows.
above_tests='/^#\[cfg\(test\)\]$/ {if (held != "") print held; held = $0; next}
held != "" {if (/^mod tests/) exit; print held; held = ""}
{print}'

loc() {
    for f in $(find "$@" -name '*.rs' -not -path '*/tests/*' | sort); do
        awk "$above_tests" "$f"
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
