//! Golden fingerprints: the fig. 7 + fig. 8 population on the default
//! pipeline, one line per instance, frozen under `tests/golden/`.
//!
//! The equivalence suites compare two arms of the *same* build, so they
//! cannot see both arms drifting together from one commit to the next.
//! These files can: any change to an outcome, a dispatch order, an
//! attempt count or a task state shows up as a one-line text diff. There
//! is deliberately no regenerate switch — on a mismatch the test writes
//! what it saw under `target/golden-actual/` and prints the `cp` that
//! would accept it, so accepting a behaviour change is a reviewed edit.
//!
//! Beside each fingerprint file sits a `.wal.txt`: the length and an
//! FNV-1a hash of every shard's durable log after the same run. The
//! fingerprints pin behaviour; these pin the bytes — record encoding,
//! framing, checksums and commit grouping — so "no format change" is a
//! checked claim.
//!
//! The reference arm — `CommitBatch::disabled()`, every report committed
//! with its cascade before the next is looked at — is frozen the same
//! way: the paper population under it must render the *same* fingerprint
//! files (the logs legitimately differ: no group frames), and eight fixed
//! cases of `batching.rs`'s randomized equivalence are pinned in
//! `generated_unbatched.txt`. The equivalence suites compare the two arms
//! of one build; these compare the reference arm with what it rendered
//! when it was recorded.

mod common;

use std::path::Path;

use common::{
    build, fingerprint, generated_config, generated_script, population, run_generated,
    start_population, Fingerprint,
};
use flowscript_engine::coordinator::EngineConfig;
use flowscript_engine::{CommitBatch, InstanceStatus};
use flowscript_tx::Storage;

fn render(name: &str, (status, trace, states): &Fingerprint) -> String {
    let status = match status {
        InstanceStatus::Completed(outcome) => {
            let objects: Vec<String> = outcome
                .objects
                .iter()
                .map(|(name, object)| format!("{name}={object}@{}", object.produced_by))
                .collect();
            format!(
                "Completed {} ({:?}) {{{}}}",
                outcome.name,
                outcome.kind,
                objects.join(", ")
            )
        }
        other => format!("{other:?}"),
    };
    let trace: Vec<String> = trace
        .iter()
        .map(|(path, attempt)| format!("{path}#{attempt}"))
        .collect();
    let states: Vec<String> = states
        .iter()
        .map(|(path, state)| format!("{path}={state:?}"))
        .collect();
    format!(
        "{name} | {status} | dispatched: {} | states: {}\n",
        trace.join(" "),
        states.join(" ")
    )
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Fingerprints of every instance, then the digest of every shard's log.
fn run(coordinators: usize, commit_batch: CommitBatch) -> (String, String) {
    // The default config; the trace switch only records, it decides
    // nothing.
    let config = EngineConfig {
        record_dispatches: true,
        commit_batch,
        ..EngineConfig::default()
    };
    let mut sys = build(coordinators, config);
    let population = population();
    start_population(&mut sys, &population);
    sys.run();
    let fingerprints = population
        .iter()
        .map(|name| render(name, &fingerprint(&sys, name)))
        .collect();
    let wal = sys
        .shard_storages()
        .iter()
        .enumerate()
        .map(|(shard, storage)| {
            let bytes = storage.read_all().expect("in-memory log reads");
            format!(
                "shard {shard} | {} bytes | fnv1a64 {:016x}\n",
                bytes.len(),
                fnv1a64(&bytes)
            )
        })
        .collect();
    (fingerprints, wal)
}

fn check(file: &str, actual: &str) {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    let expected = std::fs::read_to_string(&golden).unwrap_or_default();
    if expected == actual {
        return;
    }
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/golden-actual");
    std::fs::create_dir_all(&dir).expect("target/golden-actual creatable");
    let seen = dir.canonicalize().expect("just created").join(file);
    std::fs::write(&seen, actual).expect("actual fingerprints written");
    let mut diff = String::new();
    let (mut want, mut got) = (expected.lines(), actual.lines());
    loop {
        match (want.next(), got.next()) {
            (None, None) => break,
            (w, g) if w == g => {}
            (w, g) => {
                for (sign, line) in [('-', w), ('+', g)] {
                    if let Some(line) = line {
                        diff.push_str(&format!("{sign} {line}\n"));
                    }
                }
            }
        }
    }
    panic!(
        "{file} differs from the golden fingerprints:\n{diff}\nto accept the new behaviour:\n  cp {} {}\n",
        seen.display(),
        golden.display()
    );
}

#[test]
fn paper_population_matches_golden_on_one_shard() {
    let (fingerprints, wal) = run(1, CommitBatch::default());
    check("paper_1_shard.txt", &fingerprints);
    check("paper_1_shard.wal.txt", &wal);
}

#[test]
fn paper_population_matches_golden_on_four_shards() {
    let (fingerprints, wal) = run(4, CommitBatch::default());
    check("paper_4_shards.txt", &fingerprints);
    check("paper_4_shards.wal.txt", &wal);
}

#[test]
fn reference_arm_renders_the_same_paper_goldens() {
    for (coordinators, file) in [(1, "paper_1_shard.txt"), (4, "paper_4_shards.txt")] {
        let (fingerprints, _wal) = run(coordinators, CommitBatch::disabled());
        check(file, &fingerprints);
    }
}

/// `(k shards, n stages, script seed, instance-name salts)`: eight fixed
/// draws from the ranges of
/// `batching.rs::batched_matches_unbatched_on_generated_scripts` (the
/// proptest shim has no shrinking and no persisted corpus). Between them
/// the seeds take every `stage_params` arm: leaf repeats, unconditioned
/// (`AnyOf`) sources, `alt` outcomes and aborting stages.
const GENERATED_CASES: [(usize, usize, u64, &[u64]); 8] = [
    (1, 1, 0x0000_0000_0000_0000, &[1, 2]),
    (1, 3, 0x9e37_79b9_7f4a_7c15, &[3, 5, 8]),
    (2, 2, 0x0123_4567_89ab_cdef, &[13, 21, 34, 55]),
    (2, 3, 0xffff_ffff_ffff_ffff, &[89, 144]),
    (3, 1, 0xdead_beef_cafe_f00d, &[233, 377, 610, 987, 1597]),
    (3, 3, 0x0000_0000_0003_0c31, &[2584, 4181, 6765]),
    (4, 2, 0x5555_5555_5555_5555, &[10946, 17711]),
    (4, 3, 0xa5a5_a5a5_5a5a_5a5a, &[28657, 46368, 75025, 121393]),
];

#[test]
fn reference_arm_matches_golden_on_generated_scripts() {
    let mut rendered = String::new();
    for (k, n, seed, salts) in GENERATED_CASES {
        let script = generated_script(n, seed);
        let names: Vec<String> = salts
            .iter()
            .enumerate()
            .map(|(i, salt)| format!("wf{i}-{salt:016x}"))
            .collect();
        let config = EngineConfig {
            commit_batch: CommitBatch::disabled(),
            ..generated_config()
        };
        rendered.push_str(&format!("# k={k} n={n} seed={seed:#018x}\n"));
        for (name, fingerprint) in run_generated(k, config, n, seed, &script, &names) {
            rendered.push_str(&render(&name, &fingerprint));
        }
    }
    check("generated_unbatched.txt", &rendered);
}
