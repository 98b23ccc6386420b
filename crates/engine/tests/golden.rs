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
//! checked claim. Each `.anatomy.txt` takes one run's logs apart —
//! the paper population's on one and four shards, a burst of 50
//! diamonds, and one diamond `rebalance` moves while it runs — into
//! frames, record kinds and key families, per shard and summed: a
//! storage change reads as a diff of its rows. Each
//! `.counters.txt` is `metrics_snapshot()` of the paper population's
//! traced run and of the burst: every metric there is a count or a
//! virtual time, the same in a debug and a release build, so a change to
//! what the engine does or logs reads as a diff of its rows too.
//! `diamond_burst.alloc.txt` is what the burst costs the heap, counted
//! by this binary's allocator, summed and by the kind of node fed, and
//! `diamond_burst.replay_alloc.txt` what reopening its four logs costs
//! it; both are pinned in a release build only. `diamond_burst.names.txt`
//! is how often its shards resolved an instance's name to its id.
//!
//! The reference arm — `CommitBatch::disabled()`, every report committed
//! with its cascade before the next is looked at — is frozen the same
//! way: the paper population under it must render the *same* fingerprint
//! files (the logs legitimately differ: no group frames), and eight fixed
//! cases of `batching.rs`'s randomized equivalence are pinned in
//! `generated_unbatched.txt`. The equivalence suites compare the two arms
//! of one build; these compare the reference arm with what it rendered
//! when it was recorded.
//!
//! `placement.txt` pins what the fingerprints leave out — *where* and
//! *when*: one line per recorder `Dispatch` / `Parked` / `Admitted` /
//! `Retry` event (virtual time, instance, `path#attempt`, executor) for
//! the paper population, a capacity-limited fan (park and drain order)
//! and an executor crash with its retry relocations.
//!
//! Two reference arms are retired and survive only as what they
//! rendered at `cbd4a79`, the last commit that had them: the
//! whole-record fact layout (`whole_record_facts`) and the per-commit
//! full scan (`full_rescan`). There, under each, the paper population
//! rendered the fingerprint files above byte for byte;
//! `reference_fact_layout.txt` (eight fixed cases of the layout
//! equivalence proptest, its one-shard crash with recovery and its
//! mid-run `AddTask`) was rendered by the whole-record arm, and
//! `reference_full_scan.txt` (eight fixed cases of
//! `proptest_worklist.rs`, every reconfiguration choice) by the full
//! scan. The one pipeline left must keep rendering the same bytes.

mod common;

use std::collections::BTreeMap;
use std::path::Path;

use common::{
    add_t5, bind_diamond, build, build_orders, det_config, det_link, diamond_burst, fingerprint,
    frame_writes, generated_config, generated_script, log_frames, population, run_fan,
    run_generated, run_worklist_case, start_population, text, Fingerprint, BURST,
};
use flowscript_core::samples;
use flowscript_engine::{
    CbState, CommitBatch, EngineConfig, InstanceStatus, ObjectVal, ObsEventKind, ObserveLevel,
    TaskBehavior, WorkflowSystem,
};
use flowscript_sim::{SimDuration, SimTime};
use flowscript_tx::{FactKind, LogRecord, StableStore, Storage, StoreKey};

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

/// The default config; the flight recorder the dispatch trace is read
/// off only records, it decides nothing.
fn paper_config() -> EngineConfig {
    EngineConfig {
        observe: ObserveLevel::Trace,
        ..EngineConfig::default()
    }
}

/// The paper population run to quiescence on `coordinators` shards.
fn run_population(coordinators: usize, config: EngineConfig) -> WorkflowSystem {
    let mut sys = build(coordinators, config);
    start_population(&mut sys, &population());
    sys.run();
    sys
}

/// Fingerprints of every instance, then the digest of every shard's log.
fn render_run(sys: &WorkflowSystem) -> (String, String) {
    let population = population();
    // Nothing an instance keeps per task is named by a string: what
    // these logs hold under `inst/` is `inst/<name>/meta`, and
    // `inst/<name>/status` only for an instance that got stuck (here
    // none ever revives, so that is one that ends `Stuck`).
    let stuck = |name: &str| matches!(sys.status(name), Ok(InstanceStatus::Stuck { .. }));
    for storage in sys.shard_storages() {
        for frame in &log_frames(&storage) {
            for (key, _) in frame_writes(frame) {
                let Some(rest) = key
                    .as_uid()
                    .and_then(|uid| uid.as_str().strip_prefix("inst/"))
                else {
                    continue;
                };
                match rest.split_once('/') {
                    Some((_, "meta")) => {}
                    Some((name, "status")) => {
                        assert!(stuck(name), "`{key}`: `{name}` is not stuck")
                    }
                    _ => panic!("`{key}` names a task"),
                }
            }
        }
    }
    let fingerprints = population
        .iter()
        .map(|name| render(name, &fingerprint(sys, name)))
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

/// `run`, the `#` header naming the run, then every metric of `sys`'s
/// snapshot: counts and virtual times only, so each is exact per seed in
/// any build (the debug build's oracles count no read).
fn render_counters(sys: &WorkflowSystem, run: &str) -> String {
    format!("{run}{}", sys.metrics_snapshot().to_csv())
}

/// Observation writes nothing: the log bytes are the same with the
/// flight recorder and every histogram off (the production default,
/// which leaves no dispatch trace to fingerprint) and on. The traced
/// run's snapshot is the `.counters.txt` golden.
fn paper_population_matches(coordinators: usize, file: &str) {
    let wal_file = format!("{file}.wal.txt");
    let (_, wal) = render_run(&run_population(coordinators, EngineConfig::default()));
    check(&wal_file, &wal);
    let sys = run_population(coordinators, paper_config());
    let (fingerprints, wal) = render_run(&sys);
    check(&format!("{file}.txt"), &fingerprints);
    check(&wal_file, &wal);
    let run = format!(
        "\
# `metrics_snapshot()` of `common::population` on {coordinators} shard(s) under
# `paper_config()`, as `paper_population_matches` runs it:
"
    );
    check(
        &format!("{file}.counters.txt"),
        &render_counters(&sys, &run),
    );
}

#[test]
fn paper_population_matches_golden_on_one_shard() {
    paper_population_matches(1, "paper_1_shard");
}

#[test]
fn paper_population_matches_golden_on_four_shards() {
    paper_population_matches(4, "paper_4_shards");
}

#[test]
fn reference_arm_renders_the_same_paper_goldens() {
    let config = EngineConfig {
        commit_batch: CommitBatch::disabled(),
        ..paper_config()
    };
    for (coordinators, file) in [(1, "paper_1_shard.txt"), (4, "paper_4_shards.txt")] {
        let (fingerprints, _wal) = render_run(&run_population(coordinators, config.clone()));
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

fn render_generated(cases: [(usize, usize, u64, &[u64]); 8], config: &EngineConfig) -> String {
    let mut rendered = String::new();
    for (k, n, seed, salts) in cases {
        let script = generated_script(n, seed);
        let names: Vec<String> = salts
            .iter()
            .enumerate()
            .map(|(i, salt)| format!("wf{i}-{salt:016x}"))
            .collect();
        rendered.push_str(&format!("# k={k} n={n} seed={seed:#018x}\n"));
        for (name, fingerprint) in run_generated(k, config.clone(), n, seed, &script, &names) {
            rendered.push_str(&render(&name, &fingerprint));
        }
    }
    rendered
}

#[test]
fn reference_arm_matches_golden_on_generated_scripts() {
    let config = EngineConfig {
        commit_batch: CommitBatch::disabled(),
        ..generated_config()
    };
    check(
        "generated_unbatched.txt",
        &render_generated(GENERATED_CASES, &config),
    );
}

/// `(shards, n stages, script seed, instance-name salts)`: eight fixed
/// draws from the ranges of the retired layout-equivalence proptest
/// (1 or 4 shards, 1–3 stages, 2–4 instances).
const FACT_LAYOUT_CASES: [(usize, usize, u64, &[u64]); 8] = [
    (1, 1, 0x0001, &[7, 11]),
    (1, 2, 0x0188, &[19, 23, 29]),
    (1, 3, 0x0c00, &[31, 37, 41, 43]),
    (1, 3, 0x530a, &[47, 53]),
    (4, 1, 0x0032, &[59, 61, 67]),
    (4, 2, 0x0c40, &[71, 73, 79, 83]),
    (4, 3, 0x0206, &[89, 97]),
    (4, 3, 0xe141, &[101, 103, 107, 109]),
];

/// Four shards, eight fig. 7 orders; the shard owning `order-0` crashes
/// with work in flight, the others keep committing, and it recovers
/// from its own log.
fn render_crash_recovery(config: EngineConfig) -> String {
    let mut sys = build_orders(4, config);
    let names: Vec<String> = (0..8).map(|i| format!("order-{i}")).collect();
    start_population(&mut sys, &names);
    let victim = sys.coordinator_node_for("order-0");
    sys.run_for(SimDuration::from_millis(45));
    sys.crash_now(victim);
    sys.run_for(SimDuration::from_millis(100));
    sys.restart_now(victim);
    sys.run();
    assert!(sys.stats().recovered_instances > 0, "recovery must run");
    names
        .iter()
        .map(|name| render(name, &fingerprint(&sys, name)))
        .collect()
}

/// The paper's §2 scenario: `t5` joins a running fig. 1 diamond. The
/// reconfiguration remaps every persisted fact onto the re-lowered
/// plan's ids.
fn render_midrun_add_task(config: EngineConfig) -> String {
    let mut sys = WorkflowSystem::builder()
        .executors(3)
        .seed(61)
        .link(det_link())
        .config(config)
        .build();
    sys.register_script("diamond", samples::FIG1_DIAMOND, "diamond")
        .unwrap();
    for code in ["refT1", "refT2", "refT3", "refT4"] {
        sys.bind_fn(code, |ctx| {
            let out = ObjectVal::text("Data", format!("{}:{}", ctx.path, ctx.attempt));
            TaskBehavior::outcome("done")
                .with_work(SimDuration::from_millis(10))
                .with_object("out", out)
        });
    }
    sys.bind_fn("refT5", |ctx| {
        let joined = format!("t5({},{})", ctx.input_text("left"), ctx.input_text("right"));
        TaskBehavior::outcome("done").with_object("out", ObjectVal::text("Data", joined))
    });
    sys.start("d1", "diamond", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.run_for(SimDuration::from_millis(15));
    sys.reconfigure("d1", add_t5()).unwrap();
    sys.run();
    assert_eq!(sys.stats().reconfigs, 1);
    render("d1", &fingerprint(&sys, "d1"))
}

#[test]
fn fact_layout_matches_golden() {
    let rendered = format!(
        "{}# one-shard crash and recovery\n{}# mid-run AddTask\n{}",
        render_generated(FACT_LAYOUT_CASES, &generated_config()),
        render_crash_recovery(det_config()),
        render_midrun_add_task(det_config()),
    );
    check("reference_fact_layout.txt", &rendered);
}

/// `(n stages, script seed, reconfiguration)`: eight fixed draws from
/// the ranges of `proptest_worklist.rs::worklist_drains_to_quiescence`
/// — each reconfiguration choice (0 none, 1 `Rebind`, 2 `AddTask`,
/// 3 `RemoveTask`) twice, half the seeds with bit 40 set (the nested
/// compound's constituent fails once).
const FULL_SCAN_CASES: [(usize, u64, usize); 8] = [
    (1, 0x000_0000_0000, 0),
    (3, 0x000_0000_530a, 0),
    (1, 0x000_0000_0002, 1),
    (3, 0x100_0000_0188, 1),
    (2, 0x000_0000_0081, 2),
    (3, 0x000_0000_0c00, 2),
    (2, 0x000_0000_0c40, 3),
    (3, 0x100_0000_e141, 3),
];

#[test]
fn full_scan_matches_golden() {
    let mut rendered = String::new();
    for (n, seed, reconfig) in FULL_SCAN_CASES {
        let config = EngineConfig {
            max_repeats: 6,
            ..generated_config()
        };
        let sys = run_worklist_case(n, seed, reconfig, config);
        let stats = sys.stats();
        rendered.push_str(&format!(
            "# n={n} seed={seed:#014x} reconfig={reconfig} dispatches={} repeats={}\n{}",
            stats.dispatches,
            stats.repeats,
            render("i1", &fingerprint(&sys, "i1")),
        ));
    }
    check("reference_full_scan.txt", &rendered);
}

/// Every placement decision of a finished run, in virtual-time order
/// (ties: shard, then the recorder's own sequence).
fn render_placement(sys: &WorkflowSystem) -> String {
    let mut events: Vec<_> = (0..sys.shard_count())
        .flat_map(|shard| {
            let handle = sys.coord_handle(shard);
            let coordinator = handle.get();
            let recorder = coordinator.recorder();
            assert_eq!(recorder.dropped(), 0, "shard {shard}'s recorder evicted");
            recorder.events()
        })
        .collect();
    events.sort_by_key(|event| (event.at_ns, event.shard, event.seq));
    let mut rendered = String::new();
    for event in events {
        let what = match &event.kind {
            ObsEventKind::Dispatch { executor } => format!("executor {executor}"),
            ObsEventKind::Parked { queue_depth } => format!("parked, depth {queue_depth}"),
            ObsEventKind::Admitted { wait_ns } => format!("admitted after {wait_ns} ns"),
            ObsEventKind::Retry { reason } => format!("retry: {reason}"),
            _ => continue,
        };
        rendered.push_str(&format!(
            "{:>12} ns | {} | {}#{} | {what}\n",
            event.at_ns,
            event.instance,
            event.task.as_deref().unwrap_or("-"),
            event.attempt,
        ));
    }
    rendered
}

/// Four fig. 7 orders on one shard; the first executor crashes 10 ms
/// in, for good: every dispatch it held times out and relocates.
fn run_executor_crash() -> WorkflowSystem {
    let mut sys = build_orders(1, det_config());
    let names: Vec<String> = (0..4).map(|i| format!("order-{i}")).collect();
    start_population(&mut sys, &names);
    sys.run_for(SimDuration::from_millis(10));
    let victim = sys.executor_nodes()[0];
    sys.crash_now(victim);
    sys.run();
    assert!(sys.stats().retries > 0, "the crash must cost a retry");
    for name in &names {
        assert!(sys.outcome(name).is_some(), "{name} lost");
    }
    sys
}

#[test]
fn placement_matches_golden() {
    let (fan, _) = run_fan(Some(vec![1, 2]), 4);
    let rendered = format!(
        "# paper population, 1 shard\n{}# paper population, 4 shards\n{}\
         # 4 fans of 6 on executor capacities [1, 2]\n{}\
         # 4 orders, executor 0 crashes at 10 ms\n{}",
        render_placement(&run_population(1, paper_config())),
        render_placement(&run_population(4, paper_config())),
        render_placement(&fan),
        render_placement(&run_executor_crash()),
    );
    check("placement.txt", &rendered);
}

/// The key families an anatomy sorts a log's after-images into, in
/// render order.
const FAMILIES: [&str; 9] = [
    "header",
    "stuck record",
    "control block",
    "fact object",
    "fact presence",
    "sys/src",
    "sys/move",
    "sys/claimed",
    "sys/ other",
];

/// The family of `key`, read off the key alone: a uid by its prefix and
/// suffix, a fact key by its kind and whether `obj` is 0.
fn family(key: &StoreKey) -> usize {
    match key {
        StoreKey::Fact(fact) if fact.kind == FactKind::Control => 2,
        StoreKey::Fact(fact) if fact.obj == 0 => 4,
        StoreKey::Fact(_) => 3,
        StoreKey::Uid(uid) => match uid.as_str() {
            uid if uid.starts_with("inst/") && uid.ends_with("/meta") => 0,
            uid if uid.starts_with("inst/") && uid.ends_with("/status") => 1,
            uid if uid.starts_with("sys/src/") => 5,
            uid if uid.starts_with("sys/move/") => 6,
            uid if uid.starts_with("sys/claimed/") => 7,
            uid if uid.starts_with("sys/") => 8,
            uid => panic!("`{uid}` is in no family"),
        },
    }
}

/// A record's after-images as `(key, value bytes)`.
fn images(record: &LogRecord) -> Vec<(&StoreKey, usize)> {
    match record {
        LogRecord::Commit { writes, .. } => writes
            .iter()
            .map(|(key, value)| (key, value.as_ref().map_or(0, Vec::len)))
            .collect(),
        LogRecord::Checkpoint { states, .. } => states
            .iter()
            .map(|(key, value)| (key, value.len()))
            .collect(),
        _ => Vec::new(),
    }
}

/// `record` with the after-images of family `dropped` left out.
fn without(record: &LogRecord, dropped: usize) -> LogRecord {
    let kept = |key: &StoreKey| family(key) != dropped;
    match record {
        LogRecord::Commit { tx, writes } => LogRecord::Commit {
            tx: *tx,
            writes: writes
                .iter()
                .filter(|(key, _)| kept(key))
                .cloned()
                .collect(),
        },
        LogRecord::Checkpoint { states, next_seq } => LogRecord::Checkpoint {
            states: states
                .iter()
                .filter(|(key, _)| kept(key))
                .cloned()
                .collect(),
            next_seq: *next_seq,
        },
        other => other.clone(),
    }
}

/// What one log holds, or several summed.
#[derive(Default)]
struct Anatomy {
    log_bytes: usize,
    frames: usize,
    /// Per record kind: records, encoded bytes.
    records: BTreeMap<&'static str, (usize, usize)>,
    /// Per family: entries, value bytes, and what the records shrink by
    /// when re-encoded without the family's entries.
    families: [(usize, usize, usize); FAMILIES.len()],
}

impl Anatomy {
    fn of(storage: &StableStore) -> Self {
        let log = storage.read_all().expect("in-memory log reads");
        let mut anatomy = Anatomy {
            log_bytes: log.len(),
            ..Anatomy::default()
        };
        for record in log_frames(storage) {
            let bytes = flowscript_codec::to_bytes(&record).len();
            anatomy.frames += 1;
            let kind = match &record {
                LogRecord::Commit { .. } => "Commit",
                LogRecord::Checkpoint { .. } => "Checkpoint",
                LogRecord::GroupCommit { .. } => "GroupCommit",
                LogRecord::Fence { .. } => "Fence",
            };
            let (count, total) = anatomy.records.entry(kind).or_default();
            *count += 1;
            *total += bytes;
            let mut present = [false; FAMILIES.len()];
            for (key, value) in images(&record) {
                let (entries, values, _) = &mut anatomy.families[family(key)];
                *entries += 1;
                *values += value;
                present[family(key)] = true;
            }
            for (at, (_, _, shrink)) in anatomy.families.iter_mut().enumerate() {
                if present[at] {
                    *shrink += bytes - flowscript_codec::to_bytes(&without(&record, at)).len();
                }
            }
        }
        anatomy
    }

    fn add(&mut self, other: &Anatomy) {
        self.log_bytes += other.log_bytes;
        self.frames += other.frames;
        for (kind, (count, bytes)) in &other.records {
            let (sum_count, sum_bytes) = self.records.entry(kind).or_default();
            *sum_count += count;
            *sum_bytes += bytes;
        }
        for (sum, (entries, values, shrink)) in self.families.iter_mut().zip(other.families) {
            sum.0 += entries;
            sum.1 += values;
            sum.2 += shrink;
        }
    }

    /// The anatomy's lines under `label`. With `per = (n, unit)`, they
    /// open with the log's bytes, and it divides those and each family's
    /// into a figure per `unit`, of which the logs hold `n`.
    fn render(&self, label: &str, per: Option<(usize, &str)>) -> String {
        let per_instance = |bytes: usize| match per {
            Some((n, unit)) => format!(" | {:.2} B per {unit}", bytes as f64 / n as f64),
            None => String::new(),
        };
        let framed: usize = self.records.values().map(|(_, bytes)| bytes).sum();
        let mut out = match per {
            Some(_) => format!(
                "{label} | {} bytes{}\n",
                self.log_bytes,
                per_instance(self.log_bytes)
            ),
            None => String::new(),
        };
        out.push_str(&format!(
            "{label} | {} frames | {} B of framing\n",
            self.frames,
            self.log_bytes - framed,
        ));
        for (kind, (count, bytes)) in &self.records {
            out.push_str(&format!("{label} | {kind} | {count} records | {bytes} B\n"));
        }
        for (name, (entries, values, shrink)) in FAMILIES.iter().zip(self.families) {
            out.push_str(&format!(
                "{label} | {name} | {entries} entries | {values} value B | {} key B{}\n",
                shrink - values,
                per_instance(shrink),
            ));
        }
        out
    }
}

/// What each line of an anatomy golden says, after the line or two
/// naming the run.
const ANATOMY_LINES: &str = "\
#   the log's length and FNV-1a hash, as in the `.wal.txt` files;
#   its frames, and what framing adds to the records they hold (the
#   B of framing include the log's 6 B header);
#   per record kind: records, and their encoded bytes;
#   per key family (a uid by its prefix, a fact key by its kind and
#   whether `obj` is 0): entries, value bytes, and key bytes. A family's
#   key bytes are what the records shrink by when re-encoded without its
#   entries, less their values: entry headers, keys, value lengths, and
#   the change in how the next key is delta-coded; they need not add up
#   across families. `sys/ other` is any shard-wide key of no other family.
";

/// The anatomy golden of `sys`'s logs, which hold `instances` runs of
/// one `unit` each: `run` (what was run), what the lines say, each
/// shard's anatomy, then their sum with its figures per `unit`.
fn render_anatomy(sys: &WorkflowSystem, run: &str, instances: usize, unit: &str) -> String {
    let mut rendered = format!(
        "{run}{ANATOMY_LINES}# The sum gives the log's bytes, and each family's, per {unit}.\n"
    );
    let mut sum = Anatomy::default();
    for (shard, storage) in sys.shard_storages().iter().enumerate() {
        let bytes = storage.read_all().expect("in-memory log reads");
        let anatomy = Anatomy::of(storage);
        rendered.push_str(&format!(
            "shard {shard} | {} bytes | fnv1a64 {:016x}\n{}",
            bytes.len(),
            fnv1a64(&bytes),
            anatomy.render(&format!("shard {shard}"), None)
        ));
        sum.add(&anatomy);
    }
    rendered.push_str(&sum.render("all", Some((instances, unit))));
    rendered
}

/// The burst's logs, and the snapshot of the same run.
#[test]
fn diamond_burst_anatomy_matches_golden() {
    let sys = diamond_burst(4);
    let run = "\
# The durable logs of `common::diamond_burst`: 50 fig. 1 diamonds started
# at once on 4 shards and run to the end. Per shard, then summed:
";
    let rendered = render_anatomy(&sys, run, BURST, "diamond");
    check("diamond_burst.anatomy.txt", &rendered);
    let run = "\
# `metrics_snapshot()` of `common::diamond_burst`: 50 fig. 1 diamonds on
# 4 shards, observing metrics:
";
    check("diamond_burst.counters.txt", &render_counters(&sys, run));
}

/// Counts the heap allocations of the thread that reads it: a test binary
/// runs its tests on parallel threads, so a count read off one thread is
/// that test's own. Each allocation is charged to the kind of node the
/// façade is feeding when it is made, or to the façade and the world
/// between deliveries ([`alloc_count::feeding`] is the façade's probe).
/// Only the release build pins what it counts (the debug build's
/// oracles allocate as they check).
#[cfg(not(debug_assertions))]
mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    use flowscript_engine::NodeKind;

    /// What an allocation is charged to, by row: the façade and the
    /// world, a shard, an executor, the repository or the client.
    pub const ROWS: [&str; 4] = [
        "facade and world",
        "shard",
        "executor",
        "repository and client",
    ];

    thread_local! {
        /// The row this thread's allocations are charged to now.
        static ROW: Cell<usize> = const { Cell::new(0) };
        /// This thread's `(allocations, bytes)` by row; a `realloc` is
        /// one allocation of its new size.
        static COUNT: Cell<[(u64, u64); 4]> = const { Cell::new([(0, 0); 4]) };
    }

    fn count(bytes: usize) {
        let _ = COUNT.try_with(|count| {
            let row = ROW.try_with(Cell::get).unwrap_or(0);
            let mut rows = count.get();
            rows[row].0 += 1;
            rows[row].1 += bytes as u64;
            count.set(rows);
        });
    }

    /// The façade's delivery probe: the node kind being fed, `None`
    /// once it is.
    pub fn feeding(kind: Option<NodeKind>) {
        let row = match kind {
            None => 0,
            Some(NodeKind::Shard) => 1,
            Some(NodeKind::Executor) => 2,
            Some(NodeKind::Repository | NodeKind::Client) => 3,
        };
        ROW.set(row);
    }

    /// The system allocator, counting.
    pub struct Counting;

    // SAFETY: every call is the system allocator's own; counting only
    // touches thread-local cells, which allocate nothing.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count(layout.size());
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            count(layout.size());
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count(new_size);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    /// `(allocations, bytes)` this thread made so far, by row.
    pub fn so_far() -> [(u64, u64); 4] {
        COUNT.with(Cell::get)
    }
}

#[cfg(not(debug_assertions))]
#[global_allocator]
static COUNTING: alloc_count::Counting = alloc_count::Counting;

/// What the burst costs the heap, from its first start to quiescence:
/// the engine's allocations, the sim's, and the bound closures' (20 per
/// diamond build a `TaskBehavior`, charged to the executor that calls
/// them), not the system's build; summed, and by the kind of node the
/// façade was feeding when each was made.
#[cfg(not(debug_assertions))]
#[test]
fn diamond_burst_allocations_match_golden() {
    let mut sys = common::diamond_burst_system(4);
    sys.probe_deliveries(Some(alloc_count::feeding));
    let before = alloc_count::so_far();
    common::run_diamond_burst(&mut sys);
    let after = alloc_count::so_far();
    sys.probe_deliveries(None);
    let rows: Vec<(u64, u64)> = (0..alloc_count::ROWS.len())
        .map(|row| (after[row].0 - before[row].0, after[row].1 - before[row].1))
        .collect();
    let allocations: u64 = rows.iter().map(|row| row.0).sum();
    let bytes: u64 = rows.iter().map(|row| row.1).sum();
    let per = |total: u64| total as f64 / BURST as f64;
    let mut rendered = format!(
        "\
# Heap allocations of `common::diamond_burst`: 50 fig. 1 diamonds on 4
# shards, from the first start to quiescence, release build. A realloc is
# one allocation of its new size.
allocations | {allocations} | {:.2} per diamond
bytes | {bytes} | {:.2} per diamond
# By the kind of node being fed when each was made (the facade and the
# world: between deliveries): allocations, then bytes.
",
        per(allocations),
        per(bytes),
    );
    for (name, (allocations, bytes)) in alloc_count::ROWS.iter().zip(rows) {
        rendered += &format!(
            "{name} | {allocations} | {:.2} per diamond | {bytes} | {:.2} per diamond\n",
            per(allocations),
            per(bytes),
        );
    }
    check("diamond_burst.alloc.txt", &rendered);
}

/// What a restart's replay costs the heap: each of the burst's four logs
/// reopened by a [`TxManager`], counted from the copy the log is read
/// into to the manager holding the committed store; summed, and per
/// shard.
#[cfg(not(debug_assertions))]
#[test]
fn diamond_burst_replay_allocations_match_golden() {
    use flowscript_tx::{MemStorage, TxManager};

    let sys = diamond_burst(4);
    let mut rendered = String::from(
        "\
# Heap allocations of reopening `common::diamond_burst`'s logs (50 fig. 1
# diamonds run to the end on 4 shards): `TxManager::open` of each shard's
# log, release build. A realloc is one allocation of its new size.
",
    );
    let (mut allocations, mut bytes, mut objects) = (0, 0, 0);
    let mut shards = String::new();
    for (shard, storage) in sys.shard_storages().iter().enumerate() {
        let mut copy = MemStorage::new();
        copy.append(&storage.read_all().expect("in-memory log reads"))
            .expect("in-memory append");
        let before = alloc_count::so_far();
        let reopened = TxManager::open(shard as u32, copy).expect("the log replays");
        let after = alloc_count::so_far();
        let rows = after.iter().zip(&before);
        let made: u64 = rows.clone().map(|(a, b)| a.0 - b.0).sum();
        let made_bytes: u64 = rows.map(|(a, b)| a.1 - b.1).sum();
        shards += &format!(
            "shard {shard} | {made} | {made_bytes} | {} objects\n",
            reopened.object_count()
        );
        allocations += made;
        bytes += made_bytes;
        objects += reopened.object_count();
    }
    let per = |total: u64| total as f64 / BURST as f64;
    rendered += &format!(
        "\
allocations | {allocations} | {:.2} per diamond
bytes | {bytes} | {:.2} per diamond
objects | {objects}
# Per shard: allocations, bytes, the objects its store holds.
{shards}",
        per(allocations),
        per(bytes),
    );
    check("diamond_burst.replay_alloc.txt", &rendered);
}

/// How often the burst's shards resolve an instance's name to its id:
/// once where an input naming a resident instance enters, and never
/// again behind it. The count is the same in a debug and a release build
/// (the debug oracles take ids).
#[test]
fn diamond_burst_name_resolutions_match_golden() {
    let mut sys = common::diamond_burst_system(4);
    let resolved = |sys: &WorkflowSystem| -> u64 {
        let shards = 0..sys.shard_count();
        shards
            .map(|shard| sys.coord_handle(shard).get().name_resolutions())
            .sum()
    };
    let before = resolved(&sys);
    common::run_diamond_burst(&mut sys);
    let resolutions = resolved(&sys) - before;
    let rendered = format!(
        "\
# Name resolutions of `common::diamond_burst`: 50 fig. 1 diamonds on 4
# shards, from the first start to quiescence, summed over the shards.
# A diamond is named by 5 inputs: its start, which asks the store
# whether the name is taken, and its four reports, which resolve it. At
# `2821830`, where the resident set was keyed by name, a release build
# searched it 2520 times, 50.40 per diamond.
name resolutions | {resolutions} | {:.2} per diamond
",
        resolutions as f64 / BURST as f64,
    );
    check("diamond_burst.names.txt", &rendered);
}

/// The burst's logs across a restart of every shard: 50 diamonds whose
/// tasks each take 30 s, all four shards crashed at 45 s — T1 done, T2
/// and T3 executing in every diamond — then restarted and run to the
/// end. What a restart's re-arm logs reads as a diff of its rows.
#[test]
fn restarted_burst_anatomy_matches_golden() {
    // Watchdogs out of the way of 30 s tasks, as the ledger's waves keep
    // them.
    let config = EngineConfig {
        dispatch_timeout: SimDuration::from_secs(300),
        ..EngineConfig::default()
    };
    let mut sys = WorkflowSystem::builder()
        .executors(2)
        .coordinators(4)
        .seed(1)
        .config(config)
        .build();
    sys.register_script("diamond", samples::FIG1_DIAMOND, "diamond")
        .unwrap();
    for code in ["refT1", "refT2", "refT3", "refT4"] {
        sys.bind_fn(code, |_| {
            let done = TaskBehavior::outcome("done").with_work(SimDuration::from_secs(30));
            done.with_object("out", text("Data", "d"))
        });
    }
    let names: Vec<String> = (0..BURST).map(|i| format!("d{i}")).collect();
    for name in &names {
        sys.start(name, "diamond", "main", [("seed", text("Data", "s"))])
            .unwrap();
    }
    sys.run_until(SimTime::from_nanos(45_000_000_000));
    for name in &names {
        let states = sys.task_states(name);
        for path in ["diamond/t2", "diamond/t3"] {
            assert!(
                matches!(states[path], CbState::Executing { .. }),
                "{name}: {path} executes at the crash"
            );
        }
    }
    let nodes = sys.coordinator_nodes().to_vec();
    for &node in &nodes {
        sys.crash_now(node);
    }
    for &node in &nodes {
        sys.restart_now(node);
    }
    sys.run();
    for name in &names {
        assert!(sys.outcome(name).is_some(), "{name} completes");
    }
    // Each restart's census claimed every running attempt where it
    // runs, so each reports once, at 60 s, and nothing is re-sent: T4
    // runs 60–90 s, not after a second 30 s of T2 and T3.
    let end = sys.now();
    assert!(end < SimTime::from_nanos(91_000_000_000), "ends at {end:?}");
    let stats = sys.stats();
    assert_eq!((stats.retries, stats.resent), (0, 0));
    assert_eq!(stats.census_claimed, 2 * BURST as u64, "T2 and T3 of each");
    let run = "\
# The durable logs of 50 fig. 1 diamonds started at once on 4 shards, each
# task 30 s of work, every shard crashed at 45 s (T1 done, T2 and T3
# executing in every diamond), restarted and run to the end. Per shard,
# then summed:
";
    check(
        "restarted_burst.anatomy.txt",
        &render_anatomy(&sys, run, BURST, "diamond"),
    );
}

/// The paper population's logs under the default config, read the way
/// the diamond burst's are.
fn paper_population_anatomy(coordinators: usize, file: &str) {
    let population = population();
    let orders = population
        .iter()
        .filter(|name| name.starts_with("order-"))
        .count();
    let trips = population.len() - orders;
    let run = format!(
        "\
# The durable logs of `common::population` ({orders} fig. 7 orders, {trips} fig. 8
# trips) on {coordinators} shard(s), as `paper_population_matches` leaves them.
# Per shard, then summed:
"
    );
    let sys = run_population(coordinators, EngineConfig::default());
    check(
        file,
        &render_anatomy(&sys, &run, population.len(), "instance"),
    );
}

#[test]
fn paper_population_anatomy_matches_golden_on_one_shard() {
    paper_population_anatomy(1, "paper_1_shard.anatomy.txt");
}

#[test]
fn paper_population_anatomy_matches_golden_on_four_shards() {
    paper_population_anatomy(4, "paper_4_shards.anatomy.txt");
}

/// One fig. 1 diamond moved while it runs: both shards' logs, the
/// source's move record and purge beside the destination's claim.
#[test]
fn moved_diamond_anatomy_matches_golden() {
    let mut sys = WorkflowSystem::builder()
        .executors(2)
        .coordinators(2)
        .seed(1)
        .build();
    bind_diamond(&mut sys);
    // A successor map listing the same two nodes, the first re-added
    // under a new seed, and the first name it moves.
    let mut moved = sys.shard_map().clone();
    let first = sys.coordinator_nodes()[0];
    moved.remove_node(first);
    moved.add_node(first);
    let name = (0..)
        .map(|i| format!("d{i}"))
        .find(|name| sys.shard_map().node_of(name) != moved.node_of(name))
        .unwrap();
    sys.start(&name, "diamond", "main", [("seed", text("Data", "s"))])
        .unwrap();
    // Mid-flight: its first task executing, the other three waiting.
    sys.run_until(SimTime::from_nanos(3_000_000));
    assert_eq!(sys.status(&name).unwrap(), InstanceStatus::Running);
    let (from, to) = (sys.shard_of(&name), 1 - sys.shard_of(&name));
    sys.rebalance(moved).expect("the round lands");
    assert_eq!(sys.shard_of(&name), to);
    let run = format!(
        "\
# The durable logs of one fig. 1 diamond `{name}` started on shard {from} of 2,
# moved to shard {to} by `rebalance` while it runs. Per shard, then summed:
"
    );
    check(
        "moved_diamond.anatomy.txt",
        &render_anatomy(&sys, &run, 1, "diamond"),
    );
    sys.run();
    assert!(
        sys.outcome(&name).is_some(),
        "{name} completes where it moved"
    );
}
