//! Checkpoint-time garbage collection of persisted plan blobs.
//!
//! Compiled plans persist in the WAL once per fingerprint
//! (`sys/plan/…`) so crash recovery skips the front end. Every
//! reconfiguration re-fingerprints the instance's plan; without
//! reclamation a reconfigured instance strands its old blobs forever.
//! The coordinator refcounts blobs by fingerprint at checkpoint time —
//! a blob survives exactly as long as some instance (resident or
//! merely persisted) references it.

mod common;

use common::{add_t5, text};
use flowscript_core::samples;
use flowscript_engine::coordinator::EngineConfig;
use flowscript_engine::{TaskBehavior, WorkflowSystem};
use flowscript_sim::SimDuration;

fn diamond_sys(checkpoint_every: u64) -> WorkflowSystem {
    let config = EngineConfig {
        checkpoint_every: Some(checkpoint_every),
        ..EngineConfig::default()
    };
    let mut sys = WorkflowSystem::builder()
        .executors(2)
        .seed(9)
        .config(config)
        .build();
    sys.register_script("diamond", samples::FIG1_DIAMOND, "diamond")
        .unwrap();
    for code in ["refT1", "refT2", "refT3", "refT4"] {
        sys.bind_fn(code, |_| {
            TaskBehavior::outcome("done")
                .with_work(SimDuration::from_millis(10))
                .with_object("out", text("Data", "d"))
        });
    }
    sys.bind_fn("refT5", |_| {
        TaskBehavior::outcome("done").with_object("out", text("Data", "t5"))
    });
    sys
}

#[test]
fn checkpoint_reclaims_unreferenced_plan_blobs() {
    let mut sys = diamond_sys(1); // checkpoint (and GC) after every commit
    sys.start("d1", "diamond", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.run();
    assert!(sys.outcome("d1").is_some());
    let original = sys.persisted_plans(0);
    assert_eq!(original.len(), 1, "one fingerprint persisted: {original:?}");
    // The repository's plan was validated once and is held decoded.
    assert_eq!(sys.cached_plans(0), original);

    // Reconfiguring re-lowers the plan under a new fingerprint…
    sys.reconfigure("d1", add_t5()).unwrap();
    sys.run();
    // …and the next checkpoints drop the stranded original blob.
    let after = sys.persisted_plans(0);
    assert_eq!(after.len(), 1, "old blob must be reclaimed: {after:?}");
    assert_ne!(after[0], original[0], "the survivor is the new plan");
    // The reclaimed fingerprint left the decoded-plan cache with its
    // blob (the re-lowered plan never came from bytes, so none is held).
    assert!(sys.cached_plans(0).is_empty());

    // The GC'd store still recovers: the instance's current plan blob
    // is intact, so a restarted shard decodes it (no front-end rerun).
    let node = sys.coordinator_node_for("d1");
    sys.crash_now(node);
    sys.restart_now(node);
    sys.run();
    assert!(sys.outcome("d1").is_some(), "recovery after GC");
    assert_eq!(sys.stats().recovered_instances, 1);
    assert_eq!(sys.cached_plans(0), after, "recovery decoded the blob");
}

#[test]
fn shared_fingerprints_are_pinned_by_any_referencing_instance() {
    let mut sys = diamond_sys(1);
    // Two instances of the same script share one plan blob.
    sys.start("d1", "diamond", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.start("d2", "diamond", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.run();
    assert_eq!(sys.persisted_plans(0).len(), 1);
    let original = sys.persisted_plans(0)[0];

    // Reconfiguring d1 must NOT reclaim the original blob while d2
    // still references it.
    sys.reconfigure("d1", add_t5()).unwrap();
    sys.run();
    let plans = sys.persisted_plans(0);
    assert_eq!(
        plans.len(),
        2,
        "both referenced fingerprints live: {plans:?}"
    );
    assert!(plans.contains(&original));

    // Reconfiguring d2 identically moves both instances to the new
    // fingerprint — now the original blob is garbage.
    sys.reconfigure("d2", add_t5()).unwrap();
    sys.run();
    let plans = sys.persisted_plans(0);
    assert_eq!(
        plans.len(),
        1,
        "shared blob reclaimed once orphaned: {plans:?}"
    );
    assert!(!plans.contains(&original));
}
