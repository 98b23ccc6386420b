//! Checkpoint-time garbage collection of persisted plan blobs.
//!
//! Compiled plans persist in the WAL once per fingerprint
//! (`sys/plan/…`) so crash recovery skips the front end. Every
//! reconfiguration is a new version of the instance's script, with a
//! new plan and a new source; without reclamation a reconfigured
//! instance strands its old blobs forever.
//! The coordinator refcounts blobs by fingerprint at checkpoint time —
//! a blob survives exactly as long as some instance (resident or
//! merely persisted) references it. The canonical source a plan was
//! compiled from is pinned beside it (`sys/src/…`, once per content
//! hash) and collected by the same walk.

mod common;

use common::{add_t5, text, ONE_TASK};
use flowscript_core::samples;
use flowscript_engine::{EngineConfig, TaskBehavior, WorkflowSystem};
use flowscript_sim::{NodeId, SimDuration};

fn diamond_fleet(coordinators: usize, checkpoint_every: u64) -> WorkflowSystem {
    let config = EngineConfig {
        checkpoint_every: Some(checkpoint_every),
        ..EngineConfig::default()
    };
    let mut sys = WorkflowSystem::builder()
        .executors(2)
        .coordinators(coordinators)
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
    let mut sys = diamond_fleet(1, 1); // checkpoint (and GC) after every commit
    sys.start("d1", "diamond", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.run();
    assert!(sys.outcome("d1").is_some());
    let original = sys.persisted_plans(0);
    assert_eq!(original.len(), 1, "one fingerprint persisted: {original:?}");
    // The repository's plan was validated once and is held decoded.
    assert_eq!(
        sys.coord_handle(0).get().cached_plan_fingerprints(),
        original
    );

    // Reconfiguring re-lowers the plan under a new fingerprint…
    sys.reconfigure("d1", add_t5()).unwrap();
    sys.run();
    // …and the next checkpoints drop the stranded original blob.
    let after = sys.persisted_plans(0);
    assert_eq!(after.len(), 1, "old blob must be reclaimed: {after:?}");
    assert_ne!(after[0], original[0], "the survivor is the new plan");
    // The reclaimed fingerprint left the decoded-plan cache with its
    // blob (the re-lowered plan never came from bytes, so none is held).
    assert!(sys
        .coord_handle(0)
        .get()
        .cached_plan_fingerprints()
        .is_empty());

    // The GC'd store still recovers: the instance's current plan blob
    // is intact, so a restarted shard decodes it (no front-end rerun).
    let node = sys.coordinator_node_for("d1");
    sys.crash_now(node);
    sys.restart_now(node);
    sys.run();
    assert!(sys.outcome("d1").is_some(), "recovery after GC");
    assert_eq!(sys.stats().recovered_instances, 1);
    assert_eq!(
        sys.coord_handle(0).get().cached_plan_fingerprints(),
        after,
        "recovery decoded the blob"
    );
}

#[test]
fn shared_fingerprints_are_pinned_by_any_referencing_instance() {
    let mut sys = diamond_fleet(1, 1);
    // Two instances of the same script share one plan blob.
    sys.start("d1", "diamond", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.start("d2", "diamond", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.run();
    assert_eq!(sys.persisted_plans(0).len(), 1);
    let original = sys.persisted_plans(0)[0];
    // And one copy of the text both were compiled from.
    let source = sys.coord_handle(0).get().persisted_source_hashes();
    assert_eq!(source.len(), 1, "one script, one pinned source");

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
    // A reconfiguration is a new version of the script, pinned like any
    // other: the two identical edits share one new source blob, and the
    // original text, which no instance runs any more, is collected.
    let sources = sys.coord_handle(0).get().persisted_source_hashes();
    assert_eq!(sources.len(), 1, "one edited script: {sources:?}");
    assert_ne!(sources, source);
}

#[test]
fn blobs_are_collected_once_their_instances_have_moved_away() {
    // A shard every instance has been handed off keeps pinning nothing:
    // its next checkpoint drops the plan and the source they ran off.
    let mut sys = diamond_fleet(2, 1);
    sys.register_script("one", ONE_TASK, "root").unwrap();
    sys.bind_fn("refWork", |_| TaskBehavior::outcome("done"));
    let joined = {
        let mut map = sys.shard_map().clone();
        map.add_node(NodeId::from_index(usize::MAX));
        map
    };
    // Diamonds that live on shard 0 until the joining shard wins them.
    let movers: Vec<String> = (0..)
        .map(|i| format!("d{i}"))
        .filter(|name| sys.shard_of(name) == 0 && joined.shard_of(name) == 2)
        .take(2)
        .collect();
    for name in &movers {
        sys.start(name, "diamond", "main", [("seed", text("Data", "s"))])
            .unwrap();
    }
    sys.run_for(SimDuration::from_millis(5));
    let emptied = sys.coord_handle(0);
    let (plans, sources) = (
        sys.persisted_plans(0),
        emptied.get().persisted_source_hashes(),
    );
    assert_eq!((plans.len(), sources.len()), (1, 1));

    let report = sys.add_coordinator("coordinator2").expect("rebalance");
    assert_eq!(report.moved, movers.len());
    assert!(
        emptied.get().instance_names().is_empty(),
        "shard 0 is drained"
    );
    // The blobs went along, and nothing has collected the originals yet.
    assert_eq!(sys.persisted_plans(2), plans);
    assert_eq!(sys.coord_handle(2).get().persisted_source_hashes(), sources);
    assert_eq!(sys.persisted_plans(0), plans);

    // Shard 0's next checkpoint comes with its next instance — of a
    // different script, which is then all that is pinned there.
    let stayer = (0..)
        .map(|i| format!("w{i}"))
        .find(|name| sys.shard_of(name) == 0)
        .unwrap();
    sys.start(&stayer, "one", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.run();
    for name in movers.iter().chain([&stayer]) {
        assert!(
            sys.outcome(name).is_some(),
            "{name}: {:?}",
            sys.status(name)
        );
    }
    let (left_plans, left_sources) = (
        sys.persisted_plans(0),
        emptied.get().persisted_source_hashes(),
    );
    assert_eq!((left_plans.len(), left_sources.len()), (1, 1));
    assert_ne!(left_plans, plans, "the diamond's plan is collected");
    assert_ne!(left_sources, sources, "and so is its source");
    assert_eq!(sys.coord_handle(2).get().persisted_source_hashes(), sources);
}
