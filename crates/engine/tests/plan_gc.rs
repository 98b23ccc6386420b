//! Checkpoint-time garbage collection of pinned sources.
//!
//! An instance runs off the canonical source of its script's version,
//! pinned once per shard and content hash (`sys/src/…`) and compiled
//! once per shard into the plan every instance of that version shares.
//! Every reconfiguration is a new version of the instance's script,
//! with a new source; without reclamation a reconfigured instance
//! strands its old source forever. The coordinator refcounts sources
//! by hash at checkpoint time — a source survives exactly as long as
//! some stored instance pins it — and its compiled plan leaves with it.

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
fn checkpoint_reclaims_unreferenced_sources() {
    let mut sys = diamond_fleet(1, 1); // checkpoint (and GC) after every commit
    sys.start("d1", "diamond", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.run();
    assert!(sys.outcome("d1").is_some());
    let sources = |sys: &WorkflowSystem| sys.coord_handle(0).get().persisted_source_hashes();
    let original = sources(&sys);
    assert_eq!(original.len(), 1, "one source pinned: {original:?}");

    // Reconfiguring pins the script's new version…
    sys.reconfigure("d1", add_t5()).unwrap();
    sys.run();
    // …and the next checkpoints drop the stranded original.
    let after = sources(&sys);
    assert_eq!(after.len(), 1, "old source must be reclaimed: {after:?}");
    assert_ne!(after, original, "the survivor is the new version");

    // The GC'd store still recovers: the instance's current source is
    // intact, so a restarted shard compiles it.
    let node = sys.coordinator_node_for("d1");
    sys.crash_now(node);
    sys.restart_now(node);
    sys.run();
    assert!(sys.outcome("d1").is_some(), "recovery after GC");
    assert_eq!(sys.stats().recovered_instances, 1);
    assert!(sys.task_states("d1").contains_key("diamond/t5"));
    assert_eq!(sources(&sys), after);
}

#[test]
fn shared_sources_are_pinned_by_any_referencing_instance() {
    let mut sys = diamond_fleet(1, 1);
    // Two instances of the same script share one copy of its text.
    sys.start("d1", "diamond", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.start("d2", "diamond", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.run();
    let sources = |sys: &WorkflowSystem| sys.coord_handle(0).get().persisted_source_hashes();
    let original = sources(&sys);
    assert_eq!(original.len(), 1, "one script, one pinned source");

    // Reconfiguring d1 must NOT reclaim the original source while d2
    // still runs it.
    sys.reconfigure("d1", add_t5()).unwrap();
    sys.run();
    let pinned = sources(&sys);
    assert_eq!(pinned.len(), 2, "both versions live: {pinned:?}");
    assert!(pinned.contains(&original[0]));

    // Reconfiguring d2 identically moves both instances to the new
    // version — one new source blob, shared — and the original text,
    // which no instance runs any more, is collected.
    sys.reconfigure("d2", add_t5()).unwrap();
    sys.run();
    let pinned = sources(&sys);
    assert_eq!(pinned.len(), 1, "one edited script: {pinned:?}");
    assert_ne!(pinned, original);
}

#[test]
fn sources_are_collected_once_their_instances_have_moved_away() {
    // A shard every instance has been handed off keeps pinning nothing:
    // its next checkpoint drops the source they ran off.
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
    let sources = sys.coord_handle(0).get().persisted_source_hashes();
    assert_eq!(sources.len(), 1);

    let report = sys.add_coordinator("coordinator2").expect("rebalance");
    assert_eq!(report.moved, movers.len());
    assert!(
        sys.coord_handle(0).get().instance_names().is_empty(),
        "shard 0 is drained"
    );
    // The source went along, and nothing has collected the original yet.
    assert_eq!(sys.coord_handle(2).get().persisted_source_hashes(), sources);
    assert_eq!(sys.coord_handle(0).get().persisted_source_hashes(), sources);

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
    let left = sys.coord_handle(0).get().persisted_source_hashes();
    assert_eq!(left.len(), 1);
    assert_ne!(left, sources, "the diamond's source is collected");
    assert_eq!(sys.coord_handle(2).get().persisted_source_hashes(), sources);
}
