//! Admission control in two flavors of backpressure. Act 1: with no
//! admission queue, a saturated shard answers `start` with the typed,
//! retryable [`EngineError::Busy`] and the client backs off and
//! retries — twelve instances squeeze through two shards capped at two
//! live instances each, and nothing is lost. Act 2: with queue room,
//! the same overload *queues* instead — the start call simply blocks
//! in virtual time until an earlier instance finishes, and the flight
//! recorder shows the park and the admit.
//!
//! ```sh
//! cargo run --example backpressure
//! ```

use flowscript::prelude::*;

const SLOW_JOB: &str = r#"
class Data;
taskclass Work {
    inputs { input main { in of class Data } };
    outputs { outcome done { } }
}
taskclass Root {
    inputs { input main { seed of class Data } };
    outputs { outcome done { } }
}
compoundtask root of taskclass Root {
    task w of taskclass Work {
        implementation { "code" is "refSlow" };
        inputs { input main { inputobject in from { seed of task root if input main } } }
    };
    outputs { outcome done { notification from { task w if output done } } }
}
"#;

fn build(coordinators: usize, cap: usize, queue: usize) -> Result<WorkflowSystem, EngineError> {
    let config = EngineConfig {
        max_inflight_instances: Some(cap),
        admission_queue_limit: queue,
        observe: ObserveLevel::Trace,
        ..EngineConfig::default()
    };
    let mut sys = WorkflowSystem::builder()
        .coordinators(coordinators)
        .executors(2)
        .seed(1998)
        .config(config)
        .build();
    sys.register_script("job", SLOW_JOB, "root")?;
    sys.bind_fn("refSlow", |_| {
        TaskBehavior::outcome("done").with_work(SimDuration::from_millis(200))
    });
    Ok(sys)
}

fn main() -> Result<(), EngineError> {
    // ------------------------------------------------------------------
    // Act 1: reject-and-retry. Zero queue room, so every start beyond
    // the two live instances a shard allows comes back as Busy.
    // ------------------------------------------------------------------
    println!("act 1: cap 2/shard, no admission queue — typed Busy, client retries\n");
    let mut sys = build(2, 2, 0)?;
    let jobs: Vec<String> = (0..12).map(|i| format!("job-{i:02}")).collect();
    let mut rejections = 0u64;
    for name in &jobs {
        loop {
            match sys.start(
                name,
                "job",
                "main",
                [("seed", ObjectVal::text("Data", "s"))],
            ) {
                Ok(()) => {
                    println!(
                        "{name} admitted on shard {} at {}",
                        sys.shard_of(name),
                        sys.now()
                    );
                    break;
                }
                Err(EngineError::Busy { queue_depth }) => {
                    rejections += 1;
                    println!("{name} rejected Busy (queue depth {queue_depth}) — backing off 50ms");
                    sys.run_for(SimDuration::from_millis(50));
                }
                Err(err) => return Err(err),
            }
        }
    }
    sys.run();
    for name in &jobs {
        assert_eq!(sys.outcome(name).expect("job completes").name, "done");
    }
    println!(
        "\nall {} jobs completed by {}; {} Busy rejections, zero lost",
        jobs.len(),
        sys.now(),
        rejections
    );
    for shard in 0..sys.shard_count() {
        let stats = sys.shard_stats(shard);
        println!(
            "shard {shard}: dispatches {:>2}, busy rejections {:>2}",
            stats.dispatches, stats.busy_rejections
        );
    }
    let total: u64 = (0..sys.shard_count())
        .map(|s| sys.shard_stats(s).busy_rejections)
        .sum();
    assert_eq!(total, rejections, "every Busy the client saw is counted");
    assert!(rejections > 0, "twelve jobs against cap 2x2 must overflow");

    // ------------------------------------------------------------------
    // Act 2: queue-and-wait. Cap 1 with queue room: the second start
    // parks in the admission queue and the call blocks in virtual time
    // until the first job's 200ms of work frees the slot.
    // ------------------------------------------------------------------
    println!("\nact 2: cap 1, admission queue 4 — the start call waits its turn\n");
    let mut sys = build(1, 1, 4)?;
    sys.start(
        "slow-a",
        "job",
        "main",
        [("seed", ObjectVal::text("Data", "s"))],
    )?;
    let before = sys.now();
    sys.start(
        "slow-b",
        "job",
        "main",
        [("seed", ObjectVal::text("Data", "s"))],
    )?;
    let after = sys.now();
    println!("slow-b's start blocked from {before} to {after} while slow-a ran");
    assert!(after.since(before) >= SimDuration::from_millis(190));
    sys.run();
    assert!(sys.outcome("slow-a").is_some());
    assert!(sys.outcome("slow-b").is_some());
    for event in sys.trace("slow-b") {
        match event.kind {
            ObsEventKind::Parked { queue_depth } => {
                println!("  flight recorder: slow-b parked (queue depth {queue_depth})");
            }
            ObsEventKind::Admitted { wait_ns } => {
                println!(
                    "  flight recorder: slow-b admitted after {:.1}ms in the queue",
                    wait_ns as f64 / 1_000_000.0
                );
            }
            _ => {}
        }
    }
    assert_eq!(sys.stats().busy_rejections, 0, "queue room means no Busy");
    println!("\nboth flavors drained the same overload — reject loudly or queue quietly");
    Ok(())
}
