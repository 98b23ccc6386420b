//! The flight recorder as a debugging tool: a fact is corrupted in
//! storage, the instance parks itself as `Stuck{fact storage fault}`,
//! and `WorkflowSystem::trace` prints the recorder's explanation of
//! exactly what happened and when. The operator then repairs the fact
//! with `repair_fact` and the instance completes.
//!
//! ```sh
//! cargo run --example trace_stuck
//! ```

use flowscript::prelude::*;

const JOIN: &str = r#"
class Data;
taskclass Work {
    inputs { input main { in of class Data } };
    outputs { outcome done { out of class Data } }
}
taskclass Join {
    inputs { input main { left of class Data; right of class Data } };
    outputs { outcome done { } }
}
taskclass Root {
    inputs { input main { seed of class Data } };
    outputs { outcome done { } }
}
compoundtask root of taskclass Root {
    task fast of taskclass Work {
        implementation { "code" is "refFast" };
        inputs { input main { inputobject in from { seed of task root if input main } } }
    };
    task slow of taskclass Work {
        implementation { "code" is "refSlow" };
        inputs { input main { inputobject in from { seed of task root if input main } } }
    };
    task join of taskclass Join {
        implementation { "code" is "refJoin" };
        inputs { input main {
            inputobject left from { out of task fast if output done };
            inputobject right from { out of task slow if output done }
        } }
    };
    outputs { outcome done { notification from { task join if output done } } }
}
"#;

fn main() -> Result<(), EngineError> {
    let config = EngineConfig {
        // Full tracing: every lifecycle event lands in the recorder.
        observe: ObserveLevel::Trace,
        ..EngineConfig::default()
    };
    let mut sys = WorkflowSystem::builder()
        .executors(2)
        .seed(2026)
        .config(config)
        .build();
    sys.register_script("join", JOIN, "root")?;
    sys.bind_fn("refFast", |_| {
        TaskBehavior::outcome("done")
            .with_work(SimDuration::from_millis(5))
            .with_object("out", ObjectVal::text("Data", "fast"))
    });
    sys.bind_fn("refSlow", |_| {
        TaskBehavior::outcome("done")
            .with_work(SimDuration::from_millis(200))
            .with_object("out", ObjectVal::text("Data", "slow"))
    });
    sys.bind_fn("refJoin", |_| TaskBehavior::outcome("done"));

    sys.start(
        "j-1",
        "join",
        "main",
        [("seed", ObjectVal::text("Data", "s"))],
    )?;

    // The fast producer commits its fact, then "disk corruption" hits
    // the stored record while the slow producer is still executing.
    sys.run_for(SimDuration::from_millis(50));
    assert!(sys.poison_fact("j-1", "root/fast", "done"));
    sys.run();

    // The instance has parked itself with a diagnosis…
    let status = sys.status("j-1")?;
    println!("status: {status:?}\n");
    assert!(matches!(status, InstanceStatus::Stuck { .. }));

    // …and the flight recorder explains the whole lifecycle: starts,
    // dispatches, commits, and finally the stuck event naming the
    // fault.
    println!("flight recorder for j-1:");
    for event in sys.trace("j-1") {
        println!("  {event}");
    }

    // The repair: re-publish the fact the storage fault destroyed. The
    // instance revives, the join dispatches, the workflow completes.
    sys.repair_fact(
        "j-1",
        "root/fast",
        "done",
        [("out", ObjectVal::text("Data", "fast"))],
    )?;
    sys.run();
    let outcome = sys.outcome("j-1").expect("repaired instance completes");
    println!(
        "\nafter repair_fact: outcome `{}` at {}",
        outcome.name,
        sys.now()
    );

    println!("\nfull trace including the repair:");
    for event in sys.trace("j-1") {
        println!("  {event}");
    }

    // The shards' metrics watched the same run.
    let snapshot = sys.metrics_snapshot();
    println!(
        "\nmetrics: {} dispatches, {} tx commits, commit-drain p99 {}",
        snapshot.counter("coord.dispatches"),
        snapshot.counter("tx.commits"),
        snapshot
            .histogram("coord.commit_drain_len")
            .map_or(0, |h| h.p99),
    );
    assert_eq!(outcome.name, "done");
    Ok(())
}
