//! The traced run: the per-layer numbers.
//!
//! One process, one workload. The wall budget is split over arms that
//! differ from the end-to-end arm in exactly one thing each (store,
//! observation level, shard count), then the workload's own artifacts
//! are replayed through each layer in isolation. Attribution is
//! `count × isolated unit cost` and therefore *estimated*.

use flowscript_engine::ObserveLevel;

use crate::e2e::{measure, time_metrics, Budget, Report, Session};
use crate::layers;
use crate::metrics::PER_LAYER;
use crate::spans::Spans;
use crate::stats::{median, sorted, summarize};
use crate::workloads::{Arm, Repeat, Workload};

/// A gap between the two sides of the closure check beyond this share
/// means the durable arm's attribution misses something.
const CLOSURE_LIMIT_PCT: f64 = 25.0;

/// Median wall µs per instance.
fn per_instance_us(repeats: &[Repeat]) -> f64 {
    median_of(repeats, Repeat::per_instance_us)
}

/// Median CPU µs per instance at nominal speed: what the in-memory arms
/// are compared by, since wall time carries the box's weather.
fn cpu_per_instance_us(repeats: &[Repeat]) -> f64 {
    median_of(repeats, |r| r.drive.cpu_s * 1e6 / r.instances as f64)
}

fn median_of(repeats: &[Repeat], f: impl Fn(&Repeat) -> f64) -> f64 {
    median(&sorted(&repeats.iter().map(f).collect::<Vec<_>>()))
}

fn pct_over(value: f64, base: f64) -> f64 {
    (value / base - 1.0) * 100.0
}

pub fn run(w: Workload, seed: u64, seconds: f64, instances: usize) -> Report {
    let mut session = Session::new();
    let base = w.arm(instances);
    let mut off = Spans::new(false);
    // Secondary arms get a smaller share and may report from two
    // repeats: they feed ratios, not headline numbers.
    let share = |part: f64| Budget {
        min_repeats: 2,
        ..Budget::end_to_end(seconds * part)
    };
    let arm = |arm: Arm, budget: Budget, spans: &mut Spans, session: &mut Session| {
        measure(w, seed, arm, budget, spans, session)
    };

    // Untraced on the in-memory log, as the end-to-end run times it:
    // the base every overhead and share below is taken against.
    let plain = arm(
        base,
        Budget::end_to_end(seconds * 0.3),
        &mut off,
        &mut session,
    );
    let wall_us = per_instance_us(&plain);
    let cpu_us = cpu_per_instance_us(&plain);

    // The durable arm: the wall-clock view, and the log the isolated
    // costs replay. Those run straight after it, so the sync cost is
    // sampled in the same minute as the wall time it has to explain.
    let durable = arm(w.file_arm(instances), share(0.2), &mut off, &mut session);
    session.expect_same(
        w,
        "the in-memory and the file-backed log",
        &plain[0],
        &durable[0],
    );
    let durable_wall_us = per_instance_us(&durable);
    let log_path = durable
        .last()
        .and_then(|r| r.wal.as_ref())
        .expect("the durable arm keeps its last WAL")
        .shard_file(0);
    let (shape, scan_mb_per_s) = layers::read_log(&log_path);
    let tx = layers::tx_costs(&shape, &log_path, &session.scratch);
    let codec = layers::codec_costs(&shape);
    let scripts = layers::script_costs(w);
    let pick_ns = layers::sched_pick_ns();
    let hop_ns = layers::sim_hop_ns(seed);

    let metrics_arm = Arm {
        observe: ObserveLevel::Metrics,
        ..base
    };
    let metered = arm(metrics_arm, share(0.15), &mut off, &mut session);

    let traced_arm = Arm {
        observe: ObserveLevel::Trace,
        sim_trace: true,
        ..base
    };
    let mut spans = Spans::new(true);
    let traced = arm(traced_arm, share(0.15), &mut spans, &mut session);

    // What a shard costs: the same wave on one coordinator.
    let shard_cost_pct = if base.shards > 1 {
        let single = arm(
            Arm { shards: 1, ..base },
            share(0.1),
            &mut off,
            &mut session,
        );
        pct_over(cpu_us, cpu_per_instance_us(&single))
    } else {
        0.0
    };

    // Counts, from the traced arm's first repeat (exact per seed, and
    // the same on either store).
    let counted = &traced[0];
    let n = counted.instances as f64;
    let snapshot = &counted.observed.snapshot;
    let stats = &counted.observed.stats;
    let hist_mean = |name: &str| {
        snapshot.histogram(name).map_or(0.0, |h| {
            if h.count == 0 {
                0.0
            } else {
                h.sum as f64 / h.count as f64
            }
        })
    };
    let hist_p50_ms = |name: &str| snapshot.histogram(name).map_or(0.0, |h| h.p50 as f64 / 1e6);
    let frames = snapshot
        .histogram("wal.bytes_per_frame")
        .map_or(0.0, |h| h.count as f64);
    let commits = snapshot.counter("tx.commits") as f64;
    let deliveries = counted.observed.deliveries as f64;

    // Spans: the calls the ledger itself made into `WorkflowSystem`.
    let span_mean_us = |name: &str| {
        let durations = spans.durations_ns(name);
        durations.iter().sum::<f64>() / durations.len().max(1) as f64 / 1e3
    };
    let span_instances = spans.durations_ns("repeat").len() as f64 * n;
    let run_us_per_instance = spans.durations_ns("run").iter().sum::<f64>() / 1e3 / span_instances;
    let harness_self_us = spans
        .all()
        .iter()
        .zip(spans.self_times_ns())
        .filter(|(span, _)| span.name == "drive")
        .map(|(_, self_ns)| self_ns as f64)
        .sum::<f64>()
        / 1e3
        / span_instances;

    // Attribution of the in-memory arm's per-instance wall time:
    // count × isolated unit cost, in µs. What is left is the
    // coordinator's own logic, fact I/O and the API: the ceiling for a
    // coordinator refactor.
    let restart_us = if w == Workload::CrashRecover {
        median_of(&plain, |r| r.recovery.wall_s * 1e6 / n)
    } else {
        0.0
    };
    let attributed = [
        (
            "plan",
            stats.evaluations as f64 / n * scripts.eval_ns_per_task / 1e3,
        ),
        ("sched", stats.dispatches as f64 / n * pick_ns / 1e3),
        (
            "lock",
            commits / n * shape.writes_per_commit as f64 * tx.lock_acquire_ns / 1e3,
        ),
        ("codec", frames / n * codec.encode_ns_per_record / 1e3),
        (
            "frame",
            frames / n * hist_mean("wal.bytes_per_frame") / 1024.0 * codec.frame_ns_per_kib / 1e3,
        ),
        ("wal", frames / n * tx.append_mem_us),
        ("sim", deliveries / n * hop_ns / 1e3),
        ("restart", restart_us),
    ];
    let residual_us = wall_us - attributed.iter().map(|(_, us)| us).sum::<f64>();
    println!(
        "# {}: estimated shares of {wall_us:.1} us/instance (wall, in-memory log)",
        w.name()
    );
    for (layer, us) in attributed.iter().chain([&("residual", residual_us)]) {
        println!("#   {layer:<9}{us:>10.2} us{:>7.1} %", us / wall_us * 100.0);
    }

    // Closure check: the durable arm should cost what the in-memory
    // arm costs plus its syncs.
    let sync_us = frames / n * (tx.append_sync_us - tx.append_mem_us);
    let predicted_us = wall_us + sync_us;
    let closure_gap_pct = pct_over(durable_wall_us, predicted_us).abs();
    println!(
        "# closure: durable {durable_wall_us:.1} us/instance vs in-memory {wall_us:.1} + syncs {sync_us:.1} = {predicted_us:.1} us/instance: gap {closure_gap_pct:.1} %{}",
        if closure_gap_pct > CLOSURE_LIMIT_PCT {
            " -- attribution incomplete"
        } else {
            ""
        }
    );

    let [wall_throughput, wall_p50, wall_p99, wall_recovery] = time_metrics(&durable, |t| t.wall_s);
    let blocked_share_pct = median_of(&durable, |r| (1.0 - r.drive.cpu_s / r.drive.wall_s) * 100.0);
    let values: Vec<(&'static str, f64)> = vec![
        ("wall.instances_per_s", wall_throughput.median),
        ("wall.latency_p50_us", wall_p50.median),
        ("wall.latency_p99_us", wall_p99.median),
        ("wall.recovery_s", wall_recovery.median),
        ("wall.blocked_share_pct", blocked_share_pct),
        ("api.start_us", span_mean_us("start")),
        ("api.run_us_per_instance", run_us_per_instance),
        ("api.restart_s", median_of(&durable, |r| r.restart_max_s)),
        (
            "coord.evaluations_per_instance",
            stats.evaluations as f64 / n,
        ),
        ("coord.dispatches_per_instance", stats.dispatches as f64 / n),
        ("coord.batch_size_mean", hist_mean("coord.batch_size")),
        (
            "coord.commit_drain_len_mean",
            hist_mean("coord.commit_drain_len"),
        ),
        ("coord.retries", stats.retries as f64),
        ("coord.repeats", stats.repeats as f64),
        (
            "coord.recovered_instances",
            counted.recovered_instances as f64,
        ),
        (
            "coord.dispatch_latency_ms_p50",
            hist_p50_ms("coord.dispatch_latency_ns"),
        ),
        ("coord.shard_cost_pct", shard_cost_pct),
        ("coord.residual_us_per_instance", residual_us),
        ("sched.pick_ns", pick_ns),
        (
            "sched.queue_wait_ms_p50",
            hist_p50_ms("sched.queue_wait_ns"),
        ),
        (
            "facts.point_reads_per_instance",
            snapshot.counter("tx.fact_point_reads") as f64 / n,
        ),
        (
            "facts.range_scans",
            snapshot.counter("tx.fact_range_scans") as f64,
        ),
        (
            "facts.prefix_scans",
            snapshot.counter("tx.prefix_scans") as f64,
        ),
        ("plan.lower_us", scripts.lower_us),
        ("plan.eval_ns_per_task", scripts.eval_ns_per_task),
        ("plan.encoded_bytes", scripts.encoded_bytes as f64),
        ("core.compile_us", scripts.compile_us),
        ("codec.encode_ns_per_record", codec.encode_ns_per_record),
        ("codec.decode_ns_per_record", codec.decode_ns_per_record),
        ("codec.frame_ns_per_kib", codec.frame_ns_per_kib),
        ("tx.commits_per_instance", commits / n),
        (
            "tx.group_commits_per_instance",
            snapshot.counter("tx.group_commits") as f64 / n,
        ),
        ("tx.aborts", snapshot.counter("tx.aborts") as f64),
        ("tx.lock_waits", snapshot.counter("tx.lock_waits") as f64),
        (
            "tx.two_pc_rounds",
            snapshot.counter("tx.two_pc_rounds") as f64,
        ),
        ("tx.commit_mem_us", tx.commit_mem_us),
        ("tx.commit_file_us", tx.commit_file_us),
        ("tx.open_replay_s", tx.open_replay_s),
        ("lock.acquire_ns", tx.lock_acquire_ns),
        ("wal.frames_per_instance", frames / n),
        ("wal.bytes_per_frame_mean", hist_mean("wal.bytes_per_frame")),
        ("wal.append_sync_us", tx.append_sync_us),
        ("wal.append_mem_us", tx.append_mem_us),
        ("wal.scan_mb_per_s", scan_mb_per_s),
        (
            "wal.sync_share_pct",
            frames / n * tx.append_sync_us / durable_wall_us * 100.0,
        ),
        ("wal.closure_gap_pct", closure_gap_pct),
        ("dist.round_ns", tx.dist_round_ns),
        ("sim.deliveries_per_instance", deliveries / n),
        ("sim.hop_ns", hop_ns),
        ("sim.link_latency_us", layers::link_latency_us()),
        (
            "obs.metrics_overhead_pct",
            pct_over(cpu_per_instance_us(&metered), cpu_us),
        ),
        (
            "obs.trace_overhead_pct",
            pct_over(cpu_per_instance_us(&traced), cpu_us),
        ),
        ("harness.self_us_per_instance", harness_self_us),
    ];
    debug_assert!(values
        .iter()
        .map(|(n, _)| n)
        .eq(PER_LAYER.iter().map(|m| &m.name)));

    let spans_path = session
        .scratch
        .root()
        .join(format!("{}.spans.json", w.name()));
    match std::fs::write(&spans_path, spans.to_json(w.name()).render()) {
        Ok(()) => println!(
            "# {} spans written to {}",
            spans.all().len(),
            spans_path.display()
        ),
        Err(err) => session
            .failures
            .push(format!("{}: cannot write spans: {err}", w.name())),
    }

    Report {
        workload: w,
        attempted: session.attempted,
        failures: session.failures,
        values,
        spreads: vec![(
            "wall_us_per_instance",
            summarize(
                &plain
                    .iter()
                    .map(Repeat::per_instance_us)
                    .collect::<Vec<_>>(),
            ),
        )],
    }
}
