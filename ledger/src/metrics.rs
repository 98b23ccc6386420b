//! The metric tables: every name the ledger prints, with its unit,
//! clock domain, direction and (end to end) regression bound.
//! `BENCHMARK.json` repeats names, units, directions and bounds; a
//! unit test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// `std::time::Instant` on this sandbox.
    Wall,
    /// CPU time of the ledger's one thread (user + kernel): wall time
    /// minus the time blocked on the device.
    Cpu,
    /// The simulator's clock; exact per seed.
    Virtual,
    /// A count or size; exact per seed.
    Count,
    /// Process memory as the kernel reports it.
    Memory,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Cpu => "cpu",
            Clock::Virtual => "virtual",
            Clock::Count => "count",
            Clock::Memory => "memory",
        }
    }

    /// Whether repeats of one seed must agree bit for bit.
    pub fn exact(self) -> bool {
        matches!(self, Clock::Virtual | Clock::Count)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before `compare` calls it a regression.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        clock,
        better,
        bound,
    }
}

/// Measured with `ObserveLevel::Off` and the sim trace off, on every
/// workload: the timed ones on the in-memory log, the log counts on the
/// durable arm.
pub const END_TO_END: [EndToEnd; 11] = [
    e2e("setup_s", "s", Clock::Cpu, Better::Lower, 0.25),
    e2e(
        "instances_per_cpu_s",
        "1/s",
        Clock::Cpu,
        Better::Higher,
        0.25,
    ),
    e2e("cpu_latency_p50_us", "us", Clock::Cpu, Better::Lower, 0.25),
    e2e("cpu_latency_p99_us", "us", Clock::Cpu, Better::Lower, 0.25),
    e2e("recovery_cpu_s", "s", Clock::Cpu, Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Clock::Memory, Better::Lower, 0.25),
    e2e(
        "virtual_makespan_ms",
        "virt_ms",
        Clock::Virtual,
        Better::Lower,
        0.01,
    ),
    e2e(
        "virtual_latency_p50_ms",
        "virt_ms",
        Clock::Virtual,
        Better::Lower,
        0.01,
    ),
    e2e(
        "virtual_latency_p99_ms",
        "virt_ms",
        Clock::Virtual,
        Better::Lower,
        0.01,
    ),
    e2e(
        "wal_bytes_per_instance",
        "B",
        Clock::Count,
        Better::Lower,
        0.01,
    ),
    // Which reports share a commit window depends on the seed's link
    // jitter, so syncs differ by ~0.5 % between seeds.
    e2e(
        "wal_syncs_per_instance",
        "count",
        Clock::Count,
        Better::Lower,
        0.03,
    ),
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// The repo module the metric belongs to.
    pub layer: &'static str,
    /// The end-to-end metric (and workload) it should move, written
    /// down before measuring.
    pub should_move: &'static str,
}

const fn layer(
    layer: &'static str,
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    should_move: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        clock,
        better,
        layer,
        should_move,
    }
}

const API: &str = "engine.api";
const COORD: &str = "engine.coordinator";
const SCHED: &str = "engine.sched";
const FACTS: &str = "engine.facts";
const TX: &str = "tx.manager";
const WAL: &str = "tx.log/tx.storage";

const WAVES: &str = "instances_per_cpu_s @ wave, crash_recover";
const WAVE: &str = "instances_per_cpu_s @ wave";
const SYNCS: &str = "wal_syncs_per_instance, wal_bytes_per_instance; wall.instances_per_s";
const CLOSED: &str = "cpu_latency_p50_us @ closed_apps";
const RECOVERY: &str = "recovery_cpu_s @ crash_recover";
const WRITE_PATH: &str = "instances_per_cpu_s @ wave; cpu_latency_p50_us @ closed_apps";
const LOG_PATH: &str = "wal_syncs_per_instance; wall.latency_p50_us @ closed_apps; wall.recovery_s";
const BATCH: &str =
    "wal_syncs_per_instance @ wave vs virtual_latency_p50_ms @ closed_apps (opposite)";

/// Measured in the traced run. Counts come from the system's own
/// registry and stats; `*_ns`/`*_us` unit costs are isolated replays of
/// the workload's artifacts through one layer's public functions.
pub const PER_LAYER: [PerLayer; 53] = [
    layer(
        "wall",
        "wall.instances_per_s",
        "1/s",
        Clock::Wall,
        Better::Higher,
        "the sandbox's wall-clock view of instances_per_cpu_s",
    ),
    layer(
        "wall",
        "wall.latency_p50_us",
        "us",
        Clock::Wall,
        Better::Lower,
        "the sandbox's wall-clock view of cpu_latency_p50_us",
    ),
    layer(
        "wall",
        "wall.latency_p99_us",
        "us",
        Clock::Wall,
        Better::Lower,
        "the sandbox's wall-clock view of cpu_latency_p99_us",
    ),
    layer(
        "wall",
        "wall.recovery_s",
        "s",
        Clock::Wall,
        Better::Lower,
        "the sandbox's wall-clock view of recovery_cpu_s",
    ),
    layer(
        "wall",
        "wall.blocked_share_pct",
        "%",
        Clock::Wall,
        Better::Lower,
        "none: share of wall time the thread was off the CPU, waiting for the device",
    ),
    layer(
        API,
        "api.start_us",
        "us",
        Clock::Wall,
        Better::Lower,
        "instances_per_cpu_s @ waves; cpu_latency_p50_us @ closed_apps",
    ),
    layer(
        API,
        "api.run_us_per_instance",
        "us",
        Clock::Wall,
        Better::Lower,
        "instances_per_cpu_s @ waves; cpu_latency_p50_us @ closed_apps",
    ),
    layer(
        API,
        "api.restart_s",
        "s",
        Clock::Wall,
        Better::Lower,
        RECOVERY,
    ),
    layer(
        COORD,
        "coord.evaluations_per_instance",
        "count",
        Clock::Count,
        Better::Lower,
        WAVE,
    ),
    layer(
        COORD,
        "coord.dispatches_per_instance",
        "count",
        Clock::Count,
        Better::Lower,
        WAVE,
    ),
    layer(
        COORD,
        "coord.batch_size_mean",
        "count",
        Clock::Count,
        Better::Higher,
        BATCH,
    ),
    layer(
        COORD,
        "coord.commit_drain_len_mean",
        "count",
        Clock::Count,
        Better::Lower,
        WAVE,
    ),
    layer(
        COORD,
        "coord.retries",
        "count",
        Clock::Count,
        Better::Lower,
        WAVES,
    ),
    layer(
        COORD,
        "coord.repeats",
        "count",
        Clock::Count,
        Better::Lower,
        CLOSED,
    ),
    layer(
        COORD,
        "coord.recovered_instances",
        "count",
        Clock::Count,
        Better::Higher,
        RECOVERY,
    ),
    layer(
        COORD,
        "coord.dispatch_latency_ms_p50",
        "virt_ms",
        Clock::Virtual,
        Better::Lower,
        "virtual_latency_p50_ms @ closed_apps",
    ),
    layer(
        COORD,
        "coord.shard_cost_pct",
        "%",
        Clock::Cpu,
        Better::Lower,
        WAVES,
    ),
    layer(
        COORD,
        "coord.residual_us_per_instance",
        "us",
        Clock::Wall,
        Better::Lower,
        WAVE,
    ),
    layer(
        SCHED,
        "sched.pick_ns",
        "ns",
        Clock::Wall,
        Better::Lower,
        WAVE,
    ),
    layer(
        SCHED,
        "sched.queue_wait_ms_p50",
        "virt_ms",
        Clock::Virtual,
        Better::Lower,
        "virtual_makespan_ms",
    ),
    layer(
        FACTS,
        "facts.point_reads_per_instance",
        "count",
        Clock::Count,
        Better::Lower,
        "instances_per_cpu_s @ wave; recovery_cpu_s",
    ),
    layer(
        FACTS,
        "facts.range_scans",
        "count",
        Clock::Count,
        Better::Lower,
        "instances_per_cpu_s @ wave; recovery_cpu_s",
    ),
    layer(
        FACTS,
        "facts.prefix_scans",
        "count",
        Clock::Count,
        Better::Lower,
        "instances_per_cpu_s @ wave; recovery_cpu_s",
    ),
    layer(
        "plan",
        "plan.lower_us",
        "us",
        Clock::Wall,
        Better::Lower,
        "setup_s",
    ),
    layer(
        "plan",
        "plan.eval_ns_per_task",
        "ns",
        Clock::Wall,
        Better::Lower,
        WAVE,
    ),
    layer(
        "plan",
        "plan.encoded_bytes",
        "B",
        Clock::Count,
        Better::Lower,
        "wal_bytes_per_instance",
    ),
    layer(
        "core",
        "core.compile_us",
        "us",
        Clock::Wall,
        Better::Lower,
        "setup_s",
    ),
    layer(
        "codec",
        "codec.encode_ns_per_record",
        "ns",
        Clock::Wall,
        Better::Lower,
        SYNCS,
    ),
    layer(
        "codec",
        "codec.decode_ns_per_record",
        "ns",
        Clock::Wall,
        Better::Lower,
        RECOVERY,
    ),
    layer(
        "codec",
        "codec.frame_ns_per_kib",
        "ns",
        Clock::Wall,
        Better::Lower,
        SYNCS,
    ),
    layer(
        TX,
        "tx.commits_per_instance",
        "count",
        Clock::Count,
        Better::Lower,
        WRITE_PATH,
    ),
    layer(
        TX,
        "tx.group_commits_per_instance",
        "count",
        Clock::Count,
        Better::Lower,
        SYNCS,
    ),
    layer(
        TX,
        "tx.aborts",
        "count",
        Clock::Count,
        Better::Lower,
        "none expected; non-zero is a finding",
    ),
    layer(
        TX,
        "tx.lock_waits",
        "count",
        Clock::Count,
        Better::Lower,
        "none expected; non-zero is a finding",
    ),
    layer(
        TX,
        "tx.two_pc_rounds",
        "count",
        Clock::Count,
        Better::Lower,
        "none expected; non-zero is a finding",
    ),
    layer(
        TX,
        "tx.commit_mem_us",
        "us",
        Clock::Wall,
        Better::Lower,
        WAVE,
    ),
    layer(
        TX,
        "tx.commit_file_us",
        "us",
        Clock::Wall,
        Better::Lower,
        WRITE_PATH,
    ),
    layer(
        TX,
        "tx.open_replay_s",
        "s",
        Clock::Wall,
        Better::Lower,
        RECOVERY,
    ),
    layer(
        "tx.lock",
        "lock.acquire_ns",
        "ns",
        Clock::Wall,
        Better::Lower,
        WAVE,
    ),
    layer(
        WAL,
        "wal.frames_per_instance",
        "count",
        Clock::Count,
        Better::Lower,
        LOG_PATH,
    ),
    layer(
        WAL,
        "wal.bytes_per_frame_mean",
        "B",
        Clock::Count,
        Better::Lower,
        "wal_bytes_per_instance",
    ),
    layer(
        WAL,
        "wal.append_sync_us",
        "us",
        Clock::Wall,
        Better::Lower,
        LOG_PATH,
    ),
    layer(
        WAL,
        "wal.append_mem_us",
        "us",
        Clock::Wall,
        Better::Lower,
        WAVE,
    ),
    layer(
        WAL,
        "wal.scan_mb_per_s",
        "MB/s",
        Clock::Wall,
        Better::Higher,
        RECOVERY,
    ),
    layer(
        WAL,
        "wal.sync_share_pct",
        "%",
        Clock::Wall,
        Better::Lower,
        WRITE_PATH,
    ),
    layer(
        WAL,
        "wal.closure_gap_pct",
        "%",
        Clock::Wall,
        Better::Lower,
        "none: over 25 means the durable arm's attribution is incomplete",
    ),
    layer(
        "tx.dist",
        "dist.round_ns",
        "ns",
        Clock::Wall,
        Better::Lower,
        "none of the four today (baseline for fleet_churn)",
    ),
    layer(
        "sim",
        "sim.deliveries_per_instance",
        "count",
        Clock::Count,
        Better::Lower,
        WAVE,
    ),
    layer("sim", "sim.hop_ns", "ns", Clock::Wall, Better::Lower, WAVE),
    layer(
        "sim",
        "sim.link_latency_us",
        "virt_us",
        Clock::Virtual,
        Better::Lower,
        "virtual_latency_p50_ms @ closed_apps",
    ),
    layer(
        "obs",
        "obs.metrics_overhead_pct",
        "%",
        Clock::Cpu,
        Better::Lower,
        "none: end-to-end runs have observation off",
    ),
    layer(
        "obs",
        "obs.trace_overhead_pct",
        "%",
        Clock::Cpu,
        Better::Lower,
        "none: end-to-end runs have observation off",
    ),
    layer(
        "harness",
        "harness.self_us_per_instance",
        "us",
        Clock::Wall,
        Better::Lower,
        "none: the ledger's own loop around the calls it times",
    ),
];

/// Unit, clock and a note (bound, or layer and the end-to-end metric
/// it should move) for a metric of either table.
pub fn describe(name: &str) -> (&'static str, Clock, String) {
    if let Some(m) = END_TO_END.iter().find(|m| m.name == name) {
        let note = format!("{} is better; bound {}", m.better.label(), m.bound);
        return (m.unit, m.clock, note);
    }
    match PER_LAYER.iter().find(|m| m.name == name) {
        Some(m) => {
            let note = format!(
                "{} is better; {} -> {}",
                m.better.label(),
                m.layer,
                m.should_move
            );
            (m.unit, m.clock, note)
        }
        None => ("", Clock::Count, String::new()),
    }
}

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}
