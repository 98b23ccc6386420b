//! The end-to-end run: observation off, repeats until the time budget
//! is spent, medians over repeats, every output checked.

use std::time::{Duration, Instant};

use crate::cpu::{Calibrator, Stopwatch, Times};
use crate::layers::frames_in;
use crate::metrics::END_TO_END;
use crate::spans::Spans;
use crate::stats::{median, percentile, sorted, summarize, Summary};
use crate::workloads::{build_system, run_repeat, Arm, Repeat, Scratch, Workload};

/// Set-ups timed before the first repeat, so `setup_s` is a median
/// over many samples even on workloads with few repeats.
const SETUP_BATCHES: usize = 10;
const SETUPS_PER_BATCH: usize = 10;

/// How long an arm measures, and the fewest repeats it may report from.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub wall: Duration,
    pub min_repeats: usize,
}

impl Budget {
    /// The end-to-end budget: never a timed metric from under 3 repeats.
    pub fn end_to_end(seconds: f64) -> Budget {
        Budget {
            wall: Duration::from_secs_f64(seconds),
            min_repeats: 3,
        }
    }
}

/// What a run reports: one value per metric, plus the checks' verdict.
#[derive(Debug)]
pub struct Report {
    pub workload: Workload,
    /// Instances attempted over every repeat, warm-up included.
    pub attempted: usize,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// `(name, value)` in table order.
    pub values: Vec<(&'static str, f64)>,
    /// Quartiles and sample count behind each timed metric.
    pub spreads: Vec<(&'static str, Summary)>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// What one process accumulates over the arms it measures: where it
/// writes, what it attempted and which checks failed, and what full
/// CPU speed looks like.
#[derive(Debug)]
pub struct Session {
    pub scratch: Scratch,
    pub calibrator: Calibrator,
    pub attempted: usize,
    pub failures: Vec<String>,
    /// `VmHWM` at a fixed point of the program: after the set-ups, the
    /// durable arm and the first arm's warm-up and minimum repeats.
    /// Later repeats repeat the same allocations; how many there are
    /// depends on the box's speed, and each can only raise the mark.
    pub peak_rss_mib: Option<f64>,
}

impl Session {
    pub fn new() -> Session {
        Session {
            scratch: Scratch::new(),
            calibrator: Calibrator::new(),
            attempted: 0,
            failures: Vec::new(),
            peak_rss_mib: None,
        }
    }

    /// Runs the workload once and books its instances and failures.
    pub fn repeat(&mut self, w: Workload, seed: u64, arm: Arm, spans: &mut Spans) -> Repeat {
        let mut repeat = run_repeat(w, seed, arm, &self.scratch, spans);
        self.attempted += repeat.instances;
        self.failures.append(&mut repeat.failures);
        repeat
    }

    /// Books a failure unless two repeats of one seed agree on every
    /// exact result: outcomes, virtual times, log size. `what` says
    /// which two (repeats of an arm, or the two stores).
    pub fn expect_same(&mut self, w: Workload, what: &str, a: &Repeat, b: &Repeat) {
        if let Some(drift) = drift(a, b) {
            self.failures
                .push(format!("{}: {what} disagree: {drift}", w.name()));
        }
    }
}

/// Peak resident set size of this process so far, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs `arm` repeatedly until `budget` is spent, after one discarded
/// warm-up repeat. Each repeat is bracketed by calibration probes and
/// its CPU times are restated at nominal speed. Failures of every
/// repeat, the warm-up included, are booked; so is any drift in the
/// exact (virtual-clock and count) results, which one seed must
/// reproduce bit for bit.
pub fn measure(
    w: Workload,
    seed: u64,
    arm: Arm,
    budget: Budget,
    spans: &mut Spans,
    session: &mut Session,
) -> Vec<Repeat> {
    // Warm-up: caches and the allocator settle; only its outputs
    // count. The budget starts after it.
    let reference = session.repeat(w, seed, arm, spans);
    let began = Instant::now();
    let mut repeats: Vec<Repeat> = Vec::new();
    while repeats.len() < budget.min_repeats || began.elapsed() < budget.wall {
        let before = session.calibrator.await_full_speed();
        let mut repeat = session.repeat(w, seed, arm, spans);
        repeat.scale_cpu(session.calibrator.nominal_factor(before));
        session.expect_same(w, "two repeats of one seed", &reference, &repeat);
        // Only the last repeat's WAL is kept for artifact replay.
        if let Some(previous) = repeats.last_mut() {
            previous.wal = None;
        }
        repeats.push(repeat);
        if repeats.len() == budget.min_repeats {
            session.peak_rss_mib.get_or_insert_with(peak_rss_mib);
        }
    }
    repeats
}

/// The first exact result on which two repeats of one seed disagree.
fn drift(a: &Repeat, b: &Repeat) -> Option<String> {
    if a.fingerprint != b.fingerprint {
        Some(format!(
            "outcome fingerprint {:016x} != {:016x}",
            a.fingerprint, b.fingerprint
        ))
    } else if a.virtual_makespan_ms != b.virtual_makespan_ms {
        Some(format!(
            "virtual makespan {} != {} ms",
            a.virtual_makespan_ms, b.virtual_makespan_ms
        ))
    } else if a.virtual_latency_ms != b.virtual_latency_ms {
        Some("per-instance virtual latencies differ".to_string())
    } else if a.log_bytes != b.log_bytes {
        Some(format!("log size {} != {} B", a.log_bytes, b.log_bytes))
    } else {
        None
    }
}

/// Times batches of set-ups of the in-memory arm, bracketed by probes
/// like repeats are; returns every set-up's CPU seconds at nominal
/// speed.
fn measure_setups(w: Workload, seed: u64, arm: Arm, session: &mut Session) -> Vec<f64> {
    let mut setups = Vec::new();
    for _ in 0..SETUP_BATCHES {
        let before = session.calibrator.await_full_speed();
        let batch: Vec<f64> = (0..SETUPS_PER_BATCH)
            .map(|_| {
                let began = Stopwatch::start();
                let sys = build_system(w, seed, arm, None);
                let took = began.elapsed().cpu_s;
                drop(sys);
                took
            })
            .collect();
        let factor = session.calibrator.nominal_factor(before);
        setups.extend(batch.into_iter().map(|s| s * factor));
    }
    setups
}

/// Throughput, latency p50 and p99 (µs) and recovery time, each a
/// per-repeat figure summarized over `repeats`, on the clock `pick`
/// selects.
pub fn time_metrics(repeats: &[Repeat], pick: fn(&Times) -> f64) -> [Summary; 4] {
    let per_repeat = |f: &dyn Fn(&Repeat) -> f64| -> Summary {
        summarize(&repeats.iter().map(f).collect::<Vec<_>>())
    };
    let latencies_us =
        |r: &Repeat| sorted(&r.latency.iter().map(|t| pick(t) * 1e6).collect::<Vec<_>>());
    [
        per_repeat(&|r| r.instances as f64 / pick(&r.drive)),
        per_repeat(&|r| median(&latencies_us(r))),
        per_repeat(&|r| percentile(&latencies_us(r), 0.99)),
        per_repeat(&|r| pick(&r.recovery)),
    ]
}

pub fn run(w: Workload, seed: u64, seconds: f64, instances: usize) -> Report {
    let mut session = Session::new();
    let arm = w.arm(instances);
    let setups = measure_setups(w, seed, arm, &mut session);

    // The durable arm gives what does not depend on this box's
    // weather: the checks on real files and the exact log counts.
    let mut durable = || session.repeat(w, seed, w.file_arm(instances), &mut Spans::new(false));
    let (first_file, file) = (durable(), durable());
    session.expect_same(w, "two durable repeats of one seed", &first_file, &file);
    drop(first_file);
    let syncs = file
        .wal
        .as_ref()
        .map_or(0, |wal| frames_in(wal, arm.shards));

    // The in-memory arm gives the timed metrics.
    let repeats = measure(
        w,
        seed,
        arm,
        Budget::end_to_end(seconds),
        &mut Spans::new(false),
        &mut session,
    );
    let first = &repeats[0];
    session.expect_same(w, "the in-memory and the file-backed log", first, &file);

    let [throughput, p50, p99, recovery] = time_metrics(&repeats, |t| t.cpu_s);
    let timed = vec![
        ("setup_s", summarize(&setups)),
        ("instances_per_cpu_s", throughput),
        ("cpu_latency_p50_us", p50),
        ("cpu_latency_p99_us", p99),
        ("recovery_cpu_s", recovery),
    ];
    let virtual_latencies = sorted(&first.virtual_latency_ms);
    let per_instance = |count: f64| count / first.instances as f64;
    let mut values: Vec<(&'static str, f64)> = timed
        .iter()
        .map(|(name, summary)| (*name, summary.median))
        .collect();
    values.extend([
        ("peak_rss_mb", session.peak_rss_mib.unwrap_or_default()),
        ("virtual_makespan_ms", first.virtual_makespan_ms),
        ("virtual_latency_p50_ms", median(&virtual_latencies)),
        (
            "virtual_latency_p99_ms",
            percentile(&virtual_latencies, 0.99),
        ),
        (
            "wal_bytes_per_instance",
            per_instance(file.log_bytes as f64),
        ),
        ("wal_syncs_per_instance", per_instance(syncs as f64)),
    ]);
    debug_assert!(values
        .iter()
        .map(|(n, _)| n)
        .eq(END_TO_END.iter().map(|m| &m.name)));
    Report {
        workload: w,
        attempted: session.attempted,
        failures: session.failures,
        values,
        spreads: timed,
    }
}
