//! The calling thread's CPU time, and a probe that tells whether the
//! CPU was running at full speed.
//!
//! Wall time on this sandbox is mostly weather: `fdatasync` latency
//! swings by a factor of two within minutes. Time the thread actually
//! spent on a CPU leaves the device wait out, so it repeats; it is the
//! clock of the end-to-end time metrics. Wall time is still reported,
//! per layer.
//!
//! CPU time has weather of its own: whenever this sandbox's vCPU wakes
//! from idle it lands, about every other time, in a state where the
//! same code takes 1.5× the CPU time, and stays there while it keeps
//! running (the host placed it next to a busy sibling). A fixed probe
//! timed before and after every measurement sees that state
//! independently of the measurement, and the measurement's CPU time is
//! restated at the probe's nominal speed.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// A reading of the thread's CPU clock; differences are CPU time spent,
/// user and kernel, by this thread.
#[derive(Debug, Clone, Copy)]
pub struct CpuInstant(f64);

impl CpuInstant {
    pub fn now() -> CpuInstant {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable `timespec` of the layout the
        // C library expects on 64-bit Linux (two `i64`s), and the clock
        // id is a constant the kernel defines; the call writes `ts` and
        // touches nothing else.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "the thread CPU clock is always readable on Linux");
        CpuInstant(ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9)
    }

    /// CPU seconds spent since `self` was read.
    pub fn elapsed_s(self) -> f64 {
        CpuInstant::now().0 - self.0
    }
}

/// Seconds on both clocks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Times {
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Times {
    /// The same with the CPU time multiplied by `factor`.
    pub fn cpu_scaled(self, factor: f64) -> Times {
        Times {
            cpu_s: self.cpu_s * factor,
            ..self
        }
    }
}

/// Both clocks, started together.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: CpuInstant,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu: CpuInstant::now(),
        }
    }

    pub fn elapsed(self) -> Times {
        Times {
            wall_s: self.wall.elapsed().as_secs_f64(),
            cpu_s: self.cpu.elapsed_s(),
        }
    }
}

/// A fixed piece of CPU work shaped like the engine's (formatted string
/// keys, an ordered map, small heap values): about 4 ms here. Returns
/// the CPU seconds of the faster of two runs.
pub fn probe() -> f64 {
    let once = || {
        let began = CpuInstant::now();
        for round in 0..3u32 {
            let mut map = BTreeMap::new();
            for i in 0..3000u32 {
                let key = i.wrapping_mul(2_654_435_761) % 5000;
                map.insert(format!("wave-{key}/task/{round}"), vec![i as u8; 96]);
            }
            let mut found = 0usize;
            for i in 0..3000u32 {
                let key = i.wrapping_mul(40_503) % 5000;
                if let Some(value) = map.get(&format!("wave-{key}/task/{round}")) {
                    found += value.len();
                }
            }
            black_box(found);
        }
        began.elapsed_s()
    };
    once().min(once())
}

/// What the probe takes at the speed the CPU-clock metrics are stated
/// at: its full-speed time on the sandbox this benchmark was defined
/// on. Only ratios to it are used, so on another machine it is merely
/// the unit.
const NOMINAL_PROBE_S: f64 = 0.0042;

/// Times probes around measurements, and knows what full speed is.
#[derive(Debug)]
pub struct Calibrator {
    /// The fastest probe this process has seen: full speed.
    fastest: f64,
}

impl Calibrator {
    /// A probe counts as full speed within this factor of the fastest
    /// one; the disturbed state is 1.5×, so 1.1 separates them.
    const FULL_SPEED: f64 = 1.1;
    /// How often [`Calibrator::await_full_speed`] re-rolls.
    const TRIES: usize = 8;
    /// Probes taken up front to learn what full speed is.
    const LEARNING_PROBES: usize = 16;

    /// Learns full speed: the fastest of a series of probes with a
    /// short sleep before each, so the speed state is drawn anew every
    /// time and a process that starts out slow still sees a fast one.
    pub fn new() -> Calibrator {
        let mut calibrator = Calibrator {
            fastest: f64::INFINITY,
        };
        for _ in 0..Self::LEARNING_PROBES {
            std::thread::sleep(Duration::from_millis(10));
            calibrator.probe();
        }
        calibrator
    }

    pub fn probe(&mut self) -> f64 {
        let took = probe();
        self.fastest = self.fastest.min(took);
        took
    }

    /// Probes until the CPU runs at full speed, so that a measurement
    /// starts there when it can: the correction [`Calibrator::nominal_factor`]
    /// gives is first-order only. The speed state is drawn anew
    /// whenever the vCPU wakes from idle, so a short sleep between
    /// probes is what re-rolls it. Returns the last probe.
    pub fn await_full_speed(&mut self) -> f64 {
        let mut took = self.probe();
        for _ in 1..Self::TRIES {
            if took <= self.fastest * Self::FULL_SPEED {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
            took = self.probe();
        }
        took
    }

    /// Probes again after a measurement that [`await_full_speed`]
    /// preceded with the probe `before`, and returns what to multiply
    /// the measurement's CPU time by to state it at nominal speed: the
    /// probe's nominal time over what the probe took around it.
    ///
    /// [`await_full_speed`]: Calibrator::await_full_speed
    pub fn nominal_factor(&mut self, before: f64) -> f64 {
        let after = self.probe();
        NOMINAL_PROBE_S / ((before + after) / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_work_and_not_sleep() {
        let began = CpuInstant::now();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let slept = began.elapsed_s();
        assert!(slept < 0.02, "sleeping cost {slept} CPU seconds");

        let began = CpuInstant::now();
        let wall = std::time::Instant::now();
        let mut x = 1u64;
        while wall.elapsed() < std::time::Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let spun = began.elapsed_s();
        assert!(spun > 0.005, "spinning 30 ms cost only {spun} CPU seconds");
    }

    #[test]
    fn probes_bracket_a_measurement() {
        let mut calibrator = Calibrator::new();
        let before = calibrator.await_full_speed();
        assert!(before >= calibrator.fastest);
        // A probe 1 000× slower than any real one before the
        // measurement: the factor scales the measurement down.
        assert!(
            calibrator.nominal_factor(before * 1e3) < calibrator.nominal_factor(before) / 100.0
        );
    }
}
