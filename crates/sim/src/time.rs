use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use flowscript_codec::{ByteReader, ByteWriter, CodecError, Decode, Encode};

/// A point in simulated time, in nanoseconds since simulation start.
///
/// Virtual time lets the long-running applications the paper targets
/// ("executions could span arbitrarily large durations") complete in
/// milliseconds of wall-clock time without changing event ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// A time later than any schedulable event.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw nanoseconds.
    pub fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Nanoseconds since the epoch.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Elapsed duration since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from nanoseconds.
    pub fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration from microseconds.
    pub fn from_micros(micros: u64) -> Self {
        SimDuration(micros.saturating_mul(1_000))
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis.saturating_mul(1_000_000))
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs.saturating_mul(1_000_000_000))
    }

    /// The duration in whole nanoseconds.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration in whole milliseconds, truncating.
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// The duration in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating multiplication by an integer factor (used for backoff).
    pub fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl Sub for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let nanos = self.0;
        if nanos >= 1_000_000_000 {
            write!(f, "{:.3}s", nanos as f64 / 1e9)
        } else if nanos >= 1_000_000 {
            write!(f, "{:.3}ms", nanos as f64 / 1e6)
        } else if nanos >= 1_000 {
            write!(f, "{:.3}us", nanos as f64 / 1e3)
        } else {
            write!(f, "{nanos}ns")
        }
    }
}

impl Encode for SimTime {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.0);
    }
}

impl Decode for SimTime {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(SimTime(r.get_u64()?))
    }
}

impl Encode for SimDuration {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.0);
    }
}

impl Decode for SimDuration {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(SimDuration(r.get_u64()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(SimTime::MAX + SimDuration::from_secs(1), SimTime::MAX);
        assert_eq!(SimTime::ZERO - SimTime::from_nanos(5), SimDuration::ZERO);
    }

    #[test]
    fn unit_constructors() {
        assert_eq!(SimDuration::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimDuration::from_secs(2).as_millis(), 2_000);
        assert_eq!(SimDuration::from_micros(3).as_nanos(), 3_000);
    }

    #[test]
    fn display_chooses_unit() {
        assert_eq!(SimDuration::from_nanos(5).to_string(), "5ns");
        assert_eq!(SimDuration::from_micros(5).to_string(), "5.000us");
        assert_eq!(SimDuration::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimDuration::from_secs(5).to_string(), "5.000s");
    }

    #[test]
    fn since_and_ordering() {
        let a = SimTime::from_nanos(100);
        let b = SimTime::from_nanos(250);
        assert_eq!(b.since(a), SimDuration::from_nanos(150));
        assert_eq!(a.since(b), SimDuration::ZERO);
        assert!(a < b);
    }

    #[test]
    fn codec_roundtrip() {
        let t = SimTime::from_nanos(123_456_789);
        let bytes = flowscript_codec::to_bytes(&t);
        assert_eq!(flowscript_codec::from_bytes::<SimTime>(&bytes).unwrap(), t);
    }
}
