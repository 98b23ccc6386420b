//! Collection strategies (`proptest::collection::vec`).

use std::ops::{Range, RangeInclusive};

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// An inclusive size bound for generated collections.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    min: usize,
    max: usize,
}

impl From<usize> for SizeRange {
    fn from(exact: usize) -> Self {
        Self {
            min: exact,
            max: exact,
        }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(range: Range<usize>) -> Self {
        assert!(range.start < range.end, "empty size range");
        Self {
            min: range.start,
            max: range.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(range: RangeInclusive<usize>) -> Self {
        Self {
            min: *range.start(),
            max: *range.end(),
        }
    }
}

/// Generates a `Vec` whose elements are drawn from `element` and whose
/// length falls in `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// The strategy returned by [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let len = rng.usize_inclusive(self.size.min, self.size.max);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}
