use std::fmt;

/// A position in source text (1-based line and column, 0-based byte
/// offset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pos {
    /// 0-based byte offset.
    pub offset: usize,
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number (in characters).
    pub column: u32,
}

impl Pos {
    /// The start of the input.
    pub const START: Pos = Pos {
        offset: 0,
        line: 1,
        column: 1,
    };
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.column)
    }
}

/// A half-open byte range in source text with line/column endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// Inclusive start.
    pub start: Pos,
    /// Exclusive end.
    pub end: Pos,
}

impl Span {
    /// A zero-width span at the origin, for synthesised nodes.
    pub const SYNTHETIC: Span = Span {
        start: Pos::START,
        end: Pos::START,
    };

    /// Creates a span between two positions.
    pub fn new(start: Pos, end: Pos) -> Self {
        Self { start, end }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn merge(self, other: Span) -> Span {
        Span {
            start: if self.start <= other.start {
                self.start
            } else {
                other.start
            },
            end: if self.end.offset >= other.end.offset {
                self.end
            } else {
                other.end
            },
        }
    }

    /// Whether this span was synthesised rather than parsed.
    pub fn is_synthetic(self) -> bool {
        self == Span::SYNTHETIC
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.start)
    }
}

impl Default for Span {
    fn default() -> Self {
        Span::SYNTHETIC
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pos(offset: usize, line: u32, column: u32) -> Pos {
        Pos {
            offset,
            line,
            column,
        }
    }

    #[test]
    fn merge_extends_both_ways() {
        let a = Span::new(pos(5, 1, 6), pos(8, 1, 9));
        let b = Span::new(pos(2, 1, 3), pos(6, 1, 7));
        let merged = a.merge(b);
        assert_eq!(merged.start.offset, 2);
        assert_eq!(merged.end.offset, 8);
    }

    #[test]
    fn display_forms() {
        let span = Span::new(pos(0, 3, 7), pos(4, 3, 11));
        assert_eq!(span.to_string(), "3:7");
        assert_eq!(span.start.to_string(), "3:7");
    }

    #[test]
    fn synthetic_detection() {
        assert!(Span::SYNTHETIC.is_synthetic());
        assert!(Span::default().is_synthetic());
        let real = Span::new(pos(0, 1, 1), pos(1, 1, 2));
        assert!(!real.is_synthetic());
    }
}
