#![warn(missing_docs)]
//! The flowscript language: the scripting language of
//! *"A Language for Specifying the Composition of Reliable Distributed
//! Applications"* (Ranno, Shrivastava, Wheater — ICDCS'98).
//!
//! A script composes an application out of *tasks* (units of computation)
//! connected by *dataflow* and *notification* dependencies. The constructs
//! (paper §4):
//!
//! - `class C;` — declares an opaque object class,
//! - `taskclass T { inputs {…}; outputs {…} }` — a task signature with
//!   named *input sets* and four kinds of outputs (`outcome`,
//!   `abort outcome`, `repeat outcome`, `mark`),
//! - `task t of taskclass T { implementation {…}; inputs {…} }` — an
//!   instance with run-time-bound implementation and per-input
//!   *alternative source lists*,
//! - `compoundtask c of taskclass T { … constituent tasks … outputs {…} }`
//!   — hierarchical composition with output mappings,
//! - `tasktemplate … parameters {…}` and `t of tasktemplate tt(a, b)` —
//!   parameterised task definitions.
//!
//! This crate is the front half of the system: text → [`parse`] →
//! [`ast`] → [`sema::check`] → [`template::expand`] → [`schema::compile`]
//! → a [`schema::Schema`] executed by `flowscript-engine`. It also
//! provides a canonical formatter ([`fmt`]) and Graphviz export ([`dot`]).
//!
//! # Examples
//!
//! ```
//! let source = r#"
//!     class Order;
//!     taskclass Check {
//!         inputs { input main { order of class Order } };
//!         outputs { outcome ok { order of class Order }; abort outcome failed { } }
//!     }
//! "#;
//! let script = flowscript_core::parse(source)?;
//! let checked = flowscript_core::sema::check(&script)?;
//! assert_eq!(checked.task_classes().len(), 1);
//! # Ok::<(), flowscript_core::Diagnostics>(())
//! ```

pub mod ast;
pub mod diag;
pub mod dot;
pub mod fmt;
mod lexer;
mod parser;
pub mod samples;
pub mod schema;
pub mod sema;
mod span;
pub mod template;
mod token;

pub use diag::{Diagnostic, Diagnostics, Severity};
pub use parser::{parse, parse_task_decl};
pub use span::{Pos, Span};

#[cfg(test)]
mod tests {
    #[test]
    fn crate_example_compiles_order_pipeline() {
        let script = crate::parse(crate::samples::ORDER_PROCESSING).expect("parse");
        let checked = crate::sema::check(&script).expect("sema");
        assert!(checked.task_classes().len() >= 5);
    }
}
