//! Front-end robustness properties: no input — valid, mutated or pure
//! noise — may panic the lexer, parser, semantic checker or compiler;
//! valid inputs round-trip through the formatter.

use flowscript_core::{parse, samples, sema, template};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary unicode never panics the pipeline.
    #[test]
    fn arbitrary_text_never_panics(input in ".{0,400}") {
        if let Ok(script) = parse(&input) {
            if let Ok(expanded) = template::expand(script.clone()) {
                let _ = sema::check(&expanded);
            }
            let _ = flowscript_core::fmt::format_script(&script);
        }
    }

    /// Keyword soup (harder than random unicode: it lexes cleanly).
    #[test]
    fn keyword_soup_never_panics(words in proptest::collection::vec(
        prop_oneof![
            Just("class"), Just("taskclass"), Just("task"), Just("compoundtask"),
            Just("tasktemplate"), Just("inputs"), Just("outputs"), Just("input"),
            Just("output"), Just("inputobject"), Just("outputobject"),
            Just("notification"), Just("from"), Just("of"), Just("if"), Just("is"),
            Just("implementation"), Just("outcome"), Just("abort"), Just("repeat"),
            Just("mark"), Just("parameters"), Just("{"), Just("}"), Just("("),
            Just(")"), Just(";"), Just(","), Just("ident"), Just("\"str\""),
        ],
        0..60,
    )) {
        let input = words.join(" ");
        if let Ok(script) = parse(&input) {
            if let Ok(expanded) = template::expand(script) {
                let _ = sema::check(&expanded);
            }
        }
    }

    /// Sample scripts survive arbitrary single-character substitutions:
    /// either they still pass the pipeline or they produce diagnostics —
    /// never a panic, and diagnostics always render.
    #[test]
    fn single_character_mutations_handled(sample_idx in 0usize..5, pos: usize, ch: char) {
        let (_, source) = samples::all()[sample_idx];
        let mut chars: Vec<char> = source.chars().collect();
        let pos = pos % chars.len();
        chars[pos] = ch;
        let mutated: String = chars.into_iter().collect();
        match parse(&mutated) {
            Ok(script) => {
                if let Ok(expanded) = template::expand(script) {
                    let _ = sema::check(&expanded);
                }
            }
            Err(diags) => {
                let rendered = diags.render(&mutated);
                prop_assert!(!rendered.is_empty());
            }
        }
    }

    /// Identifier-sized fragments embedded in a valid skeleton: names may
    /// collide with each other but never crash resolution.
    #[test]
    fn hostile_names_never_crash_sema(name in "[a-zA-Z_][a-zA-Z0-9_]{0,12}") {
        let source = format!(
            r#"
            class {name};
            taskclass T_{name} {{
                inputs {{ input main {{ x of class {name} }} }};
                outputs {{ outcome done {{ y of class {name} }} }}
            }}
            task inst_{name} of taskclass T_{name} {{
                inputs {{ input main {{
                    inputobject x from {{ y of task inst_{name} if output done }}
                }} }}
            }}
            "#
        );
        match parse(&source) {
            Ok(script) => {
                // `class class;` etc. fail at parse; those that parse may
                // still fail sema (e.g. self-sourcing a non-repeat output
                // creates a cycle) — both are acceptable, panics are not.
                let _ = sema::check(&script);
            }
            Err(diags) => {
                prop_assert!(diags.has_errors());
            }
        }
    }
}
