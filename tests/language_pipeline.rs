//! Cross-crate language pipeline: text → parse → templates → sema →
//! schema → DOT, plus formatter canonicality, over the paper samples and
//! generated workloads.

use flowscript::lang::dot;
use flowscript::lang::fmt::format_script;
use flowscript::lang::schema::compile_source;
use flowscript::lang::{parse, sema, template};
use flowscript::samples;
use proptest::prelude::*;

#[test]
fn samples_pass_the_entire_pipeline() {
    for (name, source) in samples::all() {
        let root = samples::root_of(name);
        let script = parse(source).unwrap_or_else(|d| panic!("{name}: {d}"));
        let expanded = template::expand(script.clone()).unwrap();
        let checked = sema::check(&expanded).unwrap_or_else(|d| panic!("{name}: {d}"));
        let schema = flowscript::lang::schema::compile(&checked, root)
            .unwrap_or_else(|d| panic!("{name}: {d}"));
        let rendered = dot::render(&schema);
        assert!(rendered.contains(root), "{name} dot misses root");
        // Formatter canonicality.
        let formatted = format_script(&script);
        let reparsed = parse(&formatted).unwrap_or_else(|d| panic!("{name} reformat: {d}"));
        assert_eq!(format_script(&reparsed), formatted, "{name}");
        // The canonical form compiles to the same schema.
        let schema2 = compile_source(&formatted, root).unwrap();
        assert_eq!(schema, schema2, "{name}: schema differs after formatting");
    }
}

#[test]
fn generated_workloads_compile_at_scale() {
    for n in [1, 10, 100, 400] {
        let schema = compile_source(&samples::chain(n), "root").unwrap();
        assert_eq!(schema.leaf_count(), n);
    }
    for width in [1, 8, 64] {
        let schema = compile_source(&samples::fan(width), "root").unwrap();
        assert_eq!(schema.leaf_count(), width + 2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any generated chain is canonical text (text → AST → text is the
    /// identity) and compiles.
    #[test]
    fn builder_outputs_roundtrip(n in 1usize..40) {
        let text = samples::chain(n);
        let script = parse(&text).unwrap();
        prop_assert_eq!(format_script(&script), text);
        let checked = sema::check(&script).unwrap();
        let schema = flowscript::lang::schema::compile(&checked, "root").unwrap();
        prop_assert_eq!(schema.leaf_count(), n);
    }

    /// Mutated sample sources never panic the front end — they either
    /// parse or produce diagnostics.
    #[test]
    fn fuzzed_sources_never_panic(seed in 0usize..1000) {
        let (_, source) = samples::all()[seed % samples::all().len()];
        // Deterministic mutation: delete a slice of the source.
        let start = (seed * 37) % source.len();
        let end = (start + (seed * 13) % 40).min(source.len());
        let mut mutated = String::new();
        mutated.push_str(&source[..start]);
        mutated.push_str(&source[end..]);
        match parse(&mutated) {
            Ok(script) => {
                let _ = template::expand(script).and_then(|e| {
                    sema::check(&e).map(|_| ())
                });
            }
            Err(diags) => {
                prop_assert!(diags.has_errors());
            }
        }
    }
}
