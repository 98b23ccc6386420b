//! The plan's encoding is deterministic. Nothing decodes a plan — an
//! instance's plan is always lowered from its pinned source — so the
//! one property left is that the bytes depend on the script alone.

use flowscript_core::samples;
use flowscript_core::schema::compile_source;
use flowscript_plan::Plan;
use proptest::prelude::*;

/// A small parameterised fan script so sizes vary beyond the samples.
fn fan_script(width: usize) -> String {
    let mut source = String::from(
        r#"class Data;
taskclass Worker {
    inputs { input main { in of class Data } };
    outputs { outcome done { out of class Data } }
}
taskclass Root {
    inputs { input main { seed of class Data } };
    outputs { outcome done { } }
}
compoundtask root of taskclass Root {
"#,
    );
    for i in 0..width {
        source.push_str(&format!(
            "    task w{i} of taskclass Worker {{\n        implementation {{ \"code\" is \"refW{i}\" }};\n        inputs {{ input main {{ inputobject in from {{ seed of task root if input main }} }} }}\n    }};\n"
        ));
    }
    source.push_str("    outputs { outcome done { notification from {");
    for i in 0..width {
        let sep = if i + 1 < width { ";" } else { "" };
        source.push_str(&format!(" task w{i} if output done{sep}"));
    }
    source.push_str(" } } }\n}\n");
    source
}

fn pick_plan(selector: usize, width: usize) -> Plan {
    let all = samples::all();
    let schema = if selector < all.len() {
        let (name, source) = all[selector];
        compile_source(source, samples::root_of(name)).unwrap()
    } else {
        compile_source(&fan_script(width.max(1)), "root").unwrap()
    };
    Plan::lower(&schema)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Two lowerings of one script encode to the same bytes — the
    /// figure the ledger's `plan.encoded_bytes` reads is a function of
    /// the script alone.
    #[test]
    fn a_script_lowers_to_the_same_bytes_every_time(selector in 0usize..7, width in 1usize..20) {
        let bytes = flowscript_codec::to_bytes(&pick_plan(selector, width));
        prop_assert_eq!(flowscript_codec::to_bytes(&pick_plan(selector, width)), bytes);
    }
}
