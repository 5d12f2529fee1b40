//! Hostile-input regression for the JSON parser behind `--config`,
//! snapshots, sweep manifests and the `wavesim serve` wire: nesting is
//! capped, so a megabyte of openers is a parse error naming where it
//! gave up instead of a stack overflow that aborts the process.

use idle_waves::prelude::*;

const MIB: usize = 1 << 20;

fn rejected_at(input: &str, offset: usize) {
    let e = Json::parse(input).expect_err("over-deep nesting must be rejected");
    assert!(
        e.0.contains(&format!("at byte {offset}")),
        "error should name byte {offset}: {e}"
    );
}

#[test]
fn a_megabyte_of_openers_is_an_error_not_a_stack_overflow() {
    // Runs on a test thread (2 MiB stack by default): unbounded
    // recursion would abort the whole test binary here.
    rejected_at(&"[".repeat(MIB), 128);
    let opener = r#"{"a":"#;
    rejected_at(&opener.repeat(MIB / opener.len()), 128 * opener.len());
}

#[test]
fn moderately_deep_documents_still_round_trip() {
    let mut doc = Json::UInt(7);
    for level in 0..64 {
        doc = if level % 2 == 0 {
            Json::Array(vec![doc, Json::Null])
        } else {
            Json::obj(vec![("a", doc), ("b", Json::Bool(true))])
        };
    }
    for text in [doc.dump(), doc.dump_pretty()] {
        assert_eq!(Json::parse(&text).expect("64 levels parse"), doc);
    }
}
