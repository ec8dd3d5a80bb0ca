//! `ProgramModel` JSON encoding edge cases: models that sit on the
//! boundary of the schema — empty may-touch sets, duplicate contexts
//! before/after `collapse_contexts`, exotic strings, and boundary ids.
//! Each encoding is parsed back and compared with the expected document.

use partstm_analysis::json::Json;
use partstm_analysis::{
    partition, AccessKind, AccessSite, AllocSite, ModelBuilder, ModelError, ProgramModel, Strategy,
};

fn alloc(id: u32, name: &str, ctx: Option<&str>) -> AllocSite {
    AllocSite {
        id,
        name: name.to_owned(),
        type_name: "T".to_owned(),
        context: ctx.map(str::to_owned),
    }
}

fn site(id: u32, may_touch: Vec<u32>) -> AccessSite {
    AccessSite {
        id,
        func: format!("f{id}"),
        kind: AccessKind::Read,
        may_touch,
    }
}

/// `m.to_json()`, parsed back, equals the document `expected`.
fn assert_encodes(m: &ProgramModel, expected: &str) {
    let j = m.to_json();
    assert_eq!(
        Json::parse(&j).unwrap(),
        Json::parse(expected).unwrap(),
        "encoded as {j}"
    );
}

/// An empty may-touch set is invalid; the serializer still emits it
/// faithfully (`[]`) rather than silently dropping the site.
#[test]
fn empty_may_touch_is_invalid_and_emitted_faithfully() {
    let m = ProgramModel {
        name: "edge".into(),
        alloc_sites: vec![alloc(0, "a", None)],
        access_sites: vec![site(0, vec![])],
    };
    assert_eq!(m.validate(), Err(ModelError::EmptyMayTouch(0)));
    let j = m.to_json();
    assert!(j.contains("\"may_touch\": []"), "emitted faithfully: {j}");
    assert_encodes(
        &m,
        r#"{"name": "edge",
            "alloc_sites": [{"id": 0, "name": "a", "type_name": "T", "context": null}],
            "access_sites": [{"id": 0, "func": "f0", "kind": "Read", "may_touch": []}]}"#,
    );
    // An explicitly empty model, by contrast, is valid.
    let empty = ProgramModel {
        name: "nothing".into(),
        alloc_sites: vec![],
        access_sites: vec![],
    };
    empty.validate().unwrap();
    assert_encodes(
        &empty,
        r#"{"name": "nothing", "alloc_sites": [], "access_sites": []}"#,
    );
}

/// Context duplicates: same (name, type) under several contexts — and one
/// *repeated* context string — collapse to a single representative with
/// rewritten, deduplicated may-touch sets; the collapsed model encodes
/// with `null` contexts and the collapse is idempotent.
#[test]
fn duplicate_context_collapse_roundtrips_and_is_idempotent() {
    let mut b = ModelBuilder::new("ctx-dup");
    let a1 = b.alloc_in_context("node", "Node", "main->build");
    let a2 = b.alloc_in_context("node", "Node", "main->build"); // repeated context
    let a3 = b.alloc_in_context("node", "Node", "main->clone");
    let other = b.alloc("other", "Other");
    b.access("touch_all", AccessKind::ReadWrite, &[a1, a2, a3]);
    b.access("touch_mixed", AccessKind::Read, &[a3, other]);
    let m = b.build().unwrap();

    let flat = m.collapse_contexts();
    flat.validate().unwrap();
    assert_eq!(flat.alloc_sites.len(), 2, "three contexts fold to one site");
    assert!(flat.alloc_sites.iter().all(|a| a.context.is_none()));
    // The spanning access now touches the representative exactly once.
    assert_eq!(flat.access_sites[0].may_touch, vec![a1]);
    assert_eq!(flat.access_sites[1].may_touch, vec![a1, other]);

    // The wire form carries the collapsed model exactly.
    assert_encodes(
        &flat,
        r#"{"name": "ctx-dup(ctx-insensitive)",
            "alloc_sites": [
                {"id": 0, "name": "node", "type_name": "Node", "context": null},
                {"id": 3, "name": "other", "type_name": "Other", "context": null}
            ],
            "access_sites": [
                {"id": 0, "func": "touch_all", "kind": "ReadWrite", "may_touch": [0]},
                {"id": 1, "func": "touch_mixed", "kind": "Read", "may_touch": [0, 3]}
            ]}"#,
    );

    // Idempotence (modulo the renaming the collapse applies).
    let twice = flat.collapse_contexts();
    assert_eq!(twice.alloc_sites, flat.alloc_sites);
    assert_eq!(twice.access_sites, flat.access_sites);

    // The context-sensitive model partitions no coarser than the
    // collapsed one (the paper's argument for context sensitivity).
    let fine = partition(&m, Strategy::MayTouch).unwrap();
    let coarse = partition(&flat, Strategy::MayTouch).unwrap();
    assert!(fine.partition_count() >= coarse.partition_count());
}

/// Strings with JSON metacharacters, escapes and non-ASCII round-trip.
#[test]
fn exotic_strings_roundtrip() {
    let mut b = ModelBuilder::new("weird \"name\" \\ with\ttabs\nand √unicode");
    let a = b.alloc_in_context("nodes/\"quoted\"", "Ty<p,e>", "main -> λ{0}");
    b.access("fn with spaces \u{1F980}", AccessKind::Write, &[a]);
    let m = b.build().unwrap();
    let j = m.to_json();
    assert!(
        j.contains(r#""weird \"name\" \\ with\ttabs\nand √unicode""#),
        "metacharacters escaped, non-ASCII verbatim: {j}"
    );
    assert_encodes(
        &m,
        r#"{"name": "weird \"name\" \\ with\ttabs\nand \u221aunicode",
            "alloc_sites": [{"id": 0, "name": "nodes/\"quoted\"", "type_name": "Ty<p,e>",
                             "context": "main -> \u03bb{0}"}],
            "access_sites": [{"id": 0, "func": "fn with spaces 🦀", "kind": "Write",
                              "may_touch": [0]}]}"#,
    );
}

/// Boundary ids (u32::MAX) survive the f64-backed number representation.
#[test]
fn boundary_ids_roundtrip() {
    let m = ProgramModel {
        name: "ids".into(),
        alloc_sites: vec![
            alloc(u32::MAX, "top", Some("ctx")),
            alloc(0, "bottom", None),
        ],
        access_sites: vec![site(u32::MAX, vec![u32::MAX, 0])],
    };
    m.validate().unwrap();
    assert_encodes(
        &m,
        r#"{"name": "ids",
            "alloc_sites": [
                {"id": 4294967295, "name": "top", "type_name": "T", "context": "ctx"},
                {"id": 0, "name": "bottom", "type_name": "T", "context": null}
            ],
            "access_sites": [{"id": 4294967295, "func": "f4294967295", "kind": "Read",
                              "may_touch": [4294967295, 0]}]}"#,
    );
    let plan = partition(&m, Strategy::MayTouch).unwrap();
    assert_eq!(plan.partition_count(), 1, "spanning access merges the pair");
}
