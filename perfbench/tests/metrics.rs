//! The metric names the benchmark prints are valid, unique, and exactly
//! the ones `BENCHMARK.json` declares, in the same order and units.

use jrsnd_perfbench::report::{per_layer, valid_metric_name, END_TO_END};
use jrsnd_perfbench::scenario::WORKLOADS;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The `"key": "value"` strings of one top-level array of
/// `BENCHMARK.json`, in order.
fn field(json: &str, section: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array end")];
    let needle = format!("\"{key}\": \"");
    body.match_indices(&needle)
        .map(|(i, _)| {
            let rest = &body[i + needle.len()..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

fn all_per_layer() -> Vec<(String, &'static str)> {
    WORKLOADS.iter().flat_map(|w| per_layer(w)).collect()
}

#[test]
fn every_metric_name_matches_the_allowed_pattern() {
    let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    names.extend(all_per_layer().into_iter().map(|(n, _)| n));
    for name in &names {
        assert!(valid_metric_name(name), "bad metric name {name:?}");
    }
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "metric names are unique");
    assert!(names.len() <= 6 + 128);
}

#[test]
fn the_name_check_rejects_what_the_pattern_rejects() {
    for bad in ["", "a/b", "-lead", ".lead", "sp ace", "ü", &"x".repeat(65)] {
        assert!(!valid_metric_name(bad), "{bad:?} accepted");
    }
    for good in ["a", "dsss.render.busy_s", "0x", "p-1_2.3"] {
        assert!(valid_metric_name(good), "{good:?} rejected");
    }
}

#[test]
fn benchmark_json_declares_what_the_runs_print() {
    let json = benchmark_json();
    assert_eq!(field(&json, "workloads", "name"), WORKLOADS);
    let end_to_end: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(field(&json, "end_to_end", "name"), end_to_end);
    let units: Vec<String> = END_TO_END.iter().map(|(_, u)| u.to_string()).collect();
    assert_eq!(field(&json, "end_to_end", "unit"), units);
    let (names, units): (Vec<String>, Vec<String>) = all_per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .unzip();
    assert_eq!(field(&json, "per_layer", "name"), names);
    assert_eq!(field(&json, "per_layer", "unit"), units);
}
