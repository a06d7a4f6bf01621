//! CI bench-regression gate: diffs freshly produced `BENCH_*_ci.json`
//! files against the committed `BENCH_*.json` baselines.
//!
//! Two checks per baseline/CI pair:
//!
//! 1. **Group coverage** — every benchmark group (the id segment before
//!    the first `/`) present in the committed baseline must still appear
//!    in the CI run. A group disappearing means a benchmark was renamed
//!    or dropped without the baseline being regenerated.
//! 2. **Fast/reference ratio** — for every `<group>/fast/<param>` id with
//!    a `<group>/reference/<param>` counterpart, the speedup
//!    `reference ÷ fast` must not collapse below the committed speedup
//!    divided by a generous slack factor. CI runs under `--test` record
//!    `ns_per_iter: 0.0`; those are coverage-checked only, with the
//!    ratio check applied to the committed baseline itself.
//!
//! A markdown summary is appended to `$GITHUB_STEP_SUMMARY` when set.
//! Exit status is non-zero on any failure, so the (non-blocking)
//! bench-smoke job surfaces regressions without gating merges.
//!
//! Usage: `bench_check [BASELINE:CI ...]` — defaults to the seven
//! committed baselines (the dsss/ecc/crypto kernels, the `sim`
//! scale-pipeline throughput, the `engine` batch-session pipeline, the
//! `wire` packed-vs-reference codec, and the `discovery` network runs
//! with the M-NDP closure against its one-sided search) paired with
//! `BENCH_<name>_ci.json`.

use std::fmt::Write as _;
use std::process::ExitCode;

/// How far a timed fast/reference speedup may fall below the committed
/// one before we call it a regression. Generous on purpose: shared CI
/// runners are noisy, and the committed kernels beat their references by
/// 4-10x, so a 3x slack still catches a vanished optimisation.
const RATIO_SLACK: f64 = 3.0;

/// One `{id, ns_per_iter}` record from a BENCH json file.
#[derive(Debug, Clone, PartialEq)]
struct Record {
    id: String,
    ns_per_iter: f64,
}

/// Minimal parser for the flat record arrays the vendored criterion shim
/// emits. Tolerates arbitrary whitespace but not nested objects — which
/// the shim never produces.
fn parse_records(text: &str) -> Vec<Record> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(idx) = rest.find("\"id\":") {
        rest = &rest[idx + 5..];
        let Some(open) = rest.find('"') else { break };
        rest = &rest[open + 1..];
        let Some(close) = rest.find('"') else { break };
        let id = rest[..close].to_string();
        rest = &rest[close + 1..];
        let Some(nidx) = rest.find("\"ns_per_iter\":") else {
            break;
        };
        rest = &rest[nidx + 14..];
        let num: String = rest
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e' || *c == '+')
            .collect();
        let Ok(ns) = num.parse::<f64>() else { break };
        out.push(Record {
            id,
            ns_per_iter: ns,
        });
    }
    out
}

/// The id's group: everything before the first `/` (whole id if none).
fn group_of(id: &str) -> &str {
    id.split('/').next().unwrap_or(id)
}

/// `reference ÷ fast` speedups for every `fast`-segment id with a
/// `reference` counterpart, keyed by the fast id. Only nonzero timings
/// participate (untimed `--test` runs record 0.0).
fn speedups(records: &[Record]) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for r in records {
        if !r.id.contains("/fast/") || r.ns_per_iter <= 0.0 {
            continue;
        }
        let ref_id = r.id.replace("/fast/", "/reference/");
        if let Some(reference) = records
            .iter()
            .find(|c| c.id == ref_id && c.ns_per_iter > 0.0)
        {
            out.push((r.id.clone(), reference.ns_per_iter / r.ns_per_iter));
        }
    }
    out
}

/// Outcome of checking one baseline/CI pair.
struct PairReport {
    baseline: String,
    failures: Vec<String>,
    notes: Vec<String>,
}

fn check_pair(baseline_path: &str, ci_path: &str) -> PairReport {
    let mut report = PairReport {
        baseline: baseline_path.to_string(),
        failures: Vec::new(),
        notes: Vec::new(),
    };
    let Ok(baseline_text) = std::fs::read_to_string(baseline_path) else {
        report.failures.push(format!(
            "baseline `{baseline_path}` is missing or unreadable"
        ));
        return report;
    };
    let baseline = parse_records(&baseline_text);
    if baseline.is_empty() {
        report
            .failures
            .push(format!("baseline `{baseline_path}` contains no records"));
        return report;
    }

    // The committed baseline must itself hold healthy fast/reference
    // ratios: a fast kernel slower than its reference means the recorded
    // optimisation evaporated.
    for (id, speedup) in speedups(&baseline) {
        if speedup < 1.0 {
            report.failures.push(format!(
                "baseline `{id}` fast path is slower than its reference ({speedup:.2}x)"
            ));
        } else {
            report
                .notes
                .push(format!("baseline `{id}`: {speedup:.1}x over reference"));
        }
    }

    let Ok(ci_text) = std::fs::read_to_string(ci_path) else {
        report.failures.push(format!(
            "CI results `{ci_path}` missing (bench did not run?)"
        ));
        return report;
    };
    let ci = parse_records(&ci_text);

    // Group coverage: every baseline group must survive into the CI run.
    for rec in &baseline {
        let g = group_of(&rec.id);
        if !ci.iter().any(|c| group_of(&c.id) == g) {
            let msg = format!("group `{g}` vanished from `{ci_path}`");
            if !report.failures.contains(&msg) {
                report.failures.push(msg);
            }
        }
    }

    // Ratio regression: only meaningful when the CI run was timed.
    let ci_speedups = speedups(&ci);
    if ci_speedups.is_empty() {
        report.notes.push(format!(
            "`{ci_path}` is untimed (--test); ratio check skipped"
        ));
    } else {
        let base_speedups = speedups(&baseline);
        for (id, ci_speedup) in &ci_speedups {
            let Some((_, committed)) = base_speedups.iter().find(|(b, _)| b == id) else {
                continue;
            };
            let floor = committed / RATIO_SLACK;
            if *ci_speedup < floor {
                report.failures.push(format!(
                    "`{id}` speedup regressed: {ci_speedup:.2}x vs committed {committed:.2}x \
                     (floor {floor:.2}x)"
                ));
            }
        }
    }
    report
}

fn markdown_summary(reports: &[PairReport]) -> String {
    let mut md = String::from("## Bench regression gate\n\n");
    for r in reports {
        let status = if r.failures.is_empty() { "✅" } else { "❌" };
        let _ = writeln!(md, "### {status} `{}`", r.baseline);
        for f in &r.failures {
            let _ = writeln!(md, "- **FAIL** {f}");
        }
        for n in &r.notes {
            let _ = writeln!(md, "- {n}");
        }
        md.push('\n');
    }
    md
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let pairs: Vec<(String, String)> = if args.is_empty() {
        [
            "dsss",
            "ecc",
            "crypto",
            "sim",
            "engine",
            "wire",
            "discovery",
        ]
        .iter()
        .map(|n| (format!("BENCH_{n}.json"), format!("BENCH_{n}_ci.json")))
        .collect()
    } else {
        args.iter()
            .map(|a| match a.split_once(':') {
                Some((b, c)) => (b.to_string(), c.to_string()),
                None => (
                    a.clone(),
                    a.strip_suffix(".json")
                        .map(|stem| format!("{stem}_ci.json"))
                        .unwrap_or_else(|| format!("{a}_ci")),
                ),
            })
            .collect()
    };

    let reports: Vec<PairReport> = pairs.iter().map(|(b, c)| check_pair(b, c)).collect();

    let mut failed = false;
    for r in &reports {
        if r.failures.is_empty() {
            println!("OK   {}", r.baseline);
        } else {
            failed = true;
            println!("FAIL {}", r.baseline);
            for f in &r.failures {
                println!("     - {f}");
            }
        }
        for n in &r.notes {
            println!("     . {n}");
        }
    }

    if let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") {
        use std::io::Write;
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
        {
            let _ = f.write_all(markdown_summary(&reports).as_bytes());
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"[
  {"id": "grp/fast/x8", "ns_per_iter": 100.0},
  {"id": "grp/reference/x8", "ns_per_iter": 800.0},
  {"id": "other/plain", "ns_per_iter": 42.5, "throughput": 1.0, "throughput_unit": "B/s"}
]"#;

    #[test]
    fn parses_shim_output() {
        let recs = parse_records(SAMPLE);
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].id, "grp/fast/x8");
        assert_eq!(recs[2].ns_per_iter, 42.5);
    }

    #[test]
    fn speedups_pair_fast_with_reference() {
        let s = speedups(&parse_records(SAMPLE));
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].0, "grp/fast/x8");
        assert!((s[0].1 - 8.0).abs() < 1e-9);
    }

    #[test]
    fn untimed_records_are_excluded_from_ratios() {
        let recs = parse_records(
            r#"[{"id": "g/fast/a", "ns_per_iter": 0.0}, {"id": "g/reference/a", "ns_per_iter": 0.0}]"#,
        );
        assert_eq!(recs.len(), 2);
        assert!(speedups(&recs).is_empty());
    }

    #[test]
    fn groups_split_on_first_slash() {
        assert_eq!(group_of("a/b/c"), "a");
        assert_eq!(group_of("plain"), "plain");
    }

    #[test]
    fn coverage_and_ratio_checks_fire() {
        let dir = std::env::temp_dir().join("bench_check_test");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let ci = dir.join("ci.json");
        std::fs::write(&base, SAMPLE).unwrap();
        // CI run lost the `other` group and the fast kernel slowed 10x.
        std::fs::write(
            &ci,
            r#"[{"id": "grp/fast/x8", "ns_per_iter": 1000.0},
                {"id": "grp/reference/x8", "ns_per_iter": 800.0}]"#,
        )
        .unwrap();
        let report = check_pair(base.to_str().unwrap(), ci.to_str().unwrap());
        assert_eq!(report.failures.len(), 2, "{:?}", report.failures);
        assert!(report.failures[0].contains("vanished"));
        assert!(report.failures[1].contains("regressed"));
        // An untimed CI file with full coverage passes.
        std::fs::write(
            &ci,
            r#"[{"id": "grp/fast/x8", "ns_per_iter": 0.0},
                {"id": "grp/reference/x8", "ns_per_iter": 0.0},
                {"id": "other/plain", "ns_per_iter": 0.0}]"#,
        )
        .unwrap();
        let report = check_pair(base.to_str().unwrap(), ci.to_str().unwrap());
        assert!(report.failures.is_empty(), "{:?}", report.failures);
    }
}
