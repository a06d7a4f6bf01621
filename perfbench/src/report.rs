//! Metric names, the result line, and the small statistics the runs use.

/// The end-to-end metrics every untraced run prints: `(name, unit)`.
///
/// Every workload prints all six. The two throughput names are one
/// measurement: a chip-level session is one node pair of the deployment,
/// and a network pair runs one D-NDP session, so on every workload
/// `sessions_per_s == pairs_per_s`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("sessions_per_s", "1/s"),
    ("pairs_per_s", "1/s"),
    ("p_discovered", "ratio"),
    ("t_discovery_s", "s_sim"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Layers of the chip-level path, reported per session class.
pub const CHIP_LAYERS: [&str; 6] = [
    "dsss.render",
    "dsss.scan",
    "dsss.despread",
    "ecc",
    "crypto",
    "handshake",
];

/// The per-layer metrics a traced run of `workload` prints:
/// `(name, unit)`. The runner merges all three workloads' traced runs,
/// so every traced run prints the whole list.
pub fn per_layer(workload: &str) -> Vec<(String, &'static str)> {
    let fixed = |names: &[(&str, &'static str)]| -> Vec<(String, &'static str)> {
        names.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    match workload {
        "engine-mixed" => {
            let mut v: Vec<(String, &'static str)> = CHIP_LAYERS
                .iter()
                .map(|l| (format!("{l}.busy_s"), "s"))
                .collect();
            v.extend(fixed(&[
                ("dsss.render.chips", "count"),
                ("dsss.scan.correlations", "count"),
                ("dsss.sync.useful_ratio", "ratio"),
                ("ecc.blocks", "count"),
                ("ecc.frame_fail_ratio", "ratio"),
                ("crypto.blocks_compressed", "count"),
                ("crypto.cache_hit_ratio", "ratio"),
                ("handshake.frames", "count"),
                ("engine.self_s", "s"),
                ("engine.ns_per_handshake", "ns"),
                ("engine.attempts_per_session", "ratio"),
                ("engine.speedup_vs_sequential", "ratio"),
                ("engine.predist.busy_s", "s"),
            ]));
            for class in crate::scenario::SessionClass::ALL {
                let c = class.label();
                v.push((format!("engine.{c}.busy_s"), "s"));
                for l in CHIP_LAYERS {
                    v.push((format!("engine.{c}.{l}.busy_s"), "s"));
                }
            }
            v.extend(fixed(&[
                ("engine.trace.wall_s", "s"),
                ("engine.trace.overhead_s", "s"),
                ("engine.call.wall_s", "s"),
            ]));
            v
        }
        "montecarlo-fig5a" => fixed(&[
            ("predist.busy_s", "s"),
            ("dndp.busy_s", "s"),
            ("dndp.pairs", "count"),
            ("dndp.discovery_ratio", "ratio"),
            ("mndp.capability.busy_s", "s"),
            ("mndp.closure.busy_s", "s"),
            ("mndp.bfs_calls", "count"),
            ("mndp.epochs", "count"),
            ("montecarlo.topology.busy_s", "s"),
            ("montecarlo.self_s", "s"),
            ("montecarlo.trace.wall_s", "s"),
            ("montecarlo.trace.overhead_s", "s"),
            ("montecarlo.call.wall_s", "s"),
        ]),
        "scale-20k" => fixed(&[
            ("sim.topology.busy_s", "s"),
            ("scale.predist.busy_s", "s"),
            ("sim.wheel.busy_s", "s"),
            ("scale.dndp.pair_busy_s", "s"),
            ("scale.dndp.busy_s", "s"),
            ("sim.wheel.events", "count"),
            ("scale.closure.busy_s", "s"),
            ("scale.self_s", "s"),
            ("scale.trace.wall_s", "s"),
            ("scale.trace.overhead_s", "s"),
            ("scale.call.wall_s", "s"),
        ]),
        _ => Vec::new(),
    }
}

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`, at most 64
/// characters, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The run's verdict plus its metrics, rendered as the final JSON line.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Operations whose outcome check failed, or that panicked.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// `correct` is true only if something was checked and nothing
    /// failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The single-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Shortest round-trip decimal for finite values; `null` otherwise.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Median of a non-empty sample (mean of the middle two when even).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Command-line options shared by the workload and trace binaries.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed phase in seconds.
    pub seconds: f64,
    /// Where a traced run writes its spans, if anywhere.
    pub spans: Option<std::path::PathBuf>,
}

impl Options {
    /// Parses `--workload <name> --seed <n> --seconds <s> [--spans <path>]`;
    /// unknown flags are an error.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0f64;
        let mut spans = None;
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                }
                "--spans" => spans = Some(value.into()),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !crate::scenario::WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}"));
        }
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err("--seconds must be positive".into());
        }
        Ok(Options {
            workload,
            seed,
            seconds,
            spans,
        })
    }
}
