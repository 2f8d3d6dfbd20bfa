//! Metric names, the host block, and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the benchmark's metric contract:
//! `BENCHMARK.json` lists the same names and units (a test keeps them in
//! step), and every workload prints every name of the set its mode
//! selects.

use std::collections::BTreeMap;

/// End-to-end metrics, printed with `--trace 0`: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ingest_edges_per_s", "edges/s"),
    ("query_qps", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("disk_bytes_per_edge", "B/edge"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.queue_wait_ms.mean", "ms"),
    ("serve.exec_ms.mean", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_invalidations", "count"),
    ("serve.rejected", "count"),
    ("epoch.update_wait_ms", "ms"),
    ("epoch.pin_us", "us"),
    ("query.bfs_ms.p50", "ms"),
    ("query.khop_ms.p50", "ms"),
    ("query.degree_ms.p50", "ms"),
    ("bfs.setup_ms", "ms"),
    ("bfs.barrier_wait_ms", "ms"),
    ("bfs.busy_ms", "ms"),
    ("bfs.rounds", "count"),
    ("bfs.edges_scanned", "count"),
    ("dc.remote_msgs", "count"),
    ("dc.remote_bytes", "B"),
    ("ingest.store_busy_ms", "ms"),
    ("ingest.store_wait_ms", "ms"),
    ("ingest.frontend_busy_ms", "ms"),
    ("ingest.windows", "count"),
    ("grdb.cache_hit_ratio", "ratio"),
    ("grdb.cache_evictions", "count"),
    ("simio.block_reads", "count"),
    ("simio.block_writes", "count"),
    ("simio.bytes_written", "B"),
    ("simio.write_amp", "ratio"),
    ("simio.syncs", "count"),
    ("simio.block_reads_per_query", "count"),
    ("self_ms.bench", "ms"),
    ("self_ms.graphgen", "ms"),
    ("self_ms.core", "ms"),
    ("self_ms.ingest", "ms"),
    ("self_ms.serve", "ms"),
    ("self_ms.epoch", "ms"),
    ("self_ms.query", "ms"),
    ("self_ms.bfs", "ms"),
    ("self_ms.grdb", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
    ("det.mismatches", "count"),
];

/// The unit of metric `name`, from either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// One measured value with the number of timed samples behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    /// The value in the metric's unit.
    pub value: f64,
    /// Timed samples the value summarises (1 for a count).
    pub samples: usize,
}

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, Measured>;

/// The machine and build a result was measured on.
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// `git rev-parse HEAD` when run from a git checkout, else `unknown`.
    pub commit: String,
    /// `rustc --version`, else `unknown`.
    pub rustc: String,
}

impl Host {
    /// Probes the current process and working directory.
    pub fn probe() -> Host {
        let run = |cmd: &str, args: &[&str]| {
            std::process::Command::new(cmd)
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .unwrap_or_else(|| "unknown".to_string())
        };
        // Only ask git inside a checkout of its own: outside one, git
        // would report whatever repository encloses the directory.
        let commit = if std::path::Path::new(".git").exists() {
            run("git", &["rev-parse", "HEAD"])
        } else {
            "unknown".to_string()
        };
        Host {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            commit,
            rustc: run(
                &std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()),
                &["--version"],
            ),
        }
    }

    /// The host block as one JSON object.
    pub fn json(&self, workload: &str, seed: u64, trace: bool) -> String {
        use mssg_obs::json::escape;
        format!(
            "{{\"host\":{{\"cores\":{},\"profile\":{},\"commit\":{},\"rustc\":{},\
             \"workload\":{},\"seed\":{},\"trace\":{}}}}}",
            self.cores,
            escape(self.profile),
            escape(&self.commit),
            escape(&self.rustc),
            escape(workload),
            seed,
            u8::from(trace)
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; non-finite values (which no metric should produce) become 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the last holding every name of `names` with its unit.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[(&str, &str)],
    metrics: &Metrics,
) -> String {
    let body: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = metrics.get(name).map_or(0.0, |m| m.value);
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                mssg_obs::json::escape(name),
                number(value),
                mssg_obs::json::escape(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
        }
        assert_eq!(unit_of("setup_s"), Some("s"));
    }

    #[test]
    fn result_line_parses_and_fills_missing_metrics_with_zero() {
        let mut m = Metrics::new();
        m.insert(
            "setup_s",
            Measured {
                value: 0.8127,
                samples: 3,
            },
        );
        let line = result_json(true, 10, 0, END_TO_END, &m);
        let v = mssg_obs::json::parse(&line).unwrap();
        let metrics = v.get("metrics").unwrap();
        assert_eq!(
            metrics
                .get("setup_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.8127)
        );
        assert_eq!(
            metrics
                .get("peak_rss_mb")
                .unwrap()
                .get("unit")
                .unwrap()
                .as_str(),
            Some("MB")
        );
        let host = Host::probe().json("query-chain", 7, false);
        assert!(mssg_obs::json::parse(&host).is_ok());
    }
}
