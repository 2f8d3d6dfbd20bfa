//! Tiny-size runs of every workload: each completes correctly, prints
//! every metric of its mode with its unit in a result line that
//! `mssg_obs::json::parse` accepts, and a planted wrong answer trips the
//! correctness gate.

use mssg_obs::json::{self, Value};
use mssg_perfbench::report::{self, END_TO_END, PER_LAYER};
use mssg_perfbench::{run, RunConfig, RunOutput, Sizes, Workload};
use std::path::PathBuf;

fn config(workload: Workload, trace: bool, tag: &str) -> RunConfig {
    RunConfig {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        sizes: Sizes::tiny(),
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "tiny-{}-{tag}-{}",
            workload.name(),
            u8::from(trace)
        )),
        plant_wrong_answer: false,
    }
}

fn result_line(out: &RunOutput, names: &[(&str, &str)]) -> Value {
    let line = report::result_json(
        out.correct(),
        out.attempted,
        out.failed,
        names,
        &out.metrics,
    );
    json::parse(&line).expect("result line parses")
}

fn metric(v: &Value, name: &str) -> f64 {
    v.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn every_workload_runs_and_prints_every_metric() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let out = run(&config(workload, trace, "all"));
            assert!(
                out.correct(),
                "{} trace={trace}: {:?}",
                workload.name(),
                out.failures
            );
            let names = if trace { PER_LAYER } else { END_TO_END };
            let v = result_line(&out, names);
            assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
            let metrics = v.get("metrics").unwrap();
            for (name, unit) in names {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{name} missing"));
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit));
                assert!(m.get("value").and_then(Value::as_f64).is_some());
            }
            if trace {
                assert!(metric(&v, "trace.spans") > 0.0, "{}", workload.name());
                assert!(!out.spans.is_empty());
            } else {
                for (name, _) in END_TO_END {
                    assert!(metric(&v, name) > 0.0, "{} {name} is 0", workload.name());
                }
            }
        }
    }
}

#[test]
fn traced_runs_measure_the_layers_each_workload_exercises() {
    let layer = |w: Workload| result_line(&run(&config(w, true, "layers")), PER_LAYER);
    let bulk = layer(Workload::IngestBulk);
    for name in [
        "simio.block_writes",
        "simio.write_amp",
        "ingest.store_busy_ms",
        "ingest.windows",
    ] {
        assert!(metric(&bulk, name) > 0.0, "ingest-bulk {name}");
    }
    assert_eq!(metric(&bulk, "bfs.rounds"), 0.0, "ingest-bulk runs no BFS");
    let chain = layer(Workload::QueryChain);
    for name in [
        "bfs.rounds",
        "bfs.setup_ms",
        "dc.remote_msgs",
        "serve.exec_ms.mean",
    ] {
        assert!(metric(&chain, name) > 0.0, "query-chain {name}");
    }
    assert_eq!(
        metric(&chain, "serve.cache_hit_ratio"),
        0.0,
        "chain queries are distinct"
    );
    let mixed = layer(Workload::MixedIngestQuery);
    assert!(metric(&mixed, "serve.cache_invalidations") > 0.0);
}

#[test]
fn a_planted_wrong_answer_trips_the_gate() {
    for workload in Workload::ALL {
        let mut cfg = config(workload, false, "planted");
        cfg.plant_wrong_answer = true;
        cfg.sizes.max_reps = cfg.sizes.min_reps;
        let out = run(&cfg);
        assert!(
            !out.correct(),
            "{} passed with a planted wrong answer",
            workload.name()
        );
        assert!(out.failed >= 1);
        let v = result_line(&out, END_TO_END);
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
    }
}

#[test]
fn benchmark_json_lists_the_metrics_the_code_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec = json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let own = |names: &[(&str, &str)]| -> Vec<(String, String)> {
        names
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(END_TO_END));
    assert_eq!(listed("per_layer"), own(PER_LAYER));
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    let ours: Vec<&str> = Workload::BENCHMARKED.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}
