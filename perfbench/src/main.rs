//! `mssg-perfbench` command line.
//!
//! ```text
//! mssg-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the host block, one line per metric, and, as the last line of
//! standard output, the result object `{"correct", "attempted",
//! "failed", "metrics"}`. Exits 1 when any operation failed or answered
//! wrongly, 2 on bad arguments.

use mssg_perfbench::report::{self, Host};
use mssg_perfbench::{run, RunConfig, Sizes, Workload};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: mssg-perfbench --workload <ingest-bulk|query-scalefree|query-chain|\
mixed-ingest-query> --seed <n> --seconds <s> --trace <0|1>";

/// Scratch directory, relative to the working directory: cluster data
/// (removed as the run ends) and the trace of a traced run.
const OUT_DIR: &str = ".bench_out";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let seed = seed.ok_or("missing --seed")?;
    let cfg = RunConfig {
        workload,
        seed,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        sizes: Sizes::full(),
        work_dir: Path::new(OUT_DIR).join(format!(
            "work-{}-{}",
            workload.name(),
            std::process::id()
        )),
        plant_wrong_answer: false,
    };
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{}",
        Host::probe().json(cfg.workload.name(), cfg.seed, cfg.trace)
    );
    let result = run(&cfg);
    let names = if cfg.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    for (name, unit) in names {
        if let Some(m) = result.metrics.get(name) {
            println!(
                "metric {name} = {} {unit} (samples: {})",
                m.value, m.samples
            );
        }
    }
    println!(
        "failed_frac = {} ({} of {} operations)",
        result.failed as f64 / result.attempted.max(1) as f64,
        result.failed,
        result.attempted
    );
    for f in &result.failures {
        eprintln!("FAILED: {f}");
    }
    if cfg.trace {
        let path = Path::new(OUT_DIR).join(format!(
            "trace-{}-seed{}.json",
            cfg.workload.name(),
            cfg.seed
        ));
        let spans = mssg_perfbench::trace::chrome_trace_json(&result.spans);
        match std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, spans)) {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    println!(
        "{}",
        report::result_json(
            result.correct(),
            result.attempted,
            result.failed,
            names,
            &result.metrics
        )
    );
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
