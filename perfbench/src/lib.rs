//! # avf-perfbench
//!
//! The repository's benchmark: the campaign loop and the search loop,
//! end to end and layer by layer, on four named workloads. README.md
//! documents the workloads, the metrics and which layer metric should
//! move which end-to-end metric.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod stats;
pub mod summary;
pub mod traced;
pub mod untraced;
pub mod venue;
pub mod workload;

use std::path::Path;

use json::Json;
use metrics::RunResult;
use workload::{Sizes, Workload};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Workload seed: campaign and GA seeds derive from it.
    pub seed: u64,
    /// Seconds a run measures for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Workload sizes.
    pub sizes: Sizes,
}

/// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`
/// (and `--scale full|smoke`, default full).
///
/// # Errors
///
/// Describes the first unknown, missing or malformed argument.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut sizes = Sizes::full();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} out of range (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--scale" => {
                sizes = match value {
                    "full" => Sizes::full(),
                    "smoke" => Sizes::smoke(),
                    _ => return Err(format!("--scale takes full or smoke, not {value:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        sizes,
    })
}

/// Runs one benchmark run. `scratch` is a private directory inside the
/// checkout for the broker's durable log.
#[must_use]
pub fn run(args: &Args, scratch: &Path) -> RunResult {
    let mut res = if args.trace {
        traced::run(args.workload, &args.sizes, args.seed, args.seconds, scratch)
    } else {
        untraced::run(args.workload, &args.sizes, args.seed, args.seconds, scratch)
    };
    res.finish(if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    });
    res
}

/// Where and on what the run was measured.
#[must_use]
pub fn provenance(args: &Args) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let venue = match args.workload {
        Workload::BrokeredStressmark => "set-up opens a cold venue; the loop runs on a warm one",
        Workload::Search => "one-thread local evaluator, started per search",
        _ => "one-thread local backend, opened cold per campaign",
    };
    Json::obj([
        ("workload", Json::str(args.workload.name())),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::Int(nproc)),
        ("cpu", Json::str(cpu)),
        ("rustc", Json::str(env!("PERFBENCH_RUSTC_VERSION"))),
        ("commit", Json::str(commit())),
        ("venue", Json::str(venue)),
        ("sizes", args.sizes.to_json(args.workload)),
    ])
}

/// The commit under test: `PERFBENCH_COMMIT`, else the checkout's own
/// `.git` (read as files, never searching above the checkout), else
/// `unknown`.
fn commit() -> String {
    if let Ok(c) = std::env::var("PERFBENCH_COMMIT") {
        return c;
    }
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r)).unwrap_or_default(),
        None => head.to_owned(),
    };
    let id = id.trim();
    if id.is_empty() {
        "unknown".to_owned()
    } else {
        id.to_owned()
    }
}
