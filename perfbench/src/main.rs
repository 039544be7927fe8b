//! `avf-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a provenance line, a fingerprint line, one line per metric,
//! one line per sampled timing's sample count, any failed check, and
//! last a one-line JSON result. Exits 1 when an output check failed, 2
//! on a bad command line.

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match avf_perfbench::parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // Scratch space for the broker's durable log, inside the checkout.
    let scratch = std::path::PathBuf::from(".perfbench-tmp").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("error: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    println!("provenance {}", avf_perfbench::provenance(&args));
    let res = avf_perfbench::run(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".perfbench-tmp");

    println!(
        "fingerprint {}",
        avf_perfbench::json::Json::Obj(res.fingerprint.clone())
    );
    for &(name, value) in &res.metrics {
        let unit = avf_perfbench::metrics::lookup(name).map_or("", |d| d.unit);
        println!("metric {name} {value} {unit}");
    }
    for &(name, n) in &res.samples {
        println!("samples {name} {n}");
    }
    for failure in &res.failures {
        println!("check FAILED: {failure}");
    }
    println!("{}", res.result_line());
    if res.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
