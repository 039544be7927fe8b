//! Micro-benchmarks of the substrate itself: simulator throughput on
//! stall-bound and compute-bound kernels, code-generation latency, and
//! the functional ACE verifier. Each row is one warm-up run (discarded)
//! followed by `samples` timed runs, reported as mean and min wall time.

use std::hint::black_box;
use std::time::{Duration, Instant};

use avf_codegen::{dead_fraction, generate, Knobs, TargetParams};
use avf_sim::{simulate, MachineConfig};

/// Times `f` and prints one `group/id: mean … min …` row, plus the
/// element rate when `elements` counts the work of one run.
fn bench<O>(group: &str, id: &str, samples: u32, elements: Option<u64>, mut f: impl FnMut() -> O) {
    black_box(f());
    let times: Vec<Duration> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed()
        })
        .collect();
    let mean = times.iter().sum::<Duration>() / samples;
    let min = times.iter().min().copied().unwrap_or_default();
    print!("{group}/{id}: mean {mean:?}  min {min:?}  ({samples} samples)");
    if let Some(e) = elements {
        print!("  {:.0} elem/s", e as f64 / mean.as_secs_f64().max(1e-12));
    }
    println!();
}

fn main() {
    let machine = MachineConfig::baseline();
    let params = TargetParams::baseline();
    let miss_bound = generate(&Knobs::paper_baseline(), &params);
    let mut hit_knobs = Knobs::paper_baseline();
    hit_knobs.l2_mode = avf_codegen::L2Mode::Hit;
    let compute_bound = generate(&hit_knobs, &params);
    let workload = avf_workloads::by_name("403.gcc")
        .expect("gcc proxy")
        .build();

    println!("== bench group: simulator ==");
    let instructions = 50_000u64;
    for (id, program) in [
        ("stall_bound_stressmark", &miss_bound.program),
        ("compute_bound_stressmark", &compute_bound.program),
        ("workload_gcc_proxy", &workload),
    ] {
        bench("simulator", id, 10, Some(instructions), || {
            simulate(&machine, program, instructions)
        });
    }

    println!("== bench group: codegen ==");
    bench("codegen", "generate_stressmark_program", 20, None, || {
        generate(&Knobs::paper_baseline(), &params)
    });
    bench("codegen", "functional_ace_verify_10k", 20, None, || {
        dead_fraction(&miss_bound.program, 10_000)
    });
}
