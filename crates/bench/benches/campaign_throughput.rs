//! Scaling benchmark for the fault-injection campaign driver.
//!
//! Part 1 runs the same deterministic fixed-size campaign at 1, 2, and
//! 4 worker threads (plus all available cores), reporting wall-clock
//! speedup and verifying that the per-structure outcome tallies are
//! identical at every thread count — sharding must never change the
//! measurement. On a multi-core host the 4-thread run demonstrates the
//! 2×+ speedup of the embarrassingly parallel sweep; on a single
//! hardware thread the runs serialize and the speedup column reads ~1×.
//!
//! Part 2 measures the adaptive sequential-sampling engine: an adaptive
//! campaign runs to a CI target, then a fixed round-robin campaign of
//! the *same* total size shows how far from that precision an even
//! split lands — the trials-to-verdict gap the CI-driven allocator
//! closes.
//!
//! Perf note (PR 3): fault-mode pipelines skip the per-cycle
//! ROB/IQ/LQ/SQ occupancy sums (injection trials never read them). On
//! a single-CPU host the inj/s delta measured here is within the ±5%
//! run-to-run noise floor (medians 889 → 872 inj/s over 3×800-trial
//! runs) — the four adds were the only per-cycle stat work left in
//! trial workers, so the cut is kept for the principle and for wider
//! machines where memory traffic matters more.

use std::time::Instant;

use avf_codegen::{generate, Knobs, TargetParams};
use avf_inject::{Campaign, CampaignConfig, StopReason};
use avf_sim::MachineConfig;

fn main() {
    // Checked before any campaign runs: a bad value fails in
    // milliseconds, not after the whole benchmark.
    let pr = bench_pr();
    let machine = MachineConfig::baseline();
    let stressmark = generate(&Knobs::paper_baseline(), &TargetParams::baseline());

    let (injections, instr_budget, ci_target) =
        match std::env::var("AVF_EXPERIMENT_SCALE").as_deref() {
            Ok("smoke") => (160, 6_000, 0.15),
            Ok("full") => (4_000, 30_000, 0.05),
            _ => (800, 12_000, 0.10),
        };

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut thread_counts = vec![1, 2, 4];
    if !thread_counts.contains(&cores) {
        thread_counts.push(cores);
    }

    println!(
        "campaign_throughput: {injections} injections on `{}`, {instr_budget} instr budget, \
         {cores} core(s) available",
        stressmark.program.name()
    );
    println!(
        "{:>8} {:>10} {:>10} {:>9}",
        "threads", "wall (s)", "inj/s", "speedup"
    );

    let mut baseline_wall = None;
    let mut baseline_counts = None;
    for threads in thread_counts {
        let config = CampaignConfig {
            injections,
            seed: 42,
            threads,
            instr_budget,
            ..CampaignConfig::default()
        };
        let start = Instant::now();
        let report = Campaign::new(&machine, &stressmark.program, config).run();
        let wall = start.elapsed().as_secs_f64();

        let counts: Vec<_> = report
            .targets
            .iter()
            .map(|t| (t.target, t.counts))
            .collect();
        match &baseline_counts {
            None => baseline_counts = Some(counts),
            Some(reference) => assert_eq!(
                reference, &counts,
                "campaign outcome must be independent of thread count"
            ),
        }

        let speedup = baseline_wall.get_or_insert(wall).max(1e-9) / wall.max(1e-9);
        println!(
            "{threads:>8} {wall:>10.2} {:>10.0} {speedup:>8.2}x",
            injections as f64 / wall.max(1e-9)
        );
    }
    println!("outcome tallies identical across all thread counts ✓");

    // ---- adaptive sequential sampling vs the fixed round-robin plan ----
    let adaptive_config = CampaignConfig {
        injections: injections * 8, // generous cap; sampling stops itself
        seed: 42,
        threads: 0,
        instr_budget,
        ci_target: Some(ci_target),
        ..CampaignConfig::default()
    };
    let start = Instant::now();
    let adaptive = Campaign::new(&machine, &stressmark.program, adaptive_config).run();
    let adaptive_wall = start.elapsed().as_secs_f64();

    println!(
        "\nadaptive campaign to CI target ±{ci_target}: {} trials in {} batch(es), \
         stop: {} ({:.2} s, {} checkpoint(s))",
        adaptive.injections,
        adaptive.batches.len(),
        adaptive.stop.name(),
        adaptive_wall,
        adaptive.checkpoints
    );
    for b in &adaptive.batches {
        println!(
            "  batch {:>3}: {:>5} trials ({:>6} total), widest CI ±{:.4} ({})",
            b.batch, b.trials, b.cumulative, b.max_half_width, b.widest
        );
    }

    let fixed = Campaign::new(
        &machine,
        &stressmark.program,
        CampaignConfig {
            injections: adaptive.injections,
            seed: 42,
            threads: 0,
            instr_budget,
            ..CampaignConfig::default()
        },
    )
    .run();
    let fixed_max = fixed
        .targets
        .iter()
        .map(|t| t.counts.half_width95())
        .fold(0.0f64, f64::max);
    println!(
        "fixed round-robin at the same {} trials: widest CI ±{fixed_max:.4} \
         (target ±{ci_target}) — {}",
        fixed.injections,
        if adaptive.stop != StopReason::CiTarget {
            "adaptive hit its trial cap before converging; raise the cap to compare"
        } else if fixed_max > ci_target {
            "adaptive reaches the precision target with fewer trials ✓"
        } else {
            "fixed plan matched the target here"
        }
    );

    write_bench_json(pr, &machine, &stressmark.program, injections, instr_budget);
}

/// PR number stamped into the perf-trajectory artifact when
/// `AVF_BENCH_PR` is unset. `scripts/ci/bench_delta.sh` is the single
/// authority in CI (it exports `AVF_BENCH_PR`); this fallback only
/// serves ad-hoc local runs, so a stale value here cannot break the
/// pipeline.
const BENCH_PR_FALLBACK: u64 = 10;

/// The PR number for the artifact: `AVF_BENCH_PR` if set, which must be
/// an integer (it is written into the JSON unquoted), else the
/// fallback. Exits non-zero naming the variable on a bad value.
fn bench_pr() -> u64 {
    let Ok(value) = std::env::var("AVF_BENCH_PR") else {
        return BENCH_PR_FALLBACK;
    };
    value.trim().parse().unwrap_or_else(|_| {
        eprintln!("error: AVF_BENCH_PR must be an integer PR number, got `{value}`");
        std::process::exit(2);
    })
}

/// Inj/s of three identical fixed campaigns under `model`, sorted
/// ascending (the caller reads the median at index 1 and records the
/// full spread in the artifact).
fn sorted_rates(
    machine: &MachineConfig,
    program: &avf_isa::Program,
    injections: u64,
    instr_budget: u64,
    model: avf_inject::FaultModel,
) -> [f64; 3] {
    let mut rates = Vec::with_capacity(3);
    for _ in 0..3 {
        let config = CampaignConfig {
            injections,
            seed: 42,
            threads: 0,
            instr_budget,
            fault_model: model,
            ..CampaignConfig::default()
        };
        let start = Instant::now();
        let report = Campaign::new(machine, program, config).run();
        rates.push(report.injections as f64 / start.elapsed().as_secs_f64().max(1e-9));
    }
    rates.sort_by(f64::total_cmp);
    rates.try_into().expect("three runs")
}

/// Inj/s of three identical fixed campaigns routed through an
/// in-process broker fronting two loopback workers, sorted ascending.
/// Every frame crosses two real TCP hops (driver → broker → worker),
/// so this series prices the whole brokered path: MUX wrapping, the
/// scheduler grant, and the relay copy. Delegated golden only — the
/// brokered plane does not ship checkpoint stores.
fn brokered_rates(
    machine: &MachineConfig,
    program: &avf_isa::Program,
    injections: u64,
    instr_budget: u64,
) -> [f64; 3] {
    use avf_broker::{Broker, BrokerOptions, BrokeredBackend};
    use avf_service::{spawn_local, ServeOptions};

    let workers: Vec<String> = (0..2)
        .map(|_| {
            spawn_local(ServeOptions {
                threads: 1,
                ..ServeOptions::default()
            })
            .expect("spawn bench worker")
            .to_string()
        })
        .collect();
    let store = std::env::temp_dir().join(format!(
        "avf-bench-broker-{}-campaigns.log",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&store);
    let broker = Broker::start(BrokerOptions {
        workers,
        store_path: store.clone(),
        ..BrokerOptions::default()
    })
    .expect("start bench broker");
    let addr = broker.spawn_local().expect("broker listener").to_string();
    let backend = BrokeredBackend::connect(&addr, "bench", None).expect("connect");

    let mut rates = Vec::with_capacity(3);
    for _ in 0..3 {
        let config = CampaignConfig {
            injections,
            seed: 42,
            threads: 1,
            instr_budget,
            golden_mode: avf_inject::GoldenMode::Worker,
            ..CampaignConfig::default()
        };
        let start = Instant::now();
        let report = Campaign::new(machine, program, config)
            .run_on(&backend)
            .expect("brokered bench campaign");
        rates.push(report.injections as f64 / start.elapsed().as_secs_f64().max(1e-9));
    }
    let _ = std::fs::remove_file(&store);
    rates.sort_by(f64::total_cmp);
    rates.try_into().expect("three runs")
}

/// Generations/s of three identical fixed-seed GA searches on the
/// local evaluator, sorted ascending. The search hot path is candidate
/// scoring — codegen + simulate per distinct genome, memoized for
/// elites — so this series prices the whole `search` loop the
/// distributed backends must keep up with.
fn search_rates(machine: &MachineConfig, instr_budget: u64) -> [f64; 3] {
    use avf_ace::FaultRates;
    use avf_ga::GaParams;
    use avf_stressmark::{generate_stressmark, Fitness, SearchConfig};

    let mut config = SearchConfig::quick(machine.clone(), Fitness::overall(FaultRates::baseline()));
    config.ga = GaParams {
        population: 8,
        generations: 6,
        ..GaParams::quick()
    };
    config.eval_instructions = instr_budget;
    config.final_instructions = instr_budget;

    let mut rates = Vec::with_capacity(3);
    for _ in 0..3 {
        let start = Instant::now();
        let outcome = generate_stressmark(&config).expect("local search cannot fail");
        let gens = outcome.ga.history.len() as f64;
        rates.push(gens / start.elapsed().as_secs_f64().max(1e-9));
    }
    rates.sort_by(f64::total_cmp);
    rates.try_into().expect("three runs")
}

/// Emits `BENCH_pr<N>.json` (path overridable via `AVF_BENCH_JSON`):
/// the median inj/s of three identical fixed campaigns, the per-PR
/// perf-trajectory artifact CI uploads and diffs against the committed
/// history in `bench-results/`. The primary `median` series runs the
/// trap fault model — directly comparable with the pre-replay history —
/// a second `replay_median` series tracks the replay oracle's
/// throughput (its hot path adds field decode + the in-flight walk, so
/// regressions there must be visible per PR too), and a third
/// `brokered_median` series runs the same trap campaign through an
/// in-process broker fronting two loopback workers, pricing the
/// relay/auth/scheduling overhead of the brokered path per PR. A
/// fourth `search_gen_per_s` series times the GA search loop itself
/// (generations/s on the local evaluator) so stressmark-search
/// regressions are visible independently of campaign throughput.
fn write_bench_json(
    pr: u64,
    machine: &MachineConfig,
    program: &avf_isa::Program,
    injections: u64,
    instr_budget: u64,
) {
    use avf_inject::FaultModel;
    let rates = sorted_rates(machine, program, injections, instr_budget, FaultModel::Trap);
    let replay = sorted_rates(
        machine,
        program,
        injections,
        instr_budget,
        FaultModel::Replay,
    );
    let brokered = brokered_rates(machine, program, injections, instr_budget);
    let search = search_rates(machine, instr_budget);
    let median = rates[1];
    let replay_median = replay[1];
    let brokered_median = brokered[1];
    let search_median = search[1];
    let scale = std::env::var("AVF_EXPERIMENT_SCALE").unwrap_or_else(|_| "standard".to_owned());
    let path = std::env::var("AVF_BENCH_JSON").unwrap_or_else(|_| format!("BENCH_pr{pr}.json"));
    // Hand-rolled JSON (the workspace is offline; no serde). One field
    // per line on purpose: the CI delta script extracts fields with
    // grep/sed.
    let json = format!(
        "{{\n  \"pr\": {pr},\n  \"bench\": \"campaign_throughput\",\n  \
         \"metric\": \"inj_per_s\",\n  \"scale\": \"{scale}\",\n  \
         \"injections\": {injections},\n  \"instr_budget\": {instr_budget},\n  \
         \"runs\": [{:.1}, {:.1}, {:.1}],\n  \"median\": {median:.1},\n  \
         \"replay_runs\": [{:.1}, {:.1}, {:.1}],\n  \"replay_median\": {replay_median:.1},\n  \
         \"brokered_runs\": [{:.1}, {:.1}, {:.1}],\n  \
         \"brokered_median\": {brokered_median:.1},\n  \
         \"search_runs\": [{:.2}, {:.2}, {:.2}],\n  \
         \"search_gen_per_s\": {search_median:.2}\n}}\n",
        rates[0],
        rates[1],
        rates[2],
        replay[0],
        replay[1],
        replay[2],
        brokered[0],
        brokered[1],
        brokered[2],
        search[0],
        search[1],
        search[2],
    );
    match std::fs::write(&path, json) {
        Ok(()) => println!(
            "\nperf artifact {path}: median {median:.0} inj/s (trap), \
             {replay_median:.0} inj/s (replay), {brokered_median:.0} inj/s \
             (brokered), {search_median:.2} gen/s (search) over 3 fixed runs \
             each ({injections} inj, {scale} scale)"
        ),
        Err(e) => eprintln!("WARNING: could not write {path}: {e}"),
    }
}
