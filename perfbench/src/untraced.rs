//! Untraced runs: the end-to-end metrics.
//!
//! A run first times set-up (`setup_s`), then cycles through the
//! workload's sub-seeds while the next unit is expected to end within
//! `--seconds`, at least one full pass. Every unit is a closed loop —
//! the campaign driver submits its next batch, and the GA its next
//! generation, only after the previous one has drained. A sub-seed's
//! time is the median over its passes (which rejects a pass the host
//! slowed down); the metrics then add up the sub-seeds (which averages
//! out one seed's luck: how many batches its adaptive campaign needs,
//! which genomes its search breeds).

use std::path::Path;
use std::time::{Duration, Instant};

use avf_codegen::GENOME_LEN;
use avf_ga::{FitnessEvaluator, LocalEvaluator};
use avf_inject::{BackendError, Campaign, CampaignBackend, JobSpec, LocalBackend, StopReason};
use avf_service::{evaluate_genome, EvalContext};
use avf_sim::simulate;
use avf_stressmark::generate_stressmark;

use crate::json::Json;
use crate::metrics::RunResult;
use crate::stats::{timed, Samples};
use crate::summary::{ace_stats_json, checked, CampaignSummary, SearchSummary};
use crate::venue::BrokerVenue;
use crate::workload::{self, search_config, sub_seed, Sizes, Workload};

/// Runs workload `w` untraced for about `seconds`.
pub fn run(w: Workload, sizes: &Sizes, seed: u64, seconds: f64, scratch: &Path) -> RunResult {
    let mut res = RunResult::default();
    match w {
        Workload::Search => search(sizes, seed, seconds, &mut res),
        _ => campaigns(w, sizes, seed, seconds, scratch, &mut res),
    }
    res
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unknown.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the peak resident set to the current one, so that
/// [`peak_rss_mb`] reads the peak from now on. Where the kernel does
/// not allow it, the peak stays the one since the process started.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// What [`cycle_units`] measured.
#[derive(Debug, Default)]
pub(crate) struct Cycled {
    /// Each sub-seed's wall times, one per pass.
    pub walls: Vec<Samples>,
    /// Each unit's peak resident set in MiB, from its start to its end.
    pub peak_mb: Samples,
}

/// Cycles through `units` sub-seeds, calling `unit(k)` (which returns
/// its wall time, or `None` when it failed) until every sub-seed ran
/// once and the next unit, at its median time so far, would end after
/// `seconds`.
pub(crate) fn cycle_units(
    units: usize,
    seconds: f64,
    mut unit: impl FnMut(usize) -> Option<f64>,
) -> Cycled {
    let mut cycled = Cycled {
        walls: vec![Samples::default(); units],
        peak_mb: Samples::default(),
    };
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    for pass in 0.. {
        for k in 0..units {
            let expected = Duration::from_secs_f64(cycled.walls[k].median());
            if pass > 0 && Instant::now() + expected > deadline {
                return cycled;
            }
            reset_peak_rss();
            match unit(k) {
                Some(wall) => {
                    cycled.walls[k].push(wall);
                    cycled.peak_mb.push(peak_rss_mb());
                }
                // A failed unit would fail again: stop, the run is lost.
                None => return cycled,
            }
        }
    }
    cycled
}

/// `Σ work / Σ median time` over the sub-seeds that completed.
fn rate(work: &[f64], walls: &[Samples]) -> f64 {
    let time: f64 = walls.iter().map(Samples::median).sum();
    if time > 0.0 {
        work.iter().sum::<f64>() / time
    } else {
        0.0
    }
}

/// Mean over sub-seeds of each one's median time.
fn mean_median(walls: &[Samples]) -> f64 {
    walls.iter().map(Samples::median).sum::<f64>() / walls.len().max(1) as f64
}

fn campaigns(
    w: Workload,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    scratch: &Path,
    res: &mut RunResult,
) {
    let machine = workload::machine();
    let program = workload::program(w);
    let configs: Vec<_> = (0..sizes.sub_seeds(w))
        .map(|k| workload::campaign_config(w, sizes, sub_seed(seed, k)))
        .collect();
    // A failed fixed campaign fails its whole plan; an adaptive one its
    // trial cap.
    let planned = configs[0].injections;
    let spec = workload::job_spec(&machine, &program, &configs[0]);

    // Set-up: one `open` of the job on a freshly started venue, several
    // times. The brokered venue of the first open stays up (its
    // worker's store cache now warm) and serves the measured loop; the
    // other brokered venues start after the loop has been measured,
    // because a worker's cache cannot be shut down and would otherwise
    // count toward the loop's peak memory.
    let mut setup = Samples::default();
    let local = LocalBackend::new(1);
    let mut venue = None;
    let reps = if w == Workload::BrokeredStressmark {
        1
    } else {
        sizes.setup_reps
    };
    for _ in 0..reps {
        if let Err(e) = time_open(w, &local, &spec, scratch, &mut setup, &mut venue) {
            res.attempted += planned;
            res.check(false, planned, || format!("set-up open failed: {e}"));
            return;
        }
    }
    let backend: &dyn CampaignBackend = match &venue {
        Some(v) => &v.backend,
        None => &local,
    };

    // The brokered tallies must equal the local ones of the same plan
    // and seed (the fixed-stressmark figures). The local campaign runs
    // first, inside the run's time.
    let mut loop_seconds = seconds;
    let mut local_reference = None;
    if w == Workload::BrokeredStressmark {
        let (report, secs) =
            timed(|| Campaign::new(&machine, &program, configs[0].clone()).run_on(&local));
        loop_seconds = (seconds - secs).max(0.0);
        match report {
            Ok(report) => local_reference = Some(CampaignSummary::of(&report)),
            Err(e) => res.check(false, 0, || format!("local reference campaign failed: {e}")),
        }
    }

    let mut reference: Vec<Option<CampaignSummary>> = vec![None; configs.len()];
    let mut trials = vec![0.0; configs.len()];
    let mut batches = vec![0.0; configs.len()];
    let cycled = cycle_units(configs.len(), loop_seconds, |k| {
        let config = &configs[k];
        let (report, wall) =
            timed(|| Campaign::new(&machine, &program, config.clone()).run_on(backend));
        let what = format!("campaign seed {}", config.seed);
        let (summary, _) = checked(&what, planned, report, res)?;
        let stop_ok = match config.ci_target {
            Some(_) => summary.stop == StopReason::CiTarget,
            None => summary.trials == config.injections,
        };
        res.check(stop_ok, summary.trials, || {
            format!(
                "{what} stopped on {} after {} trial(s)",
                summary.stop.name(),
                summary.trials
            )
        });
        match &reference[k] {
            Some(r) => res.check(*r == summary, summary.trials, || {
                format!("{what} does not reproduce its reference tallies")
            }),
            None => reference[k] = Some(summary.clone()),
        }
        trials[k] = summary.trials as f64;
        batches[k] = summary.batches as f64;
        Some(wall)
    });

    res.set("inj_per_s", rate(&trials, &cycled.walls));
    res.set("verdict_s", mean_median(&cycled.walls));
    res.set("search_gen_per_s", rate(&batches, &cycled.walls));
    res.set("peak_rss_mb", cycled.peak_mb.median());

    if w == Workload::BrokeredStressmark {
        if let Some(local_summary) = &local_reference {
            res.check(
                reference[0].as_ref() == Some(local_summary),
                configs[0].injections,
                || "the brokered tallies differ from the local ones".to_owned(),
            );
        }
        drop(venue);
        for _ in 1..sizes.setup_reps {
            let mut fresh = None;
            if let Err(e) = time_open(w, &local, &spec, scratch, &mut setup, &mut fresh) {
                res.check(false, 0, || format!("set-up open failed: {e}"));
            }
        }
    }
    res.set("setup_s", setup.median());

    let ace = simulate(&machine, &program, configs[0].instr_budget);
    res.fingerprint
        .push(("ace_stats".to_owned(), ace_stats_json(&ace.stats)));
    res.fingerprint.push((
        "campaigns".to_owned(),
        Json::Arr(
            reference
                .iter()
                .flatten()
                .map(CampaignSummary::to_json)
                .collect(),
        ),
    ));
}

/// Times one `open` of `spec` on a freshly started venue; a brokered
/// venue is handed back in `venue`, still up.
fn time_open(
    w: Workload,
    local: &LocalBackend,
    spec: &JobSpec,
    scratch: &Path,
    setup: &mut Samples,
    venue: &mut Option<BrokerVenue>,
) -> Result<(), BackendError> {
    let backend: &dyn CampaignBackend = if w == Workload::BrokeredStressmark {
        &venue.insert(BrokerVenue::start(scratch)?).backend
    } else {
        local
    };
    let (opened, secs) = timed(|| backend.open(spec.clone()));
    setup.push(secs);
    opened.map(drop)
}

/// The genome the search's set-up scores: the miss template, a short
/// loop with one load and long dependence chains. Such a low-IPC
/// candidate runs the most cycles per evaluation, and it is the kind
/// that sets a search's peak memory.
const SETUP_GENOME: [f64; GENOME_LEN] = [0.1, 0.0, 0.1, 0.0, 0.2, 0.7, 0.2, 0.9, 0.1, 0.5, 0.0];

fn search(sizes: &Sizes, seed: u64, seconds: f64, res: &mut RunResult) {
    let configs: Vec<_> = (0..sizes.search_sub_seeds)
        .map(|k| search_config(sizes, sub_seed(seed, k)))
        .collect();
    // An operation is one genome scoring the GA asks for, plus the
    // winner's final re-run.
    let ops = (sizes.population * sizes.generations) as u64 + 1;

    // Set-up: a freshly started one-thread evaluator pool, built as the
    // local search backend builds it, until it returns its first score
    // (of `SETUP_GENOME`, the same at every seed). One set-up before
    // every search spreads the samples over the run instead of over one
    // moment of the host.
    let ctx = EvalContext {
        machine: configs[0].machine.clone(),
        fitness: configs[0].fitness.clone(),
        instr_budget: configs[0].eval_instructions,
    };
    let genome = SETUP_GENOME.to_vec();
    let mut setup = Samples::default();
    let mut set_up = |res: &mut RunResult| {
        let ctx = ctx.clone();
        let mut evaluator = None;
        let (score, secs) = timed(|| {
            evaluator
                .insert(LocalEvaluator::new(1, move |g: &[f64]| {
                    evaluate_genome(&ctx, g)
                }))
                .evaluate(std::slice::from_ref(&genome))
        });
        drop(evaluator);
        res.attempted += 1;
        if let Err(e) = score {
            res.check(false, 1, || format!("set-up evaluation failed: {e}"));
            return false;
        }
        setup.push(secs);
        true
    };

    // Peak memory: the first set-up, from a reset peak, before any
    // search has left memory with the allocator. A search's own peak is
    // set by the genomes its seed happens to breed (README.md), so the
    // workload's memory figure is that of one evaluation of a genome of
    // the kind that sets it.
    reset_peak_rss();
    if !set_up(res) {
        return;
    }
    res.set("peak_rss_mb", peak_rss_mb());

    let mut reference: Vec<Option<SearchSummary>> = vec![None; configs.len()];
    let mut generations = vec![0.0; configs.len()];
    let mut scorings = vec![0.0; configs.len()];
    let cycled = cycle_units(configs.len(), seconds, |k| {
        if !set_up(res) {
            return None;
        }

        let config = &configs[k];
        let (outcome, wall) = timed(|| generate_stressmark(config));
        res.attempted += ops;
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                res.check(false, ops, || {
                    format!("search seed {} failed: {e}", config.ga.seed)
                });
                return None;
            }
        };
        let summary = SearchSummary::of(config.ga.seed, &outcome);
        res.check(summary.history.len() == sizes.generations, ops, || {
            format!(
                "search seed {} ran {} of {} generations",
                config.ga.seed,
                summary.history.len(),
                sizes.generations
            )
        });
        match &reference[k] {
            Some(r) => res.check(*r == summary, ops, || {
                format!(
                    "search seed {} does not repeat its history and score",
                    config.ga.seed
                )
            }),
            None => reference[k] = Some(summary.clone()),
        }
        generations[k] = summary.history.len() as f64;
        scorings[k] = (sizes.population * summary.history.len()) as f64;
        Some(wall)
    });

    res.set("setup_s", setup.median());
    res.set("inj_per_s", rate(&scorings, &cycled.walls));
    res.set("verdict_s", mean_median(&cycled.walls));
    res.set("search_gen_per_s", rate(&generations, &cycled.walls));
    res.fingerprint.push((
        "searches".to_owned(),
        Json::Arr(
            reference
                .iter()
                .flatten()
                .map(SearchSummary::to_json)
                .collect(),
        ),
    ));
}
