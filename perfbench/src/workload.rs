//! The four workloads and the inputs each one makes from the seed.
//!
//! Why each workload exists, and which layers it exercises or bypasses,
//! is set out in README.md.

use avf_ace::{FaultRates, Fitness};
use avf_codegen::{generate, Knobs, TargetParams};
use avf_ga::GaParams;
use avf_inject::{CampaignConfig, GoldenSpec, InjectionTarget, JobSpec, PruneMode};
use avf_isa::Program;
use avf_sim::MachineConfig;
use avf_stressmark::{SearchBackend, SearchConfig};

use crate::json::Json;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fixed-plan campaign, pruning off, paper-baseline stressmark,
    /// one-thread local venue.
    FixedStressmark,
    /// Adaptive campaign to a CI target with pruning on, `429.mcf`
    /// proxy, one-thread local venue.
    AdaptiveMcf,
    /// Fixed-seed GA search on a one-thread local evaluator.
    Search,
    /// The fixed-stressmark plan through an in-process broker in front
    /// of one loopback worker.
    BrokeredStressmark,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::FixedStressmark,
        Workload::AdaptiveMcf,
        Workload::Search,
        Workload::BrokeredStressmark,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::FixedStressmark => "fixed-stressmark",
            Workload::AdaptiveMcf => "adaptive-mcf",
            Workload::Search => "search",
            Workload::BrokeredStressmark => "brokered-stressmark",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Workload sizes. `full` is what the benchmark measures; `smoke` keeps
/// the benchmark's own tests fast.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Sub-seeds a `fixed-stressmark` or `brokered-stressmark` run
    /// cycles through (see [`sub_seed`]).
    pub fixed_sub_seeds: u64,
    /// Sub-seeds an `adaptive-mcf` run cycles through.
    pub adaptive_sub_seeds: u64,
    /// Sub-seeds a `search` run cycles through.
    pub search_sub_seeds: u64,
    /// Trials of one fixed campaign.
    pub fixed_trials: u64,
    /// Committed-instruction budget of the stressmark campaigns.
    pub stressmark_budget: u64,
    /// Committed-instruction budget of the `429.mcf` campaigns.
    pub mcf_budget: u64,
    /// CI half-width the adaptive campaign stops at.
    pub ci_target: f64,
    /// Trials per adaptive batch.
    pub adaptive_batch: u64,
    /// Trial cap of the adaptive campaign (reaching it fails the run).
    pub adaptive_cap: u64,
    /// GA population.
    pub population: usize,
    /// GA generations.
    pub generations: usize,
    /// Instructions per candidate evaluation.
    pub eval_instructions: u64,
    /// Instructions of the winner's final re-run.
    pub final_instructions: u64,
    /// Fresh venues whose set-up `setup_s` times on a campaign workload.
    pub setup_reps: usize,
    /// Trials of the batch the traced run sends through both hops.
    pub hop_batch: usize,
    /// Times that batch is sent through each hop.
    pub hop_rounds: usize,
}

impl Sizes {
    /// The measured sizes. Each follows a caller of the repository:
    /// the fixed campaigns use `avf-stressmark validate`'s defaults
    /// (1000 trials, a 30k-instruction budget); the adaptive one the
    /// pruned adaptive sweep of `scripts/ci/fidelity_gate.sh` (`--prune
    /// on --ci-target 0.05 --injections 4000 --instructions 15000`, with
    /// `validate`'s 128-trial batches); the search uses `avf-stressmark search`'s defaults
    /// (population 16, 120k instructions per evaluation), cut from 24
    /// generations to 2 to fit a run, with the final re-run cut in
    /// proportion (2M instructions × 2 / 24) so that it keeps its share
    /// of a default search's time.
    #[must_use]
    pub fn full() -> Sizes {
        Sizes {
            fixed_sub_seeds: 1,
            adaptive_sub_seeds: 6,
            search_sub_seeds: 4,
            fixed_trials: 1000,
            stressmark_budget: 30_000,
            mcf_budget: 15_000,
            ci_target: 0.05,
            adaptive_batch: 128,
            adaptive_cap: 4000,
            population: 16,
            generations: 2,
            eval_instructions: 120_000,
            final_instructions: 2_000_000 * 2 / 24,
            setup_reps: 5,
            hop_batch: 32,
            hop_rounds: 25,
        }
    }

    /// Sizes for the benchmark's own tests.
    #[must_use]
    pub fn smoke() -> Sizes {
        Sizes {
            fixed_sub_seeds: 2,
            adaptive_sub_seeds: 2,
            search_sub_seeds: 2,
            fixed_trials: 96,
            stressmark_budget: 3_000,
            mcf_budget: 2_000,
            ci_target: 0.15,
            adaptive_batch: 16,
            adaptive_cap: 2048,
            population: 4,
            generations: 2,
            eval_instructions: 3_000,
            final_instructions: 3_000,
            setup_reps: 2,
            hop_batch: 16,
            hop_rounds: 2,
        }
    }

    /// Sub-seeds a run of `w` cycles through.
    #[must_use]
    pub fn sub_seeds(&self, w: Workload) -> u64 {
        match w {
            Workload::FixedStressmark | Workload::BrokeredStressmark => self.fixed_sub_seeds,
            Workload::AdaptiveMcf => self.adaptive_sub_seeds,
            Workload::Search => self.search_sub_seeds,
        }
    }

    /// The sizes as recorded in the provenance line.
    #[must_use]
    pub fn to_json(&self, w: Workload) -> Json {
        let mut pairs = vec![("sub_seeds", Json::Int(self.sub_seeds(w)))];
        match w {
            Workload::FixedStressmark | Workload::BrokeredStressmark => {
                pairs.push(("trials", Json::Int(self.fixed_trials)));
                pairs.push(("instr_budget", Json::Int(self.stressmark_budget)));
            }
            Workload::AdaptiveMcf => {
                pairs.push(("ci_target", Json::Num(self.ci_target)));
                pairs.push(("batch", Json::Int(self.adaptive_batch)));
                pairs.push(("trial_cap", Json::Int(self.adaptive_cap)));
                pairs.push(("instr_budget", Json::Int(self.mcf_budget)));
            }
            Workload::Search => {
                pairs.push(("population", Json::Int(self.population as u64)));
                pairs.push(("generations", Json::Int(self.generations as u64)));
                pairs.push(("eval_instructions", Json::Int(self.eval_instructions)));
                pairs.push(("final_instructions", Json::Int(self.final_instructions)));
            }
        }
        if w != Workload::Search {
            pairs.push(("setup_reps", Json::Int(self.setup_reps as u64)));
        }
        Json::obj(pairs)
    }
}

/// Sub-seed `k` of the run seed: a run times `Sizes::sub_seeds` units
/// (campaigns or searches) whose campaign or GA seeds are
/// `seed * 64 + k`, so that one seed's luck in the plan or the GA
/// trajectory does not decide the figure.
#[must_use]
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(64).wrapping_add(k)
}

/// The simulated machine of every workload.
#[must_use]
pub fn machine() -> MachineConfig {
    MachineConfig::baseline()
}

/// The program a campaign workload injects into.
///
/// # Panics
///
/// Panics for [`Workload::Search`], which has no fixed program.
#[must_use]
pub fn program(w: Workload) -> Program {
    match w {
        Workload::FixedStressmark | Workload::BrokeredStressmark => {
            generate(&Knobs::paper_baseline(), &TargetParams::baseline()).program
        }
        Workload::AdaptiveMcf => avf_workloads::by_name("429.mcf")
            .expect("the 429.mcf proxy is part of the workload suite")
            .build(),
        Workload::Search => panic!("the search workload has no fixed program"),
    }
}

/// The campaign configuration of workload `w` at campaign seed `seed`.
#[must_use]
pub fn campaign_config(w: Workload, sizes: &Sizes, seed: u64) -> CampaignConfig {
    let budget = match w {
        Workload::AdaptiveMcf => sizes.mcf_budget,
        _ => sizes.stressmark_budget,
    };
    let mut config = CampaignConfig {
        injections: sizes.fixed_trials,
        seed,
        threads: 1,
        instr_budget: budget,
        targets: InjectionTarget::ALL.to_vec(),
        // Explicit, so that a set-up `JobSpec` matches the campaign's.
        checkpoint_interval: (budget / 8).max(64),
        ..CampaignConfig::default()
    };
    if w == Workload::AdaptiveMcf {
        config.injections = sizes.adaptive_cap;
        config.ci_target = Some(sizes.ci_target);
        config.batch_size = sizes.adaptive_batch;
        config.prune = PruneMode::On;
    }
    config
}

/// The `JobSpec` a campaign of `config` opens its venue with (a
/// delegated golden run, as the default golden mode asks).
#[must_use]
pub fn job_spec(machine: &MachineConfig, program: &Program, config: &CampaignConfig) -> JobSpec {
    JobSpec {
        machine: machine.clone(),
        program: program.clone(),
        instr_budget: config.instr_budget,
        fault_model: config.fault_model,
        golden: GoldenSpec::Delegated {
            checkpoint_interval: config.checkpoint_interval,
        },
        prune: config.prune.enabled(),
    }
}

/// The search configuration at GA seed `seed`.
#[must_use]
pub fn search_config(sizes: &Sizes, seed: u64) -> SearchConfig {
    let mut config = SearchConfig::quick(machine(), Fitness::overall(FaultRates::baseline()));
    config.ga = GaParams {
        population: sizes.population,
        generations: sizes.generations,
        ..GaParams::quick()
    }
    .with_seed(seed);
    config.eval_instructions = sizes.eval_instructions;
    config.final_instructions = sizes.final_instructions;
    config.backend = SearchBackend::Local { threads: 1 };
    config
}
