//! Exact summaries of a unit's simulated results. Output checks compare
//! them across passes, venues and the traced run; the fingerprint line
//! prints them so that a change meant only to be faster can show that
//! every simulated statistic stayed the same.

use avf_inject::{BackendError, CampaignReport, InjectionTarget, OutcomeCounts, StopReason};
use avf_sim::{GoldenRun, SimStats};
use avf_stressmark::SearchOutcome;

use crate::json::Json;
use crate::metrics::RunResult;

/// What a campaign measured, exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSummary {
    /// Campaign seed.
    pub seed: u64,
    /// The fault-free reference run.
    pub golden: GoldenRun,
    /// Outcome tallies per target.
    pub counts: Vec<(InjectionTarget, OutcomeCounts)>,
    /// Residual fraction per target, as `f64` bits.
    pub residual: Vec<u64>,
    /// Trials executed.
    pub trials: u64,
    /// Batches submitted.
    pub batches: usize,
    /// Why the campaign stopped.
    pub stop: StopReason,
}

impl CampaignSummary {
    /// Summarises a report.
    #[must_use]
    pub fn of(report: &CampaignReport) -> CampaignSummary {
        CampaignSummary {
            seed: report.seed,
            golden: report.golden,
            counts: report
                .targets
                .iter()
                .map(|t| (t.target, t.counts))
                .collect(),
            residual: report
                .targets
                .iter()
                .map(|t| t.residual.to_bits())
                .collect(),
            trials: report.injections,
            batches: report.batches.len(),
            stop: report.stop,
        }
    }

    /// Trials whose injection cycle the prefix never reached.
    #[must_use]
    pub fn unreached(&self) -> u64 {
        self.counts.iter().map(|(_, c)| c.unreached).sum()
    }

    /// The fingerprint entry.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let tallies = self.counts.iter().map(|(t, c)| {
            (
                t.name(),
                Json::Arr(
                    [c.masked, c.sdc, c.due, c.diverged, c.unreached]
                        .into_iter()
                        .map(Json::Int)
                        .collect(),
                ),
            )
        });
        Json::obj([
            ("seed", Json::Int(self.seed)),
            ("golden_cycles", Json::Int(self.golden.cycles)),
            ("golden_committed", Json::Int(self.golden.committed)),
            ("golden_digest", Json::hex(self.golden.digest)),
            ("trials", Json::Int(self.trials)),
            ("batches", Json::Int(self.batches as u64)),
            ("stop", Json::str(self.stop.name())),
            (
                "tallies_masked_sdc_due_diverged_unreached",
                Json::obj(tallies),
            ),
        ])
    }
}

/// Counts a campaign's trials toward `res` and checks that every trial
/// was reached; a campaign that returned an error fails its `planned`
/// trials. `what` names the campaign in failure lines.
pub(crate) fn checked(
    what: &str,
    planned: u64,
    report: Result<CampaignReport, BackendError>,
    res: &mut RunResult,
) -> Option<(CampaignSummary, CampaignReport)> {
    match report {
        Ok(r) => {
            let summary = CampaignSummary::of(&r);
            res.attempted += summary.trials;
            let unreached = summary.unreached();
            res.check(unreached == 0, unreached, || {
                format!("{what}: {unreached} unreached trial(s)")
            });
            Some((summary, r))
        }
        Err(e) => {
            res.attempted += planned;
            res.check(false, planned, || format!("{what} failed: {e}"));
            None
        }
    }
}

/// What a search produced, exactly (floats as bit patterns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchSummary {
    /// GA seed.
    pub seed: u64,
    /// Per generation: best, mean and standard-deviation bits, and
    /// whether a cataclysm followed.
    pub history: Vec<(u64, u64, u64, bool)>,
    /// Best genome, gene bits.
    pub best_genome: Vec<u64>,
    /// Best GA fitness bits.
    pub best_fitness: u64,
    /// Distinct fitness computations.
    pub evaluations: u64,
    /// Final-budget score bits of the winner.
    pub score: u64,
    /// ACE-mode cycles of the winner's final run.
    pub final_cycles: u64,
    /// Instructions the winner's final run committed.
    pub final_committed: u64,
}

impl SearchSummary {
    /// Summarises a search outcome.
    #[must_use]
    pub fn of(seed: u64, outcome: &SearchOutcome) -> SearchSummary {
        SearchSummary::from_parts(seed, &outcome.ga, outcome.score, &outcome.result.stats)
    }

    /// Summarises a search from its GA result and the winner's final
    /// run.
    #[must_use]
    pub fn from_parts(
        seed: u64,
        ga: &avf_ga::GaResult,
        score: f64,
        stats: &SimStats,
    ) -> SearchSummary {
        SearchSummary {
            seed,
            history: ga
                .history
                .iter()
                .map(|g| {
                    (
                        g.best.to_bits(),
                        g.mean.to_bits(),
                        g.std_dev.to_bits(),
                        g.cataclysm,
                    )
                })
                .collect(),
            best_genome: avf_ga::genome_bits(&ga.best_genome),
            best_fitness: ga.best_fitness.to_bits(),
            evaluations: ga.evaluations,
            score: score.to_bits(),
            final_cycles: stats.cycles,
            final_committed: stats.committed,
        }
    }

    /// The fingerprint entry.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seed", Json::Int(self.seed)),
            (
                "best_per_generation",
                Json::Arr(self.history.iter().map(|h| Json::hex(h.0)).collect()),
            ),
            (
                "best_genome",
                Json::Arr(self.best_genome.iter().map(|&b| Json::hex(b)).collect()),
            ),
            ("best_fitness", Json::hex(self.best_fitness)),
            ("evaluations", Json::Int(self.evaluations)),
            ("final_score", Json::hex(self.score)),
            ("final_cycles", Json::Int(self.final_cycles)),
            ("final_committed", Json::Int(self.final_committed)),
        ])
    }
}

/// The fingerprint entry of an ACE-mode run's statistics.
#[must_use]
pub fn ace_stats_json(stats: &SimStats) -> Json {
    Json::obj([
        ("cycles", Json::Int(stats.cycles)),
        ("committed", Json::Int(stats.committed)),
    ])
}
