//! The metric registry and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units
//! and directions; the benchmark's tests hold the two in step.

use crate::json::Json;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name, printed once per run.
    pub name: &'static str,
    /// Unit the value is given in.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
/// README.md gives each one's meaning on each workload.
pub const END_TO_END: &[MetricDef] = &[
    def("inj_per_s", "1/s", Higher),
    def("verdict_s", "s", Lower),
    def("search_gen_per_s", "1/s", Higher),
    def("setup_s", "s", Lower),
    def("peak_rss_mb", "MiB", Lower),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A
/// layer the workload's loop bypasses reads 0 (no work done there),
/// except `prune.residual_frac`, which reads 1 (nothing pruned).
pub const PER_LAYER: &[MetricDef] = &[
    // avf-sim
    def("sim.fault.mcycles_per_s", "Mcycles/s", Higher),
    def("sim.ace.mcycles_per_s", "Mcycles/s", Higher),
    def("sim.snapshot_us", "us", Lower),
    def("sim.snapshot_us.tail", "us", Lower),
    def("sim.restore_us", "us", Lower),
    def("sim.restore_us.tail", "us", Lower),
    def("sim.digest_us", "us", Lower),
    def("sim.digest_us.tail", "us", Lower),
    def("sim.golden_s", "s", Lower),
    def("sim.checkpoint_decode_s", "s", Lower),
    def("sim.snapshot_bytes", "bytes", Lower),
    def("sim.checkpoint_bytes", "bytes", Lower),
    // avf-inject
    def("inject.prefix_share", "fraction", Lower),
    def("inject.probe_share", "fraction", Lower),
    def("inject.snapshot_share", "fraction", Lower),
    def("inject.flip_share", "fraction", Lower),
    def("inject.tail_share", "fraction", Lower),
    def("inject.digest_share", "fraction", Lower),
    def("inject.restore_share", "fraction", Lower),
    def("inject.armed_frac", "fraction", Higher),
    def("inject.tail_cycles_per_armed", "cycles", Lower),
    def("inject.trials_to_verdict", "count", Lower),
    // avf-prune
    def("prune.build_s", "s", Lower),
    def("prune.residual_frac", "fraction", Lower),
    // avf-codegen, avf-ace, avf-ga
    def("codegen.generate_ms", "ms", Lower),
    def("codegen.generate_ms.tail", "ms", Lower),
    def("ace.score_us", "us", Lower),
    def("ace.score_us.tail", "us", Lower),
    def("search.codegen_share", "fraction", Lower),
    def("search.sim_share", "fraction", Lower),
    def("search.score_share", "fraction", Lower),
    def("ga.overhead_share", "fraction", Lower),
    def("ga.evals_per_gen", "count", Lower),
    // avf-service, avf-broker
    def("hop.open_cold_s", "s", Lower),
    def("hop.open_warm_s", "s", Lower),
    def("hop.batch_ms", "ms", Lower),
    def("hop.batch_ms.tail", "ms", Lower),
    def("hop.local_batch_ms", "ms", Lower),
    def("hop.local_batch_ms.tail", "ms", Lower),
    def("hop.overhead_frac", "fraction", Lower),
    def("hop.redispatched", "count", Lower),
    // the benchmark itself
    def("trace.overhead_frac", "fraction", Lower),
    def("error_rate", "fraction", Lower),
];

/// The registry entry of `name`, if any.
#[must_use]
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// What one benchmark run produced: the operation count, the failed
/// checks, the metrics and the simulated-statistics fingerprint.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted: trials, or genome evaluations.
    pub attempted: u64,
    /// Operations that failed (an unreached trial, a missing event, or
    /// every operation of a unit whose output check failed).
    pub failed: u64,
    /// One line per failed output check.
    pub failures: Vec<String>,
    /// `(name, value)` in registry order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Simulated statistics that a pure speed-up must leave unchanged.
    pub fingerprint: Vec<(String, Json)>,
    /// `(timing name, sample count)` of every sampled timing: printed
    /// beside the metrics, but not a metric, since a count of samples
    /// is neither better nor worse when it moves.
    pub samples: Vec<(&'static str, usize)>,
}

impl RunResult {
    /// Records a unit of `ops` operations that failed `check` — unless
    /// it passed.
    pub fn check(&mut self, ok: bool, ops: u64, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += ops;
            self.failures.push(what());
        }
    }

    /// Sets metric `name` (which must be registered).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(lookup(name).is_some(), "unregistered metric {name}");
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// Puts the metrics in the order of `defs`, filling any metric the
    /// run did not touch with 0 — a layer the workload bypasses did no
    /// work — and fails the run on a value that is not finite (printed
    /// as 0, since JSON has no spelling for it).
    pub fn finish(&mut self, defs: &[MetricDef]) {
        if self.attempted == 0 {
            self.attempted = 1;
            self.failed = 1;
            self.failures
                .push("the run attempted no operation".to_owned());
        }
        let mut ordered = Vec::with_capacity(defs.len());
        for d in defs {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| *n == d.name)
                .map_or(0.0, |&(_, v)| v);
            self.check(value.is_finite(), 0, || {
                format!("metric {} is not a finite number", d.name)
            });
            ordered.push((d.name, if value.is_finite() { value } else { 0.0 }));
        }
        self.metrics = ordered;
    }

    /// Whether every output check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    /// The final result line.
    #[must_use]
    pub fn result_line(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value)| {
                let unit = lookup(name).map_or("", |d| d.unit);
                (
                    name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}
