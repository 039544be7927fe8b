//! Deterministic sampling plans.
//!
//! AVF is defined over a structure's bit×cycle space, so an unbiased
//! estimator samples the injection cycle uniformly over the golden
//! run's cycles, the entry uniformly over the structure's *physical*
//! entries (vacant entries are legitimate masked samples — idle state
//! is exactly what makes AVF less than occupancy), and the bit
//! uniformly over the entry's bits.
//!
//! Every trial's sample is a pure function of `(seed, batch, index)`,
//! so plans — and therefore campaign outcomes — are independent of
//! thread count and execution order, and an adaptive campaign can grow
//! batch by batch without re-randomizing what came before.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use avf_isa::wire::{WireError, WireReader, WireWriter};
use avf_prune::PruneMap;
use avf_sim::{InjectionTarget, MachineConfig};

/// Sentinel batch id of the audit sampling stream (`--prune audit`),
/// disjoint from the sequential batch ids of the estimation stream.
pub const AUDIT_BATCH: u64 = u64::MAX;

/// Redraw bound per planned trial before the plan gives up on a
/// stratum. Expected redraws are `1/w` (residual sampling) or
/// `1/(1-w)` (audit sampling); a stratum needing more than this is too
/// thin to sample and the planner skips it rather than spinning.
const MAX_REDRAWS: u32 = 65_536;

/// One planned injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trial {
    /// Global trial index (stable across thread counts and batches).
    pub index: u64,
    /// Structure to inject into.
    pub target: InjectionTarget,
    /// Cycle at which to inject (within the golden run).
    pub cycle: u64,
    /// Physical entry index within the structure.
    pub entry: u64,
    /// Bit index within the entry.
    pub bit: u32,
}

impl Trial {
    /// Bytes one trial occupies on the wire (all fields fixed-width).
    pub const WIRE_BYTES: usize = 8 + 1 + 8 + 8 + 4;

    /// Serializes the trial into a wire writer.
    pub fn encode(&self, w: &mut WireWriter) {
        w.u64(self.index);
        w.code(&InjectionTarget::ALL, self.target);
        w.u64(self.cycle);
        w.u64(self.entry);
        w.u32(self.bit);
    }

    /// Decodes a trial written by [`Trial::encode`]. Geometry bounds
    /// (`entry`, `bit`) are validated by the executing simulator, which
    /// holds the machine configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncation or an unknown target code.
    pub fn decode(r: &mut WireReader<'_>) -> Result<Trial, WireError> {
        Ok(Trial {
            index: r.u64()?,
            target: r.code(&InjectionTarget::ALL)?,
            cycle: r.u64()?,
            entry: r.u64()?,
            bit: r.u32()?,
        })
    }
}

/// SplitMix64 finalizer: a full-avalanche bijection, so consecutive
/// inputs map to statistically independent outputs.
///
/// The previous scheme seeded each trial's RNG with
/// `seed ^ (index * K + index)` — a *linear* mix, under which nearby
/// campaign seeds produce correlated per-trial streams (seed `s` and
/// `s ^ 1` differ in one input bit, and `SmallRng`'s seeding does not
/// repair that). Running the tuple through a proper finalizer makes
/// every `(seed, batch, index)` point an independent draw.
fn splitmix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Weyl-sequence increment of the SplitMix64 generator.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The RNG for one trial, derived purely from `(seed, batch, index)`.
fn trial_rng(seed: u64, batch: u64, index: u64) -> SmallRng {
    // Two chained SplitMix64 streams: the campaign seed and batch pick a
    // stream, the trial index picks a point in it.
    let stream = splitmix64(seed.wrapping_add(batch.wrapping_add(1).wrapping_mul(GOLDEN_GAMMA)));
    SmallRng::seed_from_u64(splitmix64(
        stream.wrapping_add(index.wrapping_add(1).wrapping_mul(GOLDEN_GAMMA)),
    ))
}

/// One batch's worth of trials, derived purely from the seed.
///
/// Execution-order concerns (cycle-sorting, striding across workers)
/// belong to the backend that runs the plan —
/// [`crate::backend::shard_trials`] — not to the plan itself.
#[derive(Debug, Clone)]
pub struct SamplingPlan {
    /// Trials in plan (global index) order.
    trials: Vec<Trial>,
}

impl SamplingPlan {
    /// Plans `injections` trials split round-robin across `targets`,
    /// with injection cycles in `[1, cycles)` — the fixed-size plan of a
    /// non-adaptive campaign (batch 0 of the sampling stream).
    ///
    /// With a [`PruneMap`], each trial redraws until it lands in the
    /// residual stratum — still a pure function of `(seed, batch,
    /// index)`, so stratified plans stay venue- and thread-independent.
    ///
    /// # Panics
    ///
    /// Panics if `targets` is empty or `cycles < 2`.
    #[must_use]
    pub fn new(
        machine: &MachineConfig,
        targets: &[InjectionTarget],
        injections: u64,
        cycles: u64,
        seed: u64,
        prune: Option<&PruneMap>,
    ) -> SamplingPlan {
        assert!(
            !targets.is_empty(),
            "sampling plan needs at least one target"
        );
        let picks = (0..injections).map(|index| targets[(index % targets.len() as u64) as usize]);
        SamplingPlan::from_targets(machine, picks, cycles, seed, 0, 0, prune)
    }

    /// Plans one adaptive batch: `allocation` gives each target's trial
    /// count, `batch` and `first_index` place the batch in the
    /// campaign's sampling stream (`first_index` = trials planned so
    /// far, keeping global indices unique).
    ///
    /// # Panics
    ///
    /// Panics if `cycles < 2`.
    #[must_use]
    pub fn for_batch(
        machine: &MachineConfig,
        allocation: &[(InjectionTarget, u64)],
        cycles: u64,
        seed: u64,
        batch: u64,
        first_index: u64,
        prune: Option<&PruneMap>,
    ) -> SamplingPlan {
        let picks = allocation
            .iter()
            .flat_map(|&(target, n)| std::iter::repeat_n(target, n as usize));
        SamplingPlan::from_targets(machine, picks, cycles, seed, batch, first_index, prune)
    }

    /// Plans the audit stream of `--prune audit`: up to `per_target`
    /// deterministic samples drawn from each target's *pruned* strata
    /// (the inverse of residual sampling). Every one of these sites is
    /// claimed provably masked — the campaign injects into them and
    /// hard-fails on any non-masked outcome.
    ///
    /// Targets whose pruned mass is zero (or too thin to hit within the
    /// redraw bound) contribute no audit trials.
    #[must_use]
    pub fn audit(
        machine: &MachineConfig,
        map: &PruneMap,
        per_target: u64,
        cycles: u64,
        seed: u64,
    ) -> SamplingPlan {
        assert!(
            cycles >= 2,
            "golden run too short to sample injection cycles"
        );
        let sizes = machine.structure_sizes();
        let mut trials = Vec::new();
        let mut index = 0u64;
        for target in InjectionTarget::ALL {
            if map.of(target).pruned() == 0 {
                continue;
            }
            for _ in 0..per_target {
                let mut rng = trial_rng(seed, AUDIT_BATCH, index);
                let entries = target.entries(machine);
                let bits = target.entry_bits(&sizes);
                for _ in 0..MAX_REDRAWS {
                    let cycle = rng.gen_range(1..cycles);
                    let entry = rng.gen_range(0..entries);
                    let bit = rng.gen_range(0..bits);
                    if map.is_pruned(target, entry, bit, cycle) {
                        trials.push(Trial {
                            index,
                            target,
                            cycle,
                            entry,
                            bit,
                        });
                        index += 1;
                        break;
                    }
                }
            }
        }
        SamplingPlan { trials }
    }

    #[allow(clippy::too_many_arguments)]
    fn from_targets(
        machine: &MachineConfig,
        picks: impl Iterator<Item = InjectionTarget>,
        cycles: u64,
        seed: u64,
        batch: u64,
        first_index: u64,
        prune: Option<&PruneMap>,
    ) -> SamplingPlan {
        assert!(
            cycles >= 2,
            "golden run too short to sample injection cycles"
        );
        let sizes = machine.structure_sizes();
        let trials: Vec<Trial> = picks
            .enumerate()
            .map(|(offset, target)| {
                let index = first_index + offset as u64;
                let mut rng = trial_rng(seed, batch, index);
                let entries = target.entries(machine);
                let bits = target.entry_bits(&sizes);
                let mut redraws = 0u32;
                loop {
                    let cycle = rng.gen_range(1..cycles);
                    let entry = rng.gen_range(0..entries);
                    let bit = rng.gen_range(0..bits);
                    let pruned = prune.is_some_and(|m| m.is_pruned(target, entry, bit, cycle));
                    if !pruned {
                        break Trial {
                            index,
                            target,
                            cycle,
                            entry,
                            bit,
                        };
                    }
                    redraws += 1;
                    assert!(
                        redraws < MAX_REDRAWS,
                        "{target}: residual stratum too thin to sample \
                         (allocator must skip fully-pruned targets)"
                    );
                }
            })
            .collect();
        assert!(
            u32::try_from(trials.len()).is_ok(),
            "a single plan is capped at u32::MAX trials"
        );
        SamplingPlan { trials }
    }

    /// All trials in plan order.
    #[must_use]
    pub fn trials(&self) -> &[Trial] {
        &self.trials
    }

    /// Number of planned trials.
    #[must_use]
    pub fn len(&self) -> usize {
        self.trials.len()
    }

    /// Whether the plan holds no trials.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.trials.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic_and_in_range() {
        let machine = MachineConfig::baseline();
        let a = SamplingPlan::new(&machine, &InjectionTarget::ALL, 500, 10_000, 7, None);
        let b = SamplingPlan::new(&machine, &InjectionTarget::ALL, 500, 10_000, 7, None);
        assert_eq!(a.trials(), b.trials());
        let sizes = machine.structure_sizes();
        for t in a.trials() {
            assert!((1..10_000).contains(&t.cycle));
            assert!(t.entry < t.target.entries(&machine));
            assert!(t.bit < t.target.entry_bits(&sizes));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let machine = MachineConfig::baseline();
        let a = SamplingPlan::new(&machine, &InjectionTarget::ALL, 100, 10_000, 1, None);
        let b = SamplingPlan::new(&machine, &InjectionTarget::ALL, 100, 10_000, 2, None);
        assert_ne!(a.trials(), b.trials());
    }

    #[test]
    fn nearby_seeds_are_uncorrelated() {
        // Regression for the linear `seed ^ mix(index)` derivation:
        // adjacent seeds must not share any aligned samples. With
        // independent draws the chance of one aligned (cycle, entry,
        // bit) collision in 1000 trials is ~1000/9999 per the cycle
        // dimension alone times entry/bit — effectively zero across all
        // four seed pairs; the old scheme collides almost everywhere.
        let machine = MachineConfig::baseline();
        for base in [0u64, 41, 1 << 32, u64::MAX - 1] {
            let a = SamplingPlan::new(&machine, &InjectionTarget::ALL, 1000, 10_000, base, None);
            let b = SamplingPlan::new(
                &machine,
                &InjectionTarget::ALL,
                1000,
                10_000,
                base + 1,
                None,
            );
            let aligned = a
                .trials()
                .iter()
                .zip(b.trials())
                .filter(|(x, y)| (x.cycle, x.entry, x.bit) == (y.cycle, y.entry, y.bit))
                .count();
            assert!(
                aligned <= 2,
                "seeds {base} and {} share {aligned}/1000 aligned samples",
                base + 1
            );
        }
    }

    #[test]
    fn batches_extend_the_stream_without_re_randomizing() {
        let machine = MachineConfig::baseline();
        let alloc = [(InjectionTarget::Rob, 5u64), (InjectionTarget::Iq, 3)];
        let b1 = SamplingPlan::for_batch(&machine, &alloc, 5_000, 9, 1, 100, None);
        let b1_again = SamplingPlan::for_batch(&machine, &alloc, 5_000, 9, 1, 100, None);
        assert_eq!(b1.trials(), b1_again.trials());
        assert_eq!(b1.len(), 8);
        assert_eq!(b1.trials()[0].index, 100);
        assert_eq!(b1.trials()[7].index, 107);
        assert_eq!(
            b1.trials()
                .iter()
                .filter(|t| t.target == InjectionTarget::Rob)
                .count(),
            5
        );
        // A different batch index at the same global indices samples
        // fresh points.
        let b2 = SamplingPlan::for_batch(&machine, &alloc, 5_000, 9, 2, 100, None);
        assert_ne!(b1.trials(), b2.trials());
    }

    #[test]
    fn splitmix_finalizer_avalanches() {
        // Flipping one input bit must flip roughly half the output bits.
        for x in [0u64, 1, 42, u64::MAX] {
            for bit in [0, 17, 63] {
                let d = (splitmix64(x) ^ splitmix64(x ^ (1 << bit))).count_ones();
                assert!((8..56).contains(&d), "weak avalanche: {x} bit {bit}: {d}");
            }
        }
    }
}
