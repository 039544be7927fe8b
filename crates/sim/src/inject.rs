//! Fault-injection seams: fork the pipeline at an arbitrary cycle, flip
//! one bit of one hardware structure, and run the faulty future to
//! completion.
//!
//! This is the measurement side of statistical fault injection (SFI),
//! the standard technique for validating ACE-based AVF estimates (Wang
//! et al., Rhod et al.): where ACE analysis *reasons* about which bits
//! could have mattered, injection *observes* what one flipped bit does.
//! The two disagree in a known direction — ACE analysis is conservative
//! and over-approximates — so per-structure injection results both
//! sanity-check the simulator's AVF numbers and quantify the
//! methodology's built-in pessimism.
//!
//! ## Fault models
//!
//! The timing pipeline carries no data values (the architectural oracle
//! executes at fetch), so a flip is applied *semantically*: the engine
//! locates the architectural value the flipped bit backs and corrupts
//! that. Flips that land on provably dead state (vacant entries,
//! wrong-path instructions, un-ACE operand halves, padding bits of
//! byte-aligned tag fields) are classified masked without running.
//!
//! Queueing-structure (ROB/IQ/LQ/SQ) control and tag fields resolve
//! under one of two [`FaultModel`]s:
//!
//! * **trap** — any control-field corruption of a live entry is a
//!   detected unrecoverable error, without running. Coarse on purpose:
//!   it is the pre-replay baseline the fidelity gate compares against.
//! * **replay** (default) — the *micro-op replay oracle*: the corrupted
//!   entry is re-decoded into a (possibly different) micro-op — a
//!   flipped opcode byte decodes to another operation, a flipped
//!   operand tag re-routes the value of a different physical register
//!   into the slot, a flipped destination tag misdirects the writeback
//!   — re-executed from its recorded fetch-time operands
//!   ([`avf_isa::replay_eval`]), and its changed result replayed
//!   through every not-yet-issued in-flight consumer (and the oracle
//!   frontier for future fetches). The run's architectural outcome then
//!   classifies the trial like any data-field flip, with
//!   [`FlipEffect::Diverged`] for entries that decode to
//!   architecturally impossible states.
//!
//! Deliberate approximations, documented inline: value flips reach
//! in-flight consumers that have not yet issued plus all not-yet-fetched
//! readers (already-issued consumers keep their clean operands);
//! store-tag flips and replayed stores corrupt the corrupted address
//! without un-writing the original one; a misdirected writeback
//! clobbers the victim register while the true destination keeps its
//! already-applied value; replayed loads read frontier memory; a
//! register holding no live definition reads stale content modeled as
//! zero; and clean-cache-line flips hit the backing store directly.

use avf_ace::{Structure, StructureSizes};
use avf_isa::wire::{code_of, WireError, WireReader, WireWriter};
use avf_isa::{AccessSize, Inst, OpClass, Opcode, Program};

use crate::config::MachineConfig;
use crate::dyninst::{iq_field_of, rob_control_field_of, IqField, RobControlField, Stage};
use crate::pipeline::{Pipeline, ReplayEnd};

pub use crate::pipeline::PipelineSnapshot;

/// A hardware structure fault-injection campaigns can target.
///
/// Mirrors the structures of the ACE analysis but merges tag/data
/// arrays the way a physical entry does (an LQ entry is one 128-bit
/// word: 64 tag bits then 64 data bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InjectionTarget {
    /// Re-order buffer entries.
    Rob,
    /// Issue queue entries.
    Iq,
    /// Load queue entries (tag then data halves).
    Lq,
    /// Store queue entries (tag then data halves).
    Sq,
    /// Merged physical register file.
    RegFile,
    /// L1 data cache data array.
    Dl1,
    /// Unified L2 cache data array.
    L2,
    /// Data TLB entries.
    Dtlb,
}

impl InjectionTarget {
    /// Every target, in display order (which is also wire-code order).
    pub const ALL: [InjectionTarget; 8] = [
        InjectionTarget::Rob,
        InjectionTarget::Iq,
        InjectionTarget::Lq,
        InjectionTarget::Sq,
        InjectionTarget::RegFile,
        InjectionTarget::Dl1,
        InjectionTarget::L2,
        InjectionTarget::Dtlb,
    ];

    /// Short name used in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            InjectionTarget::Rob => "ROB",
            InjectionTarget::Iq => "IQ",
            InjectionTarget::Lq => "LQ",
            InjectionTarget::Sq => "SQ",
            InjectionTarget::RegFile => "RF",
            InjectionTarget::Dl1 => "DL1",
            InjectionTarget::L2 => "L2",
            InjectionTarget::Dtlb => "DTLB",
        }
    }

    /// Number of physical entries on `cfg`.
    #[must_use]
    pub fn entries(self, cfg: &MachineConfig) -> u64 {
        match self {
            InjectionTarget::Rob => cfg.rob_entries as u64,
            InjectionTarget::Iq => cfg.iq_entries as u64,
            InjectionTarget::Lq => cfg.lq_entries as u64,
            InjectionTarget::Sq => cfg.sq_entries as u64,
            InjectionTarget::RegFile => cfg.phys_regs as u64,
            InjectionTarget::Dl1 => u64::from(cfg.dl1.lines()),
            InjectionTarget::L2 => u64::from(cfg.l2.lines()),
            InjectionTarget::Dtlb => cfg.dtlb_entries as u64,
        }
    }

    /// Bits per entry (the per-trial bit-sampling space).
    #[must_use]
    pub fn entry_bits(self, sizes: &StructureSizes) -> u32 {
        match self {
            InjectionTarget::Rob => sizes.rob_entry_bits,
            InjectionTarget::Iq => sizes.iq_entry_bits,
            InjectionTarget::Lq | InjectionTarget::Sq => sizes.lsq_tag_bits + sizes.lsq_data_bits,
            InjectionTarget::RegFile => sizes.rf_reg_bits,
            InjectionTarget::Dl1 | InjectionTarget::L2 => sizes.line_bytes * 8,
            InjectionTarget::Dtlb => sizes.dtlb_entry_bits,
        }
    }

    /// The ACE structures to compare injection-measured AVF against
    /// (bit-weighted merge where a target spans two arrays).
    #[must_use]
    pub fn ace_structures(self) -> &'static [Structure] {
        match self {
            InjectionTarget::Rob => &[Structure::Rob],
            InjectionTarget::Iq => &[Structure::Iq],
            InjectionTarget::Lq => &[Structure::LqTag, Structure::LqData],
            InjectionTarget::Sq => &[Structure::SqTag, Structure::SqData],
            InjectionTarget::RegFile => &[Structure::RegFile],
            InjectionTarget::Dl1 => &[Structure::Dl1Data],
            InjectionTarget::L2 => &[Structure::L2Data],
            InjectionTarget::Dtlb => &[Structure::Dtlb],
        }
    }
}

impl std::fmt::Display for InjectionTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How the injection engine resolves flips in queueing-structure
/// (ROB/IQ/LQ/SQ) control and tag fields.
///
/// Data-field flips classify identically under either model; only the
/// control/tag handling moves, which is exactly where the trap model is
/// coarse (every control corruption of a live entry becomes a DUE,
/// regardless of its architectural outcome).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FaultModel {
    /// Control-field corruption of a live entry is recorded as a
    /// detected unrecoverable error without running the faulty future —
    /// the pre-replay approximation.
    Trap,
    /// The corrupted entry is re-decoded into a (possibly different)
    /// micro-op and replayed through the execute/commit path from the
    /// recorded fetch-time operands; the run's architectural outcome
    /// (golden-digest comparison) decides the classification, with
    /// [`FlipEffect::Diverged`] for entries that decode to
    /// architecturally impossible states.
    #[default]
    Replay,
}

impl FaultModel {
    /// Every model, in wire-code order.
    pub const ALL: [FaultModel; 2] = [FaultModel::Trap, FaultModel::Replay];

    /// Short name used in reports and on the CLI.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultModel::Trap => "trap",
            FaultModel::Replay => "replay",
        }
    }

    /// Parses a CLI spelling of the model.
    #[must_use]
    pub fn parse(s: &str) -> Option<FaultModel> {
        match s {
            "trap" => Some(FaultModel::Trap),
            "replay" => Some(FaultModel::Replay),
            _ => None,
        }
    }
}

impl std::fmt::Display for FaultModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a flip provably cannot affect program output (classified masked
/// without running the faulty future).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaskReason {
    /// The sampled entry holds no in-flight state.
    Vacant,
    /// The occupant is wrong-path work awaiting a squash.
    WrongPath,
    /// The occupant produces no architectural result (NOP, resolved
    /// control).
    Idle,
    /// A younger definition already supersedes the value for every
    /// future reader.
    Overwritten,
    /// The bit lies in an operand half a narrow access never makes ACE.
    UnAceBits,
    /// The field does not hold valid data yet (load data before the
    /// fill returns, store data before issue).
    NotYetValid,
    /// A misdirected destination tag lands the result in a physical
    /// register holding no reachable definition (replay model).
    DeadTarget,
    /// The re-decoded micro-op reproduces the original outcome exactly
    /// (same value / address / direction), so the corruption is benign
    /// by re-execution (replay model).
    ReplayClean,
}

impl MaskReason {
    /// Short name used in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MaskReason::Vacant => "vacant",
            MaskReason::WrongPath => "wrong-path",
            MaskReason::Idle => "idle",
            MaskReason::Overwritten => "overwritten",
            MaskReason::UnAceBits => "un-ACE bits",
            MaskReason::NotYetValid => "not-yet-valid",
            MaskReason::DeadTarget => "dead-target",
            MaskReason::ReplayClean => "replay-clean",
        }
    }
}

/// Immediate result of applying one flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlipEffect {
    /// The fault is live in machine state; the outcome is decided by
    /// running to completion and comparing against the golden run.
    Armed,
    /// The flip provably cannot reach program output.
    Masked(MaskReason),
    /// The corrupted entry decodes to an architecturally impossible
    /// state (an unencodable opcode or stage code, a register tag past
    /// the physical file, a tag naming no live definition): the replay
    /// oracle cannot express the faulty machine, and a campaign
    /// classifies the trial in its own `ReplayDiverged` bucket. No
    /// machine state is mutated.
    Diverged,
}

/// How a (possibly faulty) bounded run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunEnd {
    /// Clean end: halted or reached the commit budget.
    Completed,
    /// Exceeded the cycle budget without completing (hang).
    Timeout,
    /// A detected unrecoverable error: corrupted control state, wrong
    /// DTLB translation consumed, pipeline deadlock, or PC out of text.
    Trapped,
}

/// Reference (fault-free) execution a campaign classifies against.
///
/// `PartialEq` is load-bearing for the distributed service: when N
/// workers each execute the golden pass themselves, the driver
/// cross-checks that every worker reports the *identical* reference —
/// any divergence is a hard protocol error, not a warning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GoldenRun {
    /// Cycles the fault-free run took (the injection-cycle sampling
    /// space).
    pub cycles: u64,
    /// Instructions the fault-free run committed.
    pub committed: u64,
    /// Semantic digest of final memory ([`avf_isa::Memory::digest`]).
    pub digest: u64,
}

impl GoldenRun {
    /// Serializes the run (cycles, committed, digest) into `w`.
    pub fn encode(&self, w: &mut WireWriter) {
        w.u64(self.cycles);
        w.u64(self.committed);
        w.u64(self.digest);
    }

    /// Decodes a run written by [`GoldenRun::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] on short input.
    pub fn decode(r: &mut WireReader<'_>) -> Result<GoldenRun, WireError> {
        Ok(GoldenRun {
            cycles: r.u64()?,
            committed: r.u64()?,
            digest: r.u64()?,
        })
    }
}

/// A simulator instance with fault-injection seams: bounded stepping,
/// state snapshot/rewind, and single-bit flips.
pub struct InjectionSim<'a> {
    pipe: Pipeline<'a>,
    instr_budget: u64,
    cycle_budget: u64,
    fault_model: FaultModel,
}

impl<'a> InjectionSim<'a> {
    /// Builds an injectable simulation of `program` on `config`,
    /// bounded by `instr_budget` committed instructions.
    ///
    /// The fetch stage stops the architectural oracle exactly at the
    /// budget, so the final memory digest is a pure function of
    /// architectural execution (independent of pipeline timing), which
    /// makes golden-vs-faulty digest comparison sound.
    #[must_use]
    pub fn new(config: &'a MachineConfig, program: &'a Program, instr_budget: u64) -> Self {
        let pipe = Pipeline::new_faulty(config, program, instr_budget);
        let cycle_budget = pipe.default_cycle_limit(instr_budget);
        InjectionSim {
            pipe,
            instr_budget,
            cycle_budget,
            fault_model: FaultModel::default(),
        }
    }

    /// Overrides the cycle budget (campaigns tighten it around the
    /// golden run's length so hangs are detected quickly).
    pub fn set_cycle_budget(&mut self, cycles: u64) {
        self.cycle_budget = cycles;
    }

    /// Selects how queueing-structure control/tag flips are resolved
    /// (default: [`FaultModel::Replay`]).
    pub fn set_fault_model(&mut self, model: FaultModel) {
        self.fault_model = model;
    }

    /// The active fault model.
    #[must_use]
    pub fn fault_model(&self) -> FaultModel {
        self.fault_model
    }

    /// Current cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.pipe.cycle
    }

    /// Committed instructions so far.
    #[must_use]
    pub fn committed(&self) -> u64 {
        self.pipe.stats.committed
    }

    /// Semantic digest of current architectural memory.
    #[must_use]
    pub fn memory_digest(&self) -> u64 {
        self.pipe.oracle_mem.digest()
    }

    /// Advances until `cycle`; returns `false` if the run ended first.
    pub fn run_to_cycle(&mut self, cycle: u64) -> bool {
        while self.pipe.cycle < cycle {
            if self.pipe.done(self.instr_budget) || self.pipe.cycle >= self.cycle_budget {
                return false;
            }
            self.pipe.tick(self.instr_budget);
        }
        true
    }

    /// Runs to completion within the budgets and classifies the ending.
    pub fn run_to_end(&mut self) -> RunEnd {
        while !self.pipe.done(self.instr_budget) {
            if self.pipe.cycle >= self.cycle_budget {
                return RunEnd::Timeout;
            }
            self.pipe.tick(self.instr_budget);
        }
        if self.pipe.trapped {
            RunEnd::Trapped
        } else {
            RunEnd::Completed
        }
    }

    /// Captures the complete machine state (cheap relative to a replay:
    /// one deep clone of caches, queues, register state, and the sparse
    /// memory image).
    #[must_use]
    pub fn snapshot(&self) -> PipelineSnapshot {
        self.pipe.snapshot()
    }

    /// Rewinds to a snapshot taken earlier on this instance.
    pub fn restore(&mut self, snap: &PipelineSnapshot) {
        self.pipe.restore(snap);
    }

    /// Serializes the complete machine state to a self-contained blob
    /// (see [`PipelineSnapshot::to_wire`]).
    #[must_use]
    pub fn snapshot_wire(&self) -> Vec<u8> {
        self.pipe.snapshot().to_wire()
    }

    /// Restores state from a blob written by
    /// [`InjectionSim::snapshot_wire`] on the same machine configuration
    /// and program — including one captured by a *different* simulator
    /// instance, which is what checkpoint sharding relies on.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the blob does not decode against this
    /// simulator's configuration and program.
    pub fn restore_wire(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        let snap = PipelineSnapshot::from_wire(bytes, self.pipe.cfg, self.pipe.program)?;
        self.pipe.restore(&snap);
        Ok(())
    }

    /// Rewinds (or fast-forwards) to the nearest stored checkpoint at or
    /// before `cycle`, returning the restored cycle. The caller then
    /// [`InjectionSim::run_to_cycle`]s the remaining `O(interval)`
    /// distance instead of replaying the whole fault-free prefix.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the store is empty or the checkpoint
    /// blob does not decode against this simulator's configuration.
    pub fn restore_nearest(
        &mut self,
        store: &CheckpointStore,
        cycle: u64,
    ) -> Result<u64, WireError> {
        let (cp_cycle, bytes) = store
            .nearest(cycle)
            .ok_or(WireError::Invalid("empty checkpoint store"))?;
        self.restore_wire(bytes)?;
        Ok(cp_cycle)
    }

    /// Flips bit `bit` of physical entry `entry` in `target` at the
    /// current cycle.
    ///
    /// # Panics
    ///
    /// Panics if `entry` or `bit` exceed the target's geometry.
    pub fn flip_bit(&mut self, target: InjectionTarget, entry: u64, bit: u32) -> FlipEffect {
        self.flip_inner(target, entry, bit, true)
    }

    /// Dry-run of [`InjectionSim::flip_bit`]: classifies the flip
    /// without mutating any machine state. Campaign drivers use this to
    /// skip the snapshot/rewind cost for provably masked trials —
    /// followed by a real `flip_bit` at the same state, the two always
    /// agree.
    ///
    /// # Panics
    ///
    /// Panics if `entry` or `bit` exceed the target's geometry.
    pub fn probe_bit(&mut self, target: InjectionTarget, entry: u64, bit: u32) -> FlipEffect {
        self.flip_inner(target, entry, bit, false)
    }

    fn flip_inner(
        &mut self,
        target: InjectionTarget,
        entry: u64,
        bit: u32,
        apply: bool,
    ) -> FlipEffect {
        assert!(
            entry < target.entries(self.pipe.cfg),
            "entry index out of range"
        );
        assert!(
            bit < target.entry_bits(&self.pipe.sizes),
            "bit index out of range"
        );
        match target {
            InjectionTarget::RegFile => self.flip_regfile(entry as u32, bit, apply),
            InjectionTarget::Rob => self.flip_rob(entry as usize, bit, apply),
            InjectionTarget::Iq => self.flip_iq(entry as usize, bit, apply),
            InjectionTarget::Lq => self.flip_lsq(entry as usize, bit, OpClass::Load, apply),
            InjectionTarget::Sq => self.flip_lsq(entry as usize, bit, OpClass::Store, apply),
            InjectionTarget::Dl1 => self.flip_cache_line(true, entry as usize, bit, apply),
            InjectionTarget::L2 => self.flip_cache_line(false, entry as usize, bit, apply),
            InjectionTarget::Dtlb => {
                if entry as usize >= self.pipe.dtlb.resident() {
                    return FlipEffect::Masked(MaskReason::Vacant);
                }
                if apply {
                    self.pipe
                        .dtlb
                        .poison_entry(entry as usize)
                        .expect("residency checked");
                }
                FlipEffect::Armed
            }
        }
    }

    /// Physical register flip: corrupt the architectural register whose
    /// newest definition the register holds.
    ///
    /// Approximation: the flip is visible to all *not-yet-fetched*
    /// readers (the oracle executes at fetch, so already-fetched
    /// in-flight consumers keep their clean value). A register whose
    /// value has been superseded for every future reader is masked by
    /// overwrite — exactly the un-ACE idle/rename-turnaround state the
    /// paper exploits.
    fn flip_regfile(&mut self, preg: u32, bit: u32, apply: bool) -> FlipEffect {
        if self.pipe.rf.is_free(preg) {
            return FlipEffect::Masked(MaskReason::Vacant);
        }
        match self.pipe.rf.arch_of_newest(preg) {
            Some(arch) => {
                if apply {
                    self.pipe.oracle.regs[usize::from(arch)] ^= 1u64 << (bit & 63);
                }
                FlipEffect::Armed
            }
            None => FlipEffect::Masked(MaskReason::Overwritten),
        }
    }

    /// Corrupts the in-flight instruction's destination value if (and
    /// only if) that value is still the newest definition of its
    /// architectural register.
    fn flip_result_value(&mut self, idx: usize, bit: u32, apply: bool) -> FlipEffect {
        let e = &self.pipe.rob[idx];
        let (Some(dest), Some(dest_preg)) = (e.inst.dest_reg(), e.dest_preg) else {
            return FlipEffect::Masked(MaskReason::Idle);
        };
        if self.pipe.rf.rename_src(dest.number()) != dest_preg {
            return FlipEffect::Masked(MaskReason::Overwritten);
        }
        if apply {
            self.pipe.oracle.regs[dest.index()] ^= 1u64 << (bit & 63);
        }
        FlipEffect::Armed
    }

    /// Marks the fault detected (control-state corruption → DUE).
    fn trap(&mut self, apply: bool) -> FlipEffect {
        if apply {
            self.pipe.trapped = true;
        }
        FlipEffect::Armed
    }

    fn flip_rob(&mut self, idx: usize, bit: u32, apply: bool) -> FlipEffect {
        let Some(e) = self.pipe.rob.get(idx) else {
            return FlipEffect::Masked(MaskReason::Vacant);
        };
        if e.wrong_path {
            return FlipEffect::Masked(MaskReason::WrongPath);
        }
        match self.fault_model {
            FaultModel::Trap => self.flip_rob_trap(idx, bit, apply),
            FaultModel::Replay => self.flip_rob_replay(idx, bit, apply),
        }
    }

    fn flip_rob_trap(&mut self, idx: usize, bit: u32, apply: bool) -> FlipEffect {
        let class = self.pipe.rob[idx].inst.op.class();
        // Table I's 76-bit ROB entry: a 64-bit result field plus control
        // (dest tag, status). Control corruption breaks commit
        // bookkeeping — a detected error; result-field corruption
        // propagates through the destination register.
        if bit >= 64 {
            return match class {
                OpClass::Nop => FlipEffect::Masked(MaskReason::Idle),
                _ => self.trap(apply),
            };
        }
        match class {
            OpClass::Nop => FlipEffect::Masked(MaskReason::Idle),
            OpClass::Branch | OpClass::Store | OpClass::Halt => {
                // No result field in use.
                FlipEffect::Masked(MaskReason::Idle)
            }
            _ => self.flip_result_value(idx, bit, apply),
        }
    }

    /// The micro-op replay oracle's ROB model. A result-field flip
    /// corrupts the value the entry carries (the same entry-backs-the-
    /// in-flight-value abstraction the ACE analysis credits dispatch→
    /// commit) and replays it through every not-yet-issued in-flight
    /// consumer; the 12-bit control half is re-decoded field by field
    /// instead of trapping wholesale.
    fn flip_rob_replay(&mut self, idx: usize, bit: u32, apply: bool) -> FlipEffect {
        let e = &self.pipe.rob[idx];
        let class = e.inst.op.class();
        if class == OpClass::Nop {
            // The ACE model resolves a NOP's whole entry un-ACE, so the
            // oracle masks it too (the flipped-opcode-on-a-NOP gap is
            // recorded in the ROADMAP).
            return FlipEffect::Masked(MaskReason::Idle);
        }
        if bit < 64 {
            if matches!(class, OpClass::Branch | OpClass::Store | OpClass::Halt) {
                // No result field in use.
                return FlipEffect::Masked(MaskReason::Idle);
            }
            let Some(dest) = e.inst.dest_reg() else {
                return FlipEffect::Masked(MaskReason::Idle);
            };
            let out = e.outcome.expect("right-path producer has an outcome");
            let corrupted = out.value ^ (1u64 << bit);
            if apply {
                let seq = e.seq;
                let mut new_out = out;
                new_out.value = corrupted;
                self.pipe.rob[idx].outcome = Some(new_out);
                self.replay_seed(seq, vec![(dest.number(), corrupted)]);
            }
            return FlipEffect::Armed;
        }
        match rob_control_field_of(bit - 64) {
            RobControlField::DestTag(b) => self.flip_dest_tag(idx, b, apply),
            RobControlField::Status(b) => {
                // 2-bit stage code: InIq 0, Executing 1, Complete 2.
                if code_of(&Stage::ALL, e.stage) ^ (1 << b) == 3 {
                    // Unencodable scheduling state.
                    FlipEffect::Diverged
                } else {
                    // A live entry scheduled out of order breaks the
                    // in-order commit contract: detected.
                    self.trap(apply)
                }
            }
            RobControlField::PathFlag => self.trap(apply),
        }
    }

    fn flip_iq(&mut self, idx: usize, bit: u32, apply: bool) -> FlipEffect {
        let Some(rob_idx) = self
            .pipe
            .rob
            .iter()
            .enumerate()
            .filter(|(_, e)| e.stage == Stage::InIq)
            .map(|(i, _)| i)
            .nth(idx)
        else {
            return FlipEffect::Masked(MaskReason::Vacant);
        };
        let e = &self.pipe.rob[rob_idx];
        if e.wrong_path {
            return FlipEffect::Masked(MaskReason::WrongPath);
        }
        if e.inst.op.class() == OpClass::Nop {
            return FlipEffect::Masked(MaskReason::Idle);
        }
        match self.fault_model {
            FaultModel::Trap => {
                // A 32-bit IQ entry is all control: opcode and operand
                // tags. Corrupting a waiting computation's routing
                // yields a wrong result; corrupting waiting control
                // flow (branch/store/halt scheduling) is a detected
                // error.
                match self.pipe.rob[rob_idx].inst.op.class() {
                    OpClass::Branch | OpClass::Store | OpClass::Halt => self.trap(apply),
                    _ => self.flip_result_value(rob_idx, bit, apply),
                }
            }
            FaultModel::Replay => match iq_field_of(bit) {
                IqField::Opcode(b) => self.flip_iq_opcode(rob_idx, b, apply),
                IqField::SrcTag(slot, b) => self.flip_iq_src_tag(rob_idx, slot, b, apply),
                IqField::DestTag(b) => self.flip_dest_tag(rob_idx, b, apply),
            },
        }
    }

    /// Implemented width of a physical-register tag: `Table I` pads tag
    /// fields to a byte, but only `ceil(log2(phys_regs))` bits back real
    /// storage — a flip past that is a padding bit and masks.
    fn tag_width(&self) -> u8 {
        let regs = self.pipe.cfg.phys_regs.max(2);
        (usize::BITS - (regs - 1).leading_zeros()) as u8
    }

    /// Re-decodes a waiting micro-op's opcode byte with bit `b` flipped
    /// and replays the decoded instruction.
    fn flip_iq_opcode(&mut self, idx: usize, b: u8, apply: bool) -> FlipEffect {
        // Implemented opcode width: the encoding space holds
        // `Opcode::ALL.len()` points; bits past its log2 are padding.
        let opcode_width = (usize::BITS - (Opcode::ALL.len() - 1).leading_zeros()) as u8;
        if b >= opcode_width {
            return FlipEffect::Masked(MaskReason::UnAceBits);
        }
        let e = &self.pipe.rob[idx];
        let op = e.inst.op;
        let code = code_of(&Opcode::ALL, op) ^ (1 << b);
        let Some(&op2) = Opcode::ALL.get(usize::from(code)) else {
            return FlipEffect::Diverged; // unencodable opcode
        };
        if op2.class() != op.class() {
            // The entry's routing metadata (function-unit class, LSQ
            // linkage, branch checkpoint) no longer matches the decoded
            // micro-op: a detected scheduling inconsistency.
            return self.trap(apply);
        }
        let mut inst2 = e.inst;
        inst2.op = op2;
        let vals = e.src_vals;
        self.replay_corrupted_uop(idx, inst2, vals, apply)
    }

    /// Re-routes one source-operand tag of a waiting micro-op and
    /// replays it with the victim register's value in that slot.
    fn flip_iq_src_tag(&mut self, idx: usize, slot: usize, b: u8, apply: bool) -> FlipEffect {
        if b >= self.tag_width() {
            return FlipEffect::Masked(MaskReason::UnAceBits);
        }
        let e = &self.pipe.rob[idx];
        let Some(p) = e.src_pregs[slot] else {
            // Immediate, zero-register, or unused operand slot.
            return FlipEffect::Masked(MaskReason::Idle);
        };
        let p2 = p ^ (1u32 << b);
        if p2 as usize >= self.pipe.cfg.phys_regs {
            // An implemented tag bit flipped the number past the
            // physical file: no such register exists.
            return FlipEffect::Diverged;
        }
        let v2 = self.pipe.preg_value(p2);
        let inst = e.inst;
        let mut vals = e.src_vals;
        vals[slot] = v2;
        self.replay_corrupted_uop(idx, inst, vals, apply)
    }

    /// Misdirected-writeback decode shared by the ROB control half and
    /// the IQ destination byte: the tag with bit `b` flipped names a
    /// different physical register, so the result lands there —
    /// clobbering whatever architected value that register backs.
    ///
    /// Approximation: the true destination keeps its already-applied
    /// oracle value (mirroring the store-tag model, which does not
    /// un-write the original address).
    fn flip_dest_tag(&mut self, idx: usize, b: u8, apply: bool) -> FlipEffect {
        if b >= self.tag_width() {
            return FlipEffect::Masked(MaskReason::UnAceBits);
        }
        let e = &self.pipe.rob[idx];
        let Some(dest_preg) = e.dest_preg else {
            // No result to misdirect.
            return FlipEffect::Masked(MaskReason::Idle);
        };
        let victim = dest_preg ^ (1u32 << b);
        if victim as usize >= self.pipe.cfg.phys_regs {
            // An implemented tag bit flipped the number past the
            // physical file: no such register exists.
            return FlipEffect::Diverged;
        }
        if e.is_complete(self.pipe.cycle) {
            // Writeback already consumed the tag; its remaining use is
            // commit bookkeeping — freeing and mapping the wrong
            // register. Detected.
            return self.trap(apply);
        }
        let Some(victim_arch) = self.pipe.rf.arch_of_newest(victim) else {
            return FlipEffect::Masked(MaskReason::DeadTarget);
        };
        let value = e.outcome.expect("right-path def has an outcome").value;
        if apply {
            let seq = e.seq;
            self.replay_seed(seq, vec![(victim_arch, value)]);
        }
        FlipEffect::Armed
    }

    /// Re-executes in-flight entry `idx` as the (possibly re-decoded)
    /// micro-op `inst` with source values `vals` and compares against
    /// its original oracle outcome: a reproduced outcome is benign
    /// ([`MaskReason::ReplayClean`]); a changed one is applied and
    /// replayed through the in-flight window.
    fn replay_corrupted_uop(
        &mut self,
        idx: usize,
        inst: Inst,
        vals: [u64; 2],
        apply: bool,
    ) -> FlipEffect {
        let e = &self.pipe.rob[idx];
        let out = e.outcome.expect("right-path entry has an outcome");
        let (pc, seq) = (e.pc, e.seq);
        let new_out = avf_isa::replay_eval(&inst, pc, vals[0], vals[1], &self.pipe.oracle_mem);
        if inst.op.is_branch() {
            if new_out.taken == out.taken {
                return FlipEffect::Masked(MaskReason::ReplayClean);
            }
            // The corrupted micro-op steers control off the fetched
            // history: detected divergence.
            return self.trap(apply);
        }
        if inst.op.is_store() {
            if (new_out.ea, new_out.size, new_out.value) == (out.ea, out.size, out.value) {
                return FlipEffect::Masked(MaskReason::ReplayClean);
            }
            if apply {
                // The corrupted write reaches memory; the original
                // (clean) write is not un-written, as in the store-tag
                // model.
                let ea = new_out.ea.expect("store has an effective address");
                match new_out.size.expect("store has a size") {
                    AccessSize::Word => self.pipe.oracle_mem.write_u32(ea, new_out.value as u32),
                    AccessSize::Quad => self.pipe.oracle_mem.write_u64(ea, new_out.value),
                }
                self.pipe.rob[idx].outcome = Some(new_out);
            }
            return FlipEffect::Armed;
        }
        // Value producers (ALU ops, loads).
        let Some(dest) = inst.dest_reg() else {
            return FlipEffect::Masked(MaskReason::Idle);
        };
        if new_out.value == out.value {
            return FlipEffect::Masked(MaskReason::ReplayClean);
        }
        if apply {
            self.pipe.rob[idx].outcome = Some(new_out);
            self.replay_seed(seq, vec![(dest.number(), new_out.value)]);
        }
        FlipEffect::Armed
    }

    /// Runs the in-flight replay walk, recording a control divergence
    /// as a detected error (the simplified oracle cannot re-steer the
    /// already-fetched path).
    fn replay_seed(&mut self, after_seq: u64, delta: Vec<(u8, u64)>) {
        if let ReplayEnd::ControlDiverged { .. } = self.pipe.replay_forward(after_seq, delta) {
            self.pipe.trapped = true;
        }
    }

    fn flip_lsq(&mut self, idx: usize, bit: u32, class: OpClass, apply: bool) -> FlipEffect {
        let Some(rob_idx) = self
            .pipe
            .rob
            .iter()
            .enumerate()
            .filter(|(_, e)| e.inst.op.class() == class)
            .map(|(i, _)| i)
            .nth(idx)
        else {
            return FlipEffect::Masked(MaskReason::Vacant);
        };
        let e = &self.pipe.rob[rob_idx];
        if e.wrong_path {
            return FlipEffect::Masked(MaskReason::WrongPath);
        }
        let outcome = e.outcome.expect("right-path memory op has an outcome");
        let ea = outcome.ea.expect("memory op has an effective address");
        let size = outcome.size.expect("memory op has an access size");
        let is_load = class == OpClass::Load;
        if bit < 64 {
            // Tag half: the access goes to a wrong address.
            let flipped_ea = ea ^ (1u64 << bit);
            if is_load {
                // The load returns whatever lives at the corrupted
                // address.
                let wrong = match size {
                    AccessSize::Word => u64::from(self.pipe.oracle_mem.read_u32(flipped_ea)),
                    AccessSize::Quad => self.pipe.oracle_mem.read_u64(flipped_ea),
                };
                if self.fault_model == FaultModel::Replay {
                    // The wrong-address load is a replayed micro-op:
                    // its (different) result reaches not-yet-issued
                    // in-flight consumers, not just future fetches.
                    let Some(dest) = e.inst.dest_reg() else {
                        return FlipEffect::Masked(MaskReason::Idle);
                    };
                    if wrong == outcome.value {
                        // The corrupted address holds the right value.
                        return FlipEffect::Masked(MaskReason::ReplayClean);
                    }
                    if apply {
                        let seq = e.seq;
                        let mut new_out = outcome;
                        new_out.ea = Some(flipped_ea);
                        new_out.value = wrong;
                        self.pipe.rob[rob_idx].outcome = Some(new_out);
                        self.replay_seed(seq, vec![(dest.number(), wrong)]);
                    }
                    return FlipEffect::Armed;
                }
                return self.set_result_value(rob_idx, wrong, apply);
            }
            // Approximation: the misdirected store corrupts the flipped
            // address; the clean value it already wrote at the original
            // address is not un-written (the oracle ran at fetch).
            if apply {
                match size {
                    AccessSize::Word => {
                        self.pipe
                            .oracle_mem
                            .write_u32(flipped_ea, outcome.value as u32);
                    }
                    AccessSize::Quad => self.pipe.oracle_mem.write_u64(flipped_ea, outcome.value),
                }
            }
            return FlipEffect::Armed;
        }
        // Data half: only valid inside the window the ACE analysis
        // credits (after the fill returns for loads, after issue for
        // stores), and only the bytes the access actually uses.
        let data_bit = bit - 64;
        if u64::from(data_bit) >= size.bits() {
            return FlipEffect::Masked(MaskReason::UnAceBits);
        }
        if is_load {
            if e.data_return_cycle == 0 || self.pipe.cycle < e.data_return_cycle {
                return FlipEffect::Masked(MaskReason::NotYetValid);
            }
            return self.flip_result_value(rob_idx, data_bit, apply);
        }
        if e.stage == Stage::InIq {
            return FlipEffect::Masked(MaskReason::NotYetValid);
        }
        // Store data corrupts the in-memory copy the commit writes.
        if apply {
            let addr = ea + u64::from(data_bit / 8);
            let byte = self.pipe.oracle_mem.read_u8(addr);
            self.pipe
                .oracle_mem
                .write_u8(addr, byte ^ (1 << (data_bit % 8)));
        }
        FlipEffect::Armed
    }

    /// Overwrites (rather than XORs) the in-flight destination value —
    /// used when a wrong-address load replaces the whole result.
    fn set_result_value(&mut self, idx: usize, value: u64, apply: bool) -> FlipEffect {
        let e = &self.pipe.rob[idx];
        let (Some(dest), Some(dest_preg)) = (e.inst.dest_reg(), e.dest_preg) else {
            return FlipEffect::Masked(MaskReason::Idle);
        };
        if self.pipe.rf.rename_src(dest.number()) != dest_preg {
            return FlipEffect::Masked(MaskReason::Overwritten);
        }
        if apply {
            // If the wrong address happens to hold the right value the
            // write is a no-op: a benign fault the run classifies as
            // masked by comparing equal.
            self.pipe.oracle.regs[dest.index()] = value;
        }
        FlipEffect::Armed
    }

    /// Cache data-array flip. The fault is registered *in the line*,
    /// not in memory: loads that hit the line at their timing-accurate
    /// issue point consume the corrupted bytes (propagating through
    /// their destination register), stores over the bytes repair it, a
    /// dirty eviction writes it down the hierarchy (ultimately making
    /// it architectural), and a clean eviction discards it — the next
    /// fill restores clean data, exactly as in hardware.
    fn flip_cache_line(&mut self, dl1: bool, idx: usize, bit: u32, apply: bool) -> FlipEffect {
        let cache = if dl1 { &self.pipe.dl1 } else { &self.pipe.l2 };
        let Some(base) = cache.valid_line(idx) else {
            return FlipEffect::Masked(MaskReason::Vacant);
        };
        if apply {
            let addr = base + u64::from(bit / 8);
            let mask = 1u8 << (bit % 8);
            self.pipe.cache_faults.push(crate::pipeline::CacheFault {
                dl1,
                line_base: base,
                addr,
                mask,
            });
        }
        FlipEffect::Armed
    }
}

/// Periodic serialized checkpoints of the fault-free run.
///
/// Built once per campaign by [`golden_run_checkpointed`]; trial workers
/// call [`InjectionSim::restore_nearest`] to jump to the checkpoint at or
/// before their injection cycle, turning per-trial setup from `O(cycle)`
/// prefix replay into `O(interval)`. Checkpoints are plain byte blobs
/// ([`PipelineSnapshot::to_wire`]), so a store can also be handed to
/// another process or machine holding the same configuration and program.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    interval: u64,
    /// `(cycle, blob)` in strictly ascending cycle order; always starts
    /// with the cycle-0 initial state, so `nearest` never comes up empty.
    checkpoints: Vec<(u64, Vec<u8>)>,
}

impl CheckpointStore {
    /// Requested checkpoint spacing in cycles.
    #[must_use]
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Number of stored checkpoints.
    #[must_use]
    pub fn len(&self) -> usize {
        self.checkpoints.len()
    }

    /// Whether the store holds no checkpoints.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.checkpoints.is_empty()
    }

    /// Total serialized size in bytes.
    #[must_use]
    pub fn total_bytes(&self) -> usize {
        self.checkpoints.iter().map(|(_, b)| b.len()).sum()
    }

    /// The latest checkpoint at or before `cycle`.
    #[must_use]
    pub fn nearest(&self, cycle: u64) -> Option<(u64, &[u8])> {
        let idx = self.checkpoints.partition_point(|&(c, _)| c <= cycle);
        let (c, bytes) = self.checkpoints.get(idx.checked_sub(1)?)?;
        Some((*c, bytes.as_slice()))
    }

    /// Serializes the whole store (interval plus every checkpoint blob)
    /// into a wire writer — the payload a campaign service ships to a
    /// remote worker so trial execution there starts from checkpoints
    /// instead of replaying the fault-free prefix.
    pub fn encode(&self, w: &mut WireWriter) {
        w.u64(self.interval);
        w.seq(&self.checkpoints, |w, (cycle, blob)| {
            w.u64(*cycle);
            w.blob(blob);
        });
    }

    /// Decodes a store written by [`CheckpointStore::encode`],
    /// validating the structural invariants `nearest` relies on (a
    /// cycle-0 checkpoint first, strictly ascending cycles). The blobs
    /// themselves are validated lazily by [`CheckpointStore::decode_all`]
    /// against the worker's machine and program.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncation or a store whose cycle
    /// index is unusable.
    pub fn decode(r: &mut WireReader<'_>) -> Result<CheckpointStore, WireError> {
        let interval = r.u64()?;
        if interval == 0 {
            return Err(WireError::Invalid("checkpoint interval must be positive"));
        }
        // Each checkpoint costs at least cycle (8) + blob length (8).
        let checkpoints = r.seq(16, |r| Ok((r.u64()?, r.blob()?.to_vec())))?;
        let starts_at_zero = checkpoints.first().is_some_and(|&(c, _)| c == 0);
        let ascending = checkpoints.windows(2).all(|w| w[0].0 < w[1].0);
        if !starts_at_zero || !ascending {
            return Err(WireError::Invalid(
                "checkpoint store must start at cycle 0 with ascending cycles",
            ));
        }
        Ok(CheckpointStore {
            interval,
            checkpoints,
        })
    }

    /// Decodes every checkpoint once for in-process use, so a campaign
    /// restoring from the store per worker per batch pays one decode
    /// per checkpoint instead of one per restore ([`Pipeline`] restores
    /// from the decoded snapshot by deep clone, the same cost as a v1
    /// in-memory fork).
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if any blob does not decode against
    /// `config`/`program`.
    pub fn decode_all(
        &self,
        config: &MachineConfig,
        program: &Program,
    ) -> Result<DecodedCheckpoints, WireError> {
        let mut checkpoints = Vec::with_capacity(self.checkpoints.len());
        for (cycle, bytes) in &self.checkpoints {
            checkpoints.push((*cycle, PipelineSnapshot::from_wire(bytes, config, program)?));
        }
        Ok(DecodedCheckpoints {
            interval: self.interval,
            checkpoints,
        })
    }
}

/// An in-memory decoded view of a [`CheckpointStore`]: each serialized
/// checkpoint parsed once into a [`PipelineSnapshot`] that any number
/// of workers can [`InjectionSim::restore`] from.
pub struct DecodedCheckpoints {
    interval: u64,
    checkpoints: Vec<(u64, PipelineSnapshot)>,
}

impl std::fmt::Debug for DecodedCheckpoints {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodedCheckpoints")
            .field("interval", &self.interval)
            .field("len", &self.checkpoints.len())
            .finish()
    }
}

impl DecodedCheckpoints {
    /// Requested checkpoint spacing in cycles.
    #[must_use]
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Number of decoded checkpoints.
    #[must_use]
    pub fn len(&self) -> usize {
        self.checkpoints.len()
    }

    /// Whether the view holds no checkpoints.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.checkpoints.is_empty()
    }

    /// The latest checkpoint at or before `cycle`.
    #[must_use]
    pub fn nearest(&self, cycle: u64) -> Option<(u64, &PipelineSnapshot)> {
        let idx = self.checkpoints.partition_point(|&(c, _)| c <= cycle);
        let (c, snap) = self.checkpoints.get(idx.checked_sub(1)?)?;
        Some((*c, snap))
    }
}

/// Runs the fault-free reference execution for `program` bounded by
/// `instr_budget` commits.
#[must_use]
pub fn golden_run(config: &MachineConfig, program: &Program, instr_budget: u64) -> GoldenRun {
    let mut sim = InjectionSim::new(config, program, instr_budget);
    let end = sim.run_to_end();
    assert!(
        end == RunEnd::Completed,
        "fault-free golden run must complete cleanly, got {end:?}"
    );
    GoldenRun {
        cycles: sim.cycle().max(1),
        committed: sim.committed(),
        digest: sim.memory_digest(),
    }
}

/// [`golden_run`] that also captures a serialized checkpoint every
/// `interval` cycles (plus the cycle-0 initial state).
///
/// # Panics
///
/// Panics if `interval` is zero or the fault-free run does not complete
/// cleanly.
#[must_use]
pub fn golden_run_checkpointed(
    config: &MachineConfig,
    program: &Program,
    instr_budget: u64,
    interval: u64,
) -> (GoldenRun, CheckpointStore) {
    assert!(interval > 0, "checkpoint interval must be positive");
    let mut sim = InjectionSim::new(config, program, instr_budget);
    let mut checkpoints = vec![(0, sim.snapshot_wire())];
    loop {
        let next = sim.cycle().saturating_add(interval);
        if !sim.run_to_cycle(next) {
            break;
        }
        checkpoints.push((sim.cycle(), sim.snapshot_wire()));
    }
    let end = sim.run_to_end();
    assert!(
        end == RunEnd::Completed,
        "fault-free golden run must complete cleanly, got {end:?}"
    );
    (
        GoldenRun {
            cycles: sim.cycle().max(1),
            committed: sim.committed(),
            digest: sim.memory_digest(),
        },
        CheckpointStore {
            interval,
            checkpoints,
        },
    )
}

/// Default cycle-window width for [`PruneEvidence`] folding. Smaller
/// windows bound occupancy tighter (more pruning); larger windows keep
/// the evidence compact. 64 keeps a 50k-cycle run under 1k windows.
pub const PRUNE_WINDOW: u64 = 64;

/// Per-window occupancy and register-deadness evidence recorded during
/// an instrumented golden pass, consumed by the `avf-prune` site
/// classifier.
///
/// All samples are taken at cycle boundaries `c ∈ [1, cycles)` — the
/// exact states a planned trial at cycle `c` observes after
/// [`InjectionSim::run_to_cycle`]`(c)` — and folded conservatively over
/// fixed windows of `window` cycles: occupancies by per-window *max*
/// (an entry index at or past the max is vacant on every cycle of the
/// window), register deadness by per-window *AND* (a register is in a
/// dead window only if it was provably masked on every cycle of it).
///
/// `PartialEq`/`Eq` are load-bearing: in delegated mode every worker
/// derives the evidence (and hence the prune map) itself, and the
/// driver cross-checks bit-identity the same way it does for
/// [`GoldenRun`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PruneEvidence {
    /// Cycle-window width the per-cycle samples were folded over.
    pub window: u64,
    /// Golden-run cycle count; the samples span cycles `1..cycles`.
    pub cycles: u64,
    /// Per-window maximum ROB occupancy (the ROB is prefix-occupied:
    /// entry indices at or past `rob.len()` are vacant).
    pub rob_max: Vec<u64>,
    /// Per-window maximum count of in-IQ micro-ops (the flip engine
    /// indexes the IQ by compaction over `Stage::InIq` entries).
    pub iq_max: Vec<u64>,
    /// Per-window maximum count of in-flight loads (LQ compaction
    /// index space).
    pub lq_max: Vec<u64>,
    /// Per-window maximum count of in-flight stores (SQ compaction
    /// index space).
    pub sq_max: Vec<u64>,
    /// Per-window maximum DTLB residency (the DTLB fills bottom-up;
    /// entries at or past `resident()` are vacant).
    pub dtlb_max: Vec<u64>,
    /// Per-window AND-folded register-deadness bitmaps
    /// (`ceil(phys_regs / 64)` words per window): bit `p` set means
    /// physical register `p` was free or held a superseded definition
    /// on *every* cycle of the window — exactly the two conditions
    /// `flip_regfile` masks on.
    pub rf_dead: Vec<Vec<u64>>,
}

impl PruneEvidence {
    fn new(window: u64) -> PruneEvidence {
        PruneEvidence {
            window,
            cycles: 1,
            rob_max: Vec::new(),
            iq_max: Vec::new(),
            lq_max: Vec::new(),
            sq_max: Vec::new(),
            dtlb_max: Vec::new(),
            rf_dead: Vec::new(),
        }
    }

    /// Number of evidence windows covering the sampled cycle space.
    #[must_use]
    pub fn windows(&self) -> usize {
        self.rob_max.len()
    }
}

/// [`golden_run_checkpointed`] that additionally records the per-cycle
/// occupancy/deadness evidence the pre-campaign site classifier
/// consumes. The checkpoint store and golden run are bit-identical to
/// the uninstrumented pass (the evidence is read-only observation).
///
/// # Panics
///
/// Panics if `interval` or `window` is zero or the fault-free run does
/// not complete cleanly.
#[must_use]
pub fn golden_run_with_evidence(
    config: &MachineConfig,
    program: &Program,
    instr_budget: u64,
    interval: u64,
    window: u64,
) -> (GoldenRun, CheckpointStore, PruneEvidence) {
    assert!(interval > 0, "checkpoint interval must be positive");
    assert!(window > 0, "evidence window must be positive");
    let mut sim = InjectionSim::new(config, program, instr_budget);
    let mut checkpoints = vec![(0, sim.snapshot_wire())];
    let mut ev = PruneEvidence::new(window);
    let rf_words = config.phys_regs.div_ceil(64);
    loop {
        if sim.pipe.done(sim.instr_budget) || sim.pipe.cycle >= sim.cycle_budget {
            break;
        }
        sim.pipe.tick(sim.instr_budget);
        let c = sim.pipe.cycle;
        let w = ((c - 1) / window) as usize;
        if w == ev.rob_max.len() {
            ev.rob_max.push(0);
            ev.iq_max.push(0);
            ev.lq_max.push(0);
            ev.sq_max.push(0);
            ev.dtlb_max.push(0);
            ev.rf_dead.push(vec![u64::MAX; rf_words]);
        }
        let (mut iq, mut lq, mut sq) = (0u64, 0u64, 0u64);
        for e in sim.pipe.rob.iter() {
            if e.stage == Stage::InIq {
                iq += 1;
            }
            match e.inst.op.class() {
                OpClass::Load => lq += 1,
                OpClass::Store => sq += 1,
                _ => {}
            }
        }
        ev.rob_max[w] = ev.rob_max[w].max(sim.pipe.rob.len() as u64);
        ev.iq_max[w] = ev.iq_max[w].max(iq);
        ev.lq_max[w] = ev.lq_max[w].max(lq);
        ev.sq_max[w] = ev.sq_max[w].max(sq);
        ev.dtlb_max[w] = ev.dtlb_max[w].max(sim.pipe.dtlb.resident() as u64);
        let dead = &mut ev.rf_dead[w];
        for p in 0..config.phys_regs as u32 {
            let masked = sim.pipe.rf.is_free(p) || sim.pipe.rf.arch_of_newest(p).is_none();
            if !masked {
                dead[(p / 64) as usize] &= !(1u64 << (p % 64));
            }
        }
        if c.is_multiple_of(interval) {
            checkpoints.push((c, sim.snapshot_wire()));
        }
    }
    let end = sim.run_to_end();
    assert!(
        end == RunEnd::Completed,
        "fault-free golden run must complete cleanly, got {end:?}"
    );
    ev.cycles = sim.cycle().max(1);
    (
        GoldenRun {
            cycles: sim.cycle().max(1),
            committed: sim.committed(),
            digest: sim.memory_digest(),
        },
        CheckpointStore {
            interval,
            checkpoints,
        },
        ev,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use avf_isa::{Opcode, ProgramBuilder, Reg};

    fn counted_loop() -> Program {
        let r1 = Reg::of(1);
        let r2 = Reg::of(2);
        let rb = Reg::of(3);
        let mut b = ProgramBuilder::new("inject-test");
        b.addi(r1, Reg::ZERO, 64);
        b.load_addr(rb, avf_isa::DATA_BASE);
        let top = b.here();
        b.alu_ri(Opcode::Add, r2, r2, 3);
        b.stq(r2, rb, 0);
        b.subi(r1, r1, 1);
        b.bne(r1, top);
        b.halt();
        b.build().expect("valid program")
    }

    #[test]
    fn golden_run_is_deterministic() {
        let cfg = MachineConfig::baseline();
        let p = counted_loop();
        let a = golden_run(&cfg, &p, 10_000);
        let b = golden_run(&cfg, &p, 10_000);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.digest, b.digest);
    }

    #[test]
    fn snapshot_restore_replays_identically() {
        let cfg = MachineConfig::baseline();
        let p = counted_loop();
        let golden = golden_run(&cfg, &p, 10_000);
        let mut sim = InjectionSim::new(&cfg, &p, 10_000);
        assert!(sim.run_to_cycle(golden.cycles / 2));
        let snap = sim.snapshot();
        let end_a = sim.run_to_end();
        let digest_a = sim.memory_digest();
        sim.restore(&snap);
        let end_b = sim.run_to_end();
        let digest_b = sim.memory_digest();
        assert_eq!(end_a, end_b);
        assert_eq!(digest_a, digest_b);
        assert_eq!(digest_a, golden.digest, "fault-free replay matches golden");
    }

    #[test]
    fn flip_in_live_register_changes_output() {
        let cfg = MachineConfig::baseline();
        let p = counted_loop();
        let golden = golden_run(&cfg, &p, 10_000);
        let mut sim = InjectionSim::new(&cfg, &p, 10_000);
        assert!(sim.run_to_cycle(golden.cycles / 2));
        // r2 is the accumulator; its newest definition sits in the preg
        // the speculative map points at.
        let mut flipped = false;
        for preg in 0..cfg.phys_regs as u64 {
            let snap = sim.snapshot();
            if sim.flip_bit(InjectionTarget::RegFile, preg, 0) == FlipEffect::Armed {
                flipped = true;
                let end = sim.run_to_end();
                if end == RunEnd::Completed && sim.memory_digest() != golden.digest {
                    return; // observed an SDC — the seam works
                }
            }
            sim.restore(&snap);
        }
        assert!(flipped, "no register flip armed at mid-run");
        panic!("no register flip produced an SDC in a live accumulator loop");
    }

    #[test]
    fn wire_snapshot_round_trips_across_instances() {
        let cfg = MachineConfig::baseline();
        let p = counted_loop();
        let golden = golden_run(&cfg, &p, 10_000);
        let mut sim = InjectionSim::new(&cfg, &p, 10_000);
        assert!(sim.run_to_cycle(golden.cycles / 2));
        let bytes = sim.snapshot_wire();
        let end_a = sim.run_to_end();
        let digest_a = sim.memory_digest();
        let cycles_a = sim.cycle();
        // Restore onto a *fresh* instance: the blob must be self-contained.
        let mut other = InjectionSim::new(&cfg, &p, 10_000);
        other.restore_wire(&bytes).expect("blob decodes");
        assert_eq!(other.cycle(), golden.cycles / 2);
        let end_b = other.run_to_end();
        assert_eq!(end_a, end_b);
        assert_eq!(digest_a, other.memory_digest());
        assert_eq!(cycles_a, other.cycle(), "timing replays identically");
        assert_eq!(digest_a, golden.digest);
    }

    #[test]
    fn wire_snapshot_rejects_geometry_mismatch() {
        // A checkpoint from the baseline machine must not decode on
        // config-a (96 phys regs, 512 TLB entries): restoring it would
        // leave the pipeline indexing structures out of bounds.
        let base = MachineConfig::baseline();
        let p = counted_loop();
        let mut sim = InjectionSim::new(&base, &p, 10_000);
        assert!(sim.run_to_cycle(50));
        let bytes = sim.snapshot_wire();
        let a = MachineConfig::config_a();
        let mut other = InjectionSim::new(&a, &p, 10_000);
        assert!(other.restore_wire(&bytes).is_err());
    }

    #[test]
    fn decoded_checkpoints_match_wire_restores() {
        let cfg = MachineConfig::baseline();
        let p = counted_loop();
        let (golden, store) = golden_run_checkpointed(&cfg, &p, 10_000, 40);
        let decoded = store.decode_all(&cfg, &p).expect("own store decodes");
        assert_eq!(decoded.len(), store.len());
        assert_eq!(decoded.interval(), store.interval());
        for target in [0, 39, 40, golden.cycles / 2, golden.cycles] {
            let via_wire = store.nearest(target).map(|(c, _)| c);
            let via_decoded = decoded.nearest(target).map(|(c, _)| c);
            assert_eq!(via_wire, via_decoded);
            if let Some((c, snap)) = decoded.nearest(target) {
                let mut sim = InjectionSim::new(&cfg, &p, 10_000);
                sim.restore(snap);
                assert_eq!(sim.cycle(), c);
            }
        }
    }

    #[test]
    fn wire_snapshot_rejects_garbage() {
        let cfg = MachineConfig::baseline();
        let p = counted_loop();
        let mut sim = InjectionSim::new(&cfg, &p, 10_000);
        assert!(sim.restore_wire(&[]).is_err());
        assert!(sim.restore_wire(&[0xFF; 64]).is_err());
        let mut bytes = sim.snapshot_wire();
        bytes.truncate(bytes.len() / 2);
        assert!(sim.restore_wire(&bytes).is_err());
    }

    #[test]
    fn restore_nearest_matches_full_prefix_replay() {
        let cfg = MachineConfig::baseline();
        let p = counted_loop();
        let (golden, store) = golden_run_checkpointed(&cfg, &p, 10_000, 32);
        assert!(store.len() >= 2, "loop is long enough for checkpoints");
        for target in [1, golden.cycles / 3, golden.cycles / 2, golden.cycles - 1] {
            // Full-prefix replay.
            let mut slow = InjectionSim::new(&cfg, &p, 10_000);
            assert!(slow.run_to_cycle(target));
            // Checkpoint restore + O(interval) catch-up.
            let mut fast = InjectionSim::new(&cfg, &p, 10_000);
            let at = fast
                .restore_nearest(&store, target)
                .expect("store non-empty");
            assert!(at <= target && target - at <= store.interval());
            assert!(fast.run_to_cycle(target));
            assert_eq!(slow.cycle(), fast.cycle());
            assert_eq!(slow.committed(), fast.committed());
            assert_eq!(slow.memory_digest(), fast.memory_digest());
            assert_eq!(
                slow.snapshot_wire(),
                fast.snapshot_wire(),
                "whole state at cycle {target}"
            );
        }
    }

    #[test]
    fn checkpoint_store_nearest_picks_floor() {
        let cfg = MachineConfig::baseline();
        let p = counted_loop();
        let (golden, store) = golden_run_checkpointed(&cfg, &p, 10_000, 50);
        let (c0, _) = store.nearest(0).expect("cycle-0 checkpoint");
        assert_eq!(c0, 0);
        let (c, _) = store.nearest(golden.cycles).expect("some checkpoint");
        assert!(c <= golden.cycles);
        let (c49, _) = store.nearest(49).expect("floor of 49");
        assert_eq!(c49, 0, "no checkpoint strictly between 0 and 50");
    }

    #[test]
    fn checkpoint_store_wire_round_trips() {
        let cfg = MachineConfig::baseline();
        let p = counted_loop();
        let (_, store) = golden_run_checkpointed(&cfg, &p, 10_000, 40);
        let mut w = avf_isa::wire::WireWriter::new();
        store.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = avf_isa::wire::WireReader::new(&bytes);
        let back = CheckpointStore::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.interval(), store.interval());
        assert_eq!(back.len(), store.len());
        // The decoded store restores simulators exactly like the original.
        back.decode_all(&cfg, &p).expect("blobs decode");
        for cut in [0, 8, bytes.len() - 1] {
            let mut r = avf_isa::wire::WireReader::new(&bytes[..cut]);
            assert!(CheckpointStore::decode(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn injection_target_wire_codes_round_trip() {
        for t in InjectionTarget::ALL {
            let mut w = WireWriter::new();
            w.code(&InjectionTarget::ALL, t);
            let bytes = w.into_bytes();
            assert_eq!(WireReader::new(&bytes).code(&InjectionTarget::ALL), Ok(t));
        }
        assert_eq!(
            WireReader::new(&[200]).code(&InjectionTarget::ALL),
            Err(WireError::BadTag(200))
        );
    }

    #[test]
    fn vacant_entries_mask() {
        let cfg = MachineConfig::baseline();
        let p = counted_loop();
        let mut sim = InjectionSim::new(&cfg, &p, 10_000);
        // Cycle 0: nothing is in flight yet.
        assert_eq!(
            sim.flip_bit(InjectionTarget::Rob, 50, 3),
            FlipEffect::Masked(MaskReason::Vacant)
        );
        assert_eq!(
            sim.flip_bit(InjectionTarget::Dtlb, 200, 3),
            FlipEffect::Masked(MaskReason::Vacant)
        );
    }
}
