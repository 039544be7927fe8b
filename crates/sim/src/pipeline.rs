//! The cycle loop: fetch → rename/dispatch → issue → execute → commit, with
//! oracle-driven wrong-path modeling and ACE event emission.
//!
//! Instructions are functionally executed by an architectural oracle at
//! fetch (SimpleScalar-style), so branch outcomes and effective addresses
//! are known up front; the pipeline models timing. Because the oracle walks
//! the committed path, every fetched instruction is known to be right- or
//! wrong-path immediately, wrong-path work occupies resources until the
//! mispredicted branch resolves, and only committed instructions reach the
//! ACE analyzer.

use std::collections::VecDeque;

use avf_ace::{
    AceConfig, AceKind, AvfAnalyzer, InstrRecord, MemRef, Slice, Structure, StructureSizes,
};
use avf_isa::wire::{kind, WireError, WireReader, WireWriter};
use avf_isa::{text_addr, ExecState, Memory, OpClass, Opcode, Program};

use crate::bpred::BranchPredictor;
use crate::caches::Cache;
use crate::config::MachineConfig;
use crate::dtlb::Dtlb;
use crate::dyninst::{DynInst, Stage};
use crate::regfile::PhysRegFile;
use crate::stats::SimStats;

/// Outcome of a simulation: the AVF report and timing statistics.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Per-structure AVF (convert to SER with
    /// [`avf_ace::AvfReport::ser`]).
    pub report: avf_ace::AvfReport,
    /// Timing statistics.
    pub stats: SimStats,
}

/// How a [`Pipeline::replay_forward`] walk ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReplayEnd {
    /// The corrupted dataflow was replayed through the in-flight window
    /// and folded into the oracle frontier; the run decides the outcome.
    Applied,
    /// A re-executed branch changed direction: the machine's fetched
    /// history no longer matches the corrupted dataflow.
    ControlDiverged {
        /// Sequence number of the diverging branch.
        #[allow(dead_code)]
        at_seq: u64,
    },
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Recovery {
    resume_cycle: u64,
    pc: u32,
}

/// An injected cache-array fault whose fate follows the line: a dirty
/// eviction writes the corruption back (it persists), a clean eviction
/// discards it (the next fill restores clean data), so the flip must be
/// reverted from the merged oracle memory image.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CacheFault {
    /// `true` for DL1, `false` for L2.
    pub(crate) dl1: bool,
    /// Base address of the corrupted line.
    pub(crate) line_base: u64,
    /// Byte address of the flipped bit.
    pub(crate) addr: u64,
    /// Bit mask within the byte.
    pub(crate) mask: u8,
}

pub(crate) struct Pipeline<'a> {
    pub(crate) cfg: &'a MachineConfig,
    pub(crate) program: &'a Program,
    pub(crate) sizes: StructureSizes,
    pub(crate) oracle: ExecState,
    pub(crate) oracle_mem: Memory,
    /// `None` in fault-injection runs: injection needs cheap snapshots
    /// and thousands of re-executions, not ACE bookkeeping.
    pub(crate) analyzer: Option<AvfAnalyzer>,
    /// Fault-injection mode: modeling anomalies (deadlock, oracle
    /// faults, poisoned TLB hits) become a recorded trap instead of a
    /// panic, and fetch stops at the instruction budget so the
    /// architectural memory state is timing-independent.
    pub(crate) fault_mode: bool,
    /// An injected fault was detected (DUE): wrong translation consumed,
    /// corrupted control state, pipeline hang.
    pub(crate) trapped: bool,
    /// Oracle executions after which fetch stops (fault mode only).
    pub(crate) fetch_budget: u64,
    pub(crate) bpred: BranchPredictor,
    pub(crate) l1i: Cache,
    pub(crate) dl1: Cache,
    pub(crate) l2: Cache,
    pub(crate) dtlb: Dtlb,
    pub(crate) rf: PhysRegFile,
    pub(crate) fetch_queue: VecDeque<DynInst>,
    pub(crate) rob: VecDeque<DynInst>,
    pub(crate) iq_count: usize,
    pub(crate) lq_count: usize,
    pub(crate) sq_count: usize,
    pub(crate) cycle: u64,
    pub(crate) seq: u64,
    pub(crate) fetch_pc: u32,
    pub(crate) fetch_stalled_until: u64,
    pub(crate) last_fetch_line: Option<u64>,
    pub(crate) wrong_path_mode: bool,
    pub(crate) recovery: Option<Recovery>,
    pub(crate) fetch_done: bool,
    pub(crate) halted: bool,
    pub(crate) last_commit_cycle: u64,
    /// Injected cache faults still resident in their line (fault mode).
    pub(crate) cache_faults: Vec<CacheFault>,
    pub(crate) stats: SimStats,
}

impl<'a> Pipeline<'a> {
    pub(crate) fn new(
        cfg: &'a MachineConfig,
        program: &'a Program,
        ace_config: AceConfig,
    ) -> Pipeline<'a> {
        Pipeline::new_inner(cfg, program, Some(ace_config))
    }

    /// Builds a pipeline for fault-injection runs: no ACE analyzer, a
    /// fetch budget of `fetch_budget` oracle executions, and graceful
    /// trap handling instead of panics.
    pub(crate) fn new_faulty(
        cfg: &'a MachineConfig,
        program: &'a Program,
        fetch_budget: u64,
    ) -> Pipeline<'a> {
        let mut p = Pipeline::new_inner(cfg, program, None);
        p.fault_mode = true;
        p.fetch_budget = fetch_budget;
        p
    }

    fn new_inner(
        cfg: &'a MachineConfig,
        program: &'a Program,
        ace_config: Option<AceConfig>,
    ) -> Pipeline<'a> {
        let mut oracle_mem = Memory::new();
        let oracle = ExecState::new(program, &mut oracle_mem);
        let sizes = cfg.structure_sizes();
        let analyzer =
            ace_config.map(|ace| AvfAnalyzer::with_config(program.name(), sizes.clone(), ace));
        Pipeline {
            cfg,
            program,
            sizes,
            fetch_pc: oracle.pc,
            oracle,
            oracle_mem,
            analyzer,
            fault_mode: false,
            trapped: false,
            fetch_budget: u64::MAX,
            bpred: BranchPredictor::new(cfg.bpred.clone()),
            l1i: Cache::new(&cfg.l1i),
            dl1: Cache::new(&cfg.dl1),
            l2: Cache::new(&cfg.l2),
            dtlb: Dtlb::new(cfg.dtlb_entries, cfg.page_bytes),
            rf: PhysRegFile::new(cfg.phys_regs, 64),
            fetch_queue: VecDeque::with_capacity(cfg.fetch_queue),
            rob: VecDeque::with_capacity(cfg.rob_entries),
            iq_count: 0,
            lq_count: 0,
            sq_count: 0,
            cycle: 0,
            seq: 0,
            fetch_stalled_until: 0,
            last_fetch_line: None,
            wrong_path_mode: false,
            recovery: None,
            fetch_done: false,
            halted: false,
            last_commit_cycle: 0,
            cache_faults: Vec::new(),
            stats: SimStats::default(),
        }
    }

    /// Settles any injected fault in an evicted line. A clean eviction
    /// discards the corrupted line — the fault dies with it. A dirty
    /// DL1 eviction writes the line (fault included) back into the L2;
    /// a dirty L2 eviction writes it back to main memory, at which
    /// point the corruption becomes architectural.
    fn settle_cache_fault(&mut self, dl1: bool, victim_base: u64, dirty: bool) {
        if self.cache_faults.is_empty() {
            return;
        }
        let mut demoted: Vec<CacheFault> = Vec::new();
        let mut escaped: Vec<(u64, u8)> = Vec::new();
        self.cache_faults.retain(|f| {
            if f.line_base != victim_base {
                return true;
            }
            if f.dl1 != dl1 {
                // A dirty DL1 writeback replaces the whole L2 line, so
                // whatever fault state the L2 held for it (e.g. the
                // original of a fault propagated into the DL1 on fill)
                // is superseded by the DL1 copy being demoted below —
                // keeping it would double-apply the flip or resurrect a
                // store-repaired one.
                return !(dl1 && dirty && !f.dl1);
            }
            if dirty {
                if dl1 {
                    demoted.push(CacheFault { dl1: false, ..*f });
                } else {
                    escaped.push((f.addr, f.mask));
                }
            }
            false
        });
        self.cache_faults.extend(demoted);
        for (addr, mask) in escaped {
            let byte = self.oracle_mem.read_u8(addr);
            self.oracle_mem.write_u8(addr, byte ^ mask);
        }
    }

    /// A DL1 fill reads the line out of the L2: any injected L2 fault
    /// on it is copied into the new DL1-resident line.
    fn propagate_l2_faults_into_dl1(&mut self, line_base: u64) {
        let copies: Vec<CacheFault> = self
            .cache_faults
            .iter()
            .filter(|f| !f.dl1 && f.line_base == line_base)
            .map(|f| CacheFault { dl1: true, ..*f })
            .collect();
        self.cache_faults.extend(copies);
    }

    /// XOR mask (in loaded-value bit order) of the injected DL1 faults
    /// a load of `bytes` bytes at `ea` consumes.
    fn consumed_load_fault_mask(&self, ea: u64, bytes: u64) -> u64 {
        let line = self.dl1.line_base(ea);
        let mut xor = 0u64;
        for f in &self.cache_faults {
            if f.dl1 && f.line_base == line && f.addr >= ea && f.addr < ea + bytes {
                xor |= u64::from(f.mask) << ((f.addr - ea) * 8);
            }
        }
        xor
    }

    /// A committed store overwrites the faulted bytes it covers: those
    /// faults are repaired in place.
    fn clear_overwritten_faults(&mut self, ea: u64, bytes: u64) {
        self.cache_faults
            .retain(|f| !(f.dl1 && f.addr >= ea && f.addr < ea + bytes));
    }

    /// Corrupts the in-flight instruction's destination value through
    /// the rename map, provided that value is still the newest
    /// definition of its architectural register (otherwise the fault is
    /// masked by overwrite).
    pub(crate) fn corrupt_dest_value(&mut self, idx: usize, xor: u64) -> bool {
        let e = &self.rob[idx];
        let (Some(dest), Some(preg)) = (e.inst.dest_reg(), e.dest_preg) else {
            return false;
        };
        if self.rf.rename_src(dest.number()) != preg {
            return false;
        }
        self.oracle.regs[dest.index()] ^= xor;
        true
    }

    /// The value a physical register holds, as the replay oracle sees
    /// it: the fetch-time result of its in-flight definition, or — for a
    /// committed definition that is still the newest mapping of its
    /// architected register — the frontier architectural value. A
    /// register holding no reachable definition (free, superseded, or a
    /// never-executed wrong-path def) reads its stale content, modeled
    /// deterministically as zero (cold-file stale-value model).
    pub(crate) fn preg_value(&self, preg: u32) -> u64 {
        if let Some(e) = self.rob.iter().find(|e| e.dest_preg == Some(preg)) {
            return e.outcome.map_or(0, |o| o.value);
        }
        match self.rf.arch_of_newest(preg) {
            Some(arch) => self.oracle.regs[usize::from(arch)],
            None => 0,
        }
    }

    /// Replays the in-flight dependence cone of a corrupted definition.
    ///
    /// `delta` maps architected registers to corrupted values as of
    /// program-order position `after_seq`. The walk visits every
    /// younger right-path in-flight instruction (ROB then fetch queue —
    /// together the whole window, in ascending sequence order):
    ///
    /// * an instruction that has **not yet read its operands** (still in
    ///   the IQ, or fetched but not dispatched) and sources a corrupted
    ///   register is re-executed from its recorded fetch-time operands
    ///   with the corrupted ones patched in ([`avf_isa::replay_eval`]),
    ///   its outcome updated in place, and its own result added to (or
    ///   removed from) the delta;
    /// * an instruction that already issued read its operands before the
    ///   flip landed, so its (clean) definition re-establishes the
    ///   architectural value and kills the delta for its register;
    /// * a re-executed branch whose direction changes diverges from the
    ///   already-fetched path — the walk stops and reports it (the
    ///   caller records a detected error: this simplified oracle cannot
    ///   re-steer fetch history).
    ///
    /// Whatever survives the window is the register image future fetches
    /// execute against, so it is folded into the oracle frontier.
    ///
    /// Two documented approximations: a re-executed store's *original*
    /// (clean) write is not un-written, matching the store-tag fault
    /// model; and a re-executed load reads frontier memory, which may
    /// already include younger in-flight stores.
    pub(crate) fn replay_forward(
        &mut self,
        after_seq: u64,
        mut delta: Vec<(u8, u64)>,
    ) -> ReplayEnd {
        let rob_len = self.rob.len();
        let total = rob_len + self.fetch_queue.len();
        for i in 0..total {
            if delta.is_empty() {
                break;
            }
            let (inst, pc, seq, skip, not_yet_read, src_vals, out) = {
                let d = if i < rob_len {
                    &self.rob[i]
                } else {
                    &self.fetch_queue[i - rob_len]
                };
                (
                    d.inst,
                    d.pc,
                    d.seq,
                    d.seq <= after_seq || d.wrong_path || d.outcome.is_none(),
                    d.stage == Stage::InIq || i >= rob_len,
                    d.src_vals,
                    d.outcome,
                )
            };
            if skip {
                continue;
            }
            let out = out.expect("skip covers missing outcomes");
            let srcs = inst.src_regs();
            let patched = |slot: usize| -> Option<u64> {
                let r = srcs[slot]?;
                delta
                    .iter()
                    .find(|&&(dr, _)| dr == r.number())
                    .map(|&(_, v)| v)
            };
            let corrupt = [patched(0), patched(1)];
            if not_yet_read && (corrupt[0].is_some() || corrupt[1].is_some()) {
                let s1 = corrupt[0].unwrap_or(src_vals[0]);
                let s2 = corrupt[1].unwrap_or(src_vals[1]);
                let new_out = avf_isa::replay_eval(&inst, pc, s1, s2, &self.oracle_mem);
                if inst.op.is_branch() && new_out.taken != out.taken {
                    return ReplayEnd::ControlDiverged { at_seq: seq };
                }
                if inst.op.is_store() {
                    // The corrupted store data/address reaches memory;
                    // the original write stays (documented above).
                    let ea = new_out.ea.expect("store has an effective address");
                    match new_out.size.expect("store has a size") {
                        avf_isa::AccessSize::Word => {
                            self.oracle_mem.write_u32(ea, new_out.value as u32);
                        }
                        avf_isa::AccessSize::Quad => self.oracle_mem.write_u64(ea, new_out.value),
                    }
                }
                if let Some(dest) = inst.dest_reg() {
                    delta.retain(|&(r, _)| r != dest.number());
                    if new_out.value != out.value {
                        delta.push((dest.number(), new_out.value));
                    }
                }
                let d = if i < rob_len {
                    &mut self.rob[i]
                } else {
                    &mut self.fetch_queue[i - rob_len]
                };
                d.outcome = Some(new_out);
            } else if let Some(dest) = inst.dest_reg() {
                // Clean inputs (or operands read before the flip): this
                // definition re-establishes the architectural value.
                delta.retain(|&(r, _)| r != dest.number());
            }
        }
        for (r, v) in delta {
            self.oracle.regs[usize::from(r)] = v;
        }
        ReplayEnd::Applied
    }

    /// Whether the run is over: clean halt, commit budget reached, or a
    /// trap in fault mode.
    pub(crate) fn done(&self, max_instructions: u64) -> bool {
        self.halted || self.trapped || self.stats.committed >= max_instructions
    }

    /// Advances the machine by exactly one cycle.
    ///
    /// # Panics
    ///
    /// Panics on a modeling deadlock outside fault mode (in fault mode a
    /// deadlock is an injected-fault symptom and sets the trap flag).
    pub(crate) fn tick(&mut self, max_instructions: u64) {
        let committed_before = self.stats.committed;
        self.commit_stage(max_instructions);
        self.writeback_stage();
        self.issue_stage();
        self.dispatch_stage();
        self.fetch_stage();
        if self.stats.committed > committed_before {
            self.last_commit_cycle = self.cycle;
        }
        let stall_limit = 64 * u64::from(self.cfg.mem_latency) + 100_000;
        if self.cycle - self.last_commit_cycle >= stall_limit {
            if self.fault_mode {
                self.trapped = true;
            } else {
                panic!(
                    "pipeline deadlock at cycle {} (pc {}, rob {}, iq {})",
                    self.cycle,
                    self.fetch_pc,
                    self.rob.len(),
                    self.iq_count
                );
            }
        }
        // Occupancy means only feed the ACE/occupancy reports of an
        // analyzer run; injection trials never read them, so fault-mode
        // pipelines skip the four per-cycle sums (a measurable win at
        // campaign trial counts — the sums sit on the only per-cycle
        // unconditional path besides the stage walk itself).
        if !self.fault_mode {
            self.stats.rob_occ_sum += self.rob.len() as u64;
            self.stats.iq_occ_sum += self.iq_count as u64;
            self.stats.lq_occ_sum += self.lq_count as u64;
            self.stats.sq_occ_sum += self.sq_count as u64;
        }
        self.cycle += 1;
    }

    /// Generous cycle safety net for a `max_instructions` run: every
    /// committed instruction needs far fewer cycles than a full memory
    /// round trip.
    pub(crate) fn default_cycle_limit(&self, max_instructions: u64) -> u64 {
        max_instructions
            .saturating_mul(4 * u64::from(self.cfg.mem_latency))
            .saturating_add(100_000)
    }

    pub(crate) fn run(mut self, max_instructions: u64) -> SimResult {
        let max_cycles = self.default_cycle_limit(max_instructions);
        while !self.done(max_instructions) && self.cycle < max_cycles {
            self.tick(max_instructions);
        }
        self.stats.cycles = self.cycle.max(1);
        let recs = self.rf.drain_lifetimes();
        // Fault-mode pipelines (analyzer = None) end through the
        // injection engine's classification path, never through run():
        // a fabricated empty analyzer here would silently report ~0 AVF.
        let mut analyzer = self
            .analyzer
            .take()
            .expect("run() requires the ACE analyzer; fault-mode runs use InjectionSim");
        for rec in recs {
            analyzer.preg_freed(rec);
        }
        let report = analyzer.finish(self.stats.cycles);
        SimResult {
            report,
            stats: self.stats,
        }
    }

    // ---- commit ---------------------------------------------------------

    fn commit_stage(&mut self, max_instructions: u64) {
        let mut committed = 0;
        while committed < self.cfg.commit_width
            && self.stats.committed < max_instructions
            && self.rob.front().is_some_and(|e| e.is_complete(self.cycle))
        {
            let entry = self.rob.pop_front().expect("checked non-empty");
            debug_assert!(!entry.wrong_path, "wrong-path instruction reached commit");
            self.commit_one(entry);
            committed += 1;
            if self.halted {
                break;
            }
        }
    }

    fn commit_one(&mut self, e: DynInst) {
        let cycle = self.cycle;
        let op = e.inst.op;
        let kind = match op.class() {
            OpClass::Branch => AceKind::Branch,
            OpClass::Store => AceKind::Store,
            OpClass::Nop => AceKind::Nop,
            OpClass::Halt => AceKind::Halt,
            OpClass::IntShort | OpClass::IntLong | OpClass::Load => AceKind::Value,
        };

        let mut rec = InstrRecord::of_kind(kind);
        for (slot, src) in e.inst.src_regs().into_iter().enumerate() {
            rec.srcs[slot] = src.map(|r| r.number());
        }
        rec.dest = e.inst.dest_reg().map(|r| r.number());
        let mem = e.outcome.and_then(|o| {
            o.ea.map(|ea| MemRef {
                addr: ea,
                bytes: o.size.map_or(8, |s| s.bytes() as u8),
            })
        });
        rec.mem = mem;

        // Residency intervals (paper Section IV-A occupancy rules).
        let sizes = &self.sizes;
        let rob_bits = sizes.rob_entry_bits;
        let iq_bits = sizes.iq_entry_bits;
        let tag_bits = sizes.lsq_tag_bits;
        let data_bits = sizes.lsq_data_bits;
        let fu_bits = sizes.fu_stage_bits;
        rec.residency.push(Slice {
            structure: Structure::Rob,
            start: e.dispatch_cycle,
            end: cycle,
            bits: rob_bits,
        });
        rec.residency.push(Slice {
            structure: Structure::Iq,
            start: e.dispatch_cycle,
            end: e.issue_cycle,
            bits: iq_bits,
        });
        let op_data_bits = match op.access_size() {
            Some(s) => (s.bits() as u32).min(data_bits),
            None => data_bits,
        };
        match op.class() {
            OpClass::Load => {
                rec.residency.push(Slice {
                    structure: Structure::LqTag,
                    start: e.dispatch_cycle,
                    end: cycle,
                    bits: tag_bits,
                });
                // LQ data holds ACE bits only once the fill returns
                // (Section IV-A.1); a 4-byte load leaves half un-ACE.
                rec.residency.push(Slice {
                    structure: Structure::LqData,
                    start: e.data_return_cycle,
                    end: cycle,
                    bits: op_data_bits,
                });
            }
            OpClass::Store => {
                rec.residency.push(Slice {
                    structure: Structure::SqTag,
                    start: e.dispatch_cycle,
                    end: cycle,
                    bits: tag_bits,
                });
                rec.residency.push(Slice {
                    structure: Structure::SqData,
                    start: e.issue_cycle,
                    end: cycle,
                    bits: op_data_bits,
                });
            }
            OpClass::IntShort | OpClass::IntLong => {
                rec.residency.push(Slice {
                    structure: Structure::Fu,
                    start: e.issue_cycle,
                    end: e.complete_cycle,
                    bits: fu_bits,
                });
            }
            _ => {}
        }

        if let Some(az) = self.analyzer.as_mut() {
            let id = az.commit(rec);
            // Register-file read recording feeds the freed-lifetime
            // reports, so it is only needed when the analysis is on.
            for preg in e.src_pregs.into_iter().flatten() {
                self.rf.record_read(preg, id, e.issue_cycle);
            }
        }
        if let (Some(dest), Some(dest_preg), Some(prev)) = (rec_dest(&e), e.dest_preg, e.prev_preg)
        {
            let freed = self.rf.commit_def(dest, dest_preg, prev);
            if let Some(az) = self.analyzer.as_mut() {
                az.preg_freed(freed);
            }
        }

        // Commit-time (program-ordered) cache and TLB lifetime events.
        if let Some(m) = mem {
            if let Some(az) = self.analyzer.as_mut() {
                let vpn = self.dtlb.vpn(m.addr);
                az.dtlb_read(vpn, cycle);
                match op.class() {
                    OpClass::Load => {
                        az.dl1_read(m.addr, u64::from(m.bytes), cycle);
                    }
                    OpClass::Store => {
                        az.dl1_write(m.addr, u64::from(m.bytes), cycle);
                    }
                    _ => {}
                }
            }
            self.stats.committed_mem_ops += 1;
        }

        match op.class() {
            OpClass::Branch => {
                let taken = e.outcome.map(|o| o.taken).unwrap_or(false);
                self.bpred.update(e.pc, taken);
                self.stats.branches += 1;
                if e.mispredicted {
                    self.stats.mispredicts += 1;
                }
            }
            OpClass::Load => self.lq_count -= 1,
            OpClass::Store => self.sq_count -= 1,
            OpClass::Halt => self.halted = true,
            _ => {}
        }
        self.stats.committed += 1;
    }

    // ---- writeback ------------------------------------------------------

    fn writeback_stage(&mut self) {
        let cycle = self.cycle;
        let mut recover: Option<(u64, u32)> = None;
        for e in self.rob.iter_mut() {
            if e.stage == Stage::Executing && e.complete_cycle <= cycle {
                e.stage = Stage::Complete;
                if let Some(preg) = e.dest_preg {
                    self.rf.set_ready(preg, e.complete_cycle);
                }
                if e.mispredicted && !e.wrong_path {
                    let target = e.outcome.expect("right-path branch has outcome").next_pc;
                    recover = Some((e.seq, target));
                }
            }
        }
        if let Some((branch_seq, target)) = recover {
            self.recover_from(branch_seq, target);
        }
    }

    fn recover_from(&mut self, branch_seq: u64, target: u32) {
        // Squash everything younger than the branch, youngest first.
        while self.rob.back().is_some_and(|e| e.seq > branch_seq) {
            let e = self.rob.pop_back().expect("checked non-empty");
            if e.stage == Stage::InIq {
                self.iq_count -= 1;
            }
            match e.inst.op.class() {
                OpClass::Load => self.lq_count -= 1,
                OpClass::Store => self.sq_count -= 1,
                _ => {}
            }
            if let Some(preg) = e.dest_preg {
                self.rf.squash_dest(preg);
            }
        }
        self.fetch_queue.clear();
        let survivors: Vec<(u8, u32)> = self
            .rob
            .iter()
            .filter_map(|e| match (e.inst.dest_reg(), e.dest_preg) {
                (Some(r), Some(p)) => Some((r.number(), p)),
                _ => None,
            })
            .collect();
        self.rf.rebuild_map(survivors.into_iter());
        self.wrong_path_mode = false;
        self.recovery = Some(Recovery {
            resume_cycle: self.cycle + u64::from(self.cfg.mispredict_penalty),
            pc: target,
        });
    }

    // ---- issue / execute -------------------------------------------------

    fn issue_stage(&mut self) {
        let mut issued = 0u32;
        let mut mem_issued = 0u32;
        let mut alus_free = self.cfg.n_alus;
        let mut muls_free = self.cfg.n_muls;
        let cycle = self.cycle;

        // Borrow dance: collect decisions first, then apply.
        let mut to_issue: Vec<usize> = Vec::new();
        for (idx, e) in self.rob.iter().enumerate() {
            if issued >= self.cfg.issue_width {
                break;
            }
            if e.stage != Stage::InIq {
                continue;
            }
            let ready = e.src_pregs.iter().flatten().all(|&p| self.rf.is_ready(p));
            if !ready {
                continue;
            }
            let ok = match e.inst.op.class() {
                OpClass::IntShort | OpClass::Branch | OpClass::Nop | OpClass::Halt => {
                    if alus_free > 0 {
                        alus_free -= 1;
                        true
                    } else {
                        false
                    }
                }
                OpClass::IntLong => {
                    if muls_free > 0 {
                        muls_free -= 1;
                        true
                    } else {
                        false
                    }
                }
                OpClass::Load | OpClass::Store => {
                    if mem_issued < self.cfg.mem_issue_width {
                        mem_issued += 1;
                        true
                    } else {
                        false
                    }
                }
            };
            if ok {
                to_issue.push(idx);
                issued += 1;
            }
        }

        for idx in to_issue {
            let (op, wrong_path, ea) = {
                let e = &self.rob[idx];
                (e.inst.op, e.wrong_path, e.outcome.and_then(|o| o.ea))
            };
            let (latency, data_return) = self.execute_latency(op, wrong_path, ea, cycle);
            if self.fault_mode && !self.cache_faults.is_empty() && !wrong_path {
                // Injected cache faults interact with the access at its
                // timing-accurate issue point: a load consumes the
                // corrupted bytes it covers, a store repairs them.
                if let (Some(ea), Some(size)) = (ea, op.access_size()) {
                    if op.is_load() {
                        let xor = self.consumed_load_fault_mask(ea, size.bytes());
                        if xor != 0 {
                            self.corrupt_dest_value(idx, xor);
                        }
                    } else {
                        self.clear_overwritten_faults(ea, size.bytes());
                    }
                }
            }
            let e = &mut self.rob[idx];
            e.stage = Stage::Executing;
            e.issue_cycle = cycle;
            e.complete_cycle = cycle + u64::from(latency);
            e.data_return_cycle = data_return;
            self.iq_count -= 1;
        }
    }

    /// Computes execution latency; for right-path memory ops this walks the
    /// cache hierarchy and emits fill/evict lifetime events.
    fn execute_latency(
        &mut self,
        op: Opcode,
        wrong_path: bool,
        ea: Option<u64>,
        cycle: u64,
    ) -> (u32, u64) {
        match op.class() {
            OpClass::IntShort | OpClass::Branch | OpClass::Nop | OpClass::Halt => {
                (self.cfg.alu_latency, 0)
            }
            OpClass::IntLong => (self.cfg.mul_latency, 0),
            OpClass::Load => {
                let lat = match (wrong_path, ea) {
                    (false, Some(ea)) => self.dmem_access(ea, false, cycle),
                    _ => self.cfg.dl1.latency,
                };
                (lat, cycle + u64::from(lat))
            }
            OpClass::Store => {
                if let (false, Some(ea)) = (wrong_path, ea) {
                    // Write-allocate fill happens off the critical path; the
                    // store itself completes out of the store buffer.
                    let _ = self.dmem_access(ea, true, cycle);
                }
                (1, 0)
            }
        }
    }

    /// Walks DTLB → DL1 → L2 → memory for the access at `ea`, updating the
    /// timing state, emitting fill/evict (and L2 read/write) lifetime
    /// events, and returning the total latency.
    fn dmem_access(&mut self, ea: u64, is_write: bool, cycle: u64) -> u32 {
        let mut lat = 0u32;
        let line_bytes = u64::from(self.cfg.dl1.line_bytes);

        let t = self.dtlb.translate(ea);
        if self.dtlb.poison_tripped() {
            // An injected DTLB tag fault was consumed: wrong translation.
            self.trapped = true;
        }
        if !t.hit {
            self.stats.dtlb_misses += 1;
            lat += self.cfg.dtlb_miss_penalty;
            if let Some(az) = self.analyzer.as_mut() {
                if let Some(vpn) = t.evicted {
                    az.dtlb_evict(vpn, cycle + u64::from(lat));
                }
                let vpn = self.dtlb.vpn(ea);
                az.dtlb_fill(vpn, cycle + u64::from(lat));
            }
        }

        lat += self.cfg.dl1.latency;
        self.stats.dl1_accesses += 1;
        let r = self.dl1.access(ea, is_write);
        if r.hit {
            return lat;
        }
        self.stats.dl1_misses += 1;
        let stamp = cycle + u64::from(lat);
        if let Some((victim, dirty)) = r.victim {
            self.settle_cache_fault(true, victim, dirty);
            if let Some(az) = self.analyzer.as_mut() {
                az.dl1_evict(victim, stamp);
            }
            if dirty {
                // Writeback-allocate into the L2.
                let wb = self.l2.access(victim, true);
                if let Some((v2, d2)) = wb.victim {
                    self.settle_cache_fault(false, v2, d2);
                }
                if let Some(az) = self.analyzer.as_mut() {
                    if !wb.hit {
                        if let Some((v2, _)) = wb.victim {
                            az.l2_evict(v2, stamp);
                        }
                        az.l2_fill(victim, stamp);
                    }
                    az.l2_write(victim, line_bytes, stamp);
                }
            }
        }

        self.stats.l2_accesses += 1;
        lat += self.cfg.l2.latency;
        let line = self.dl1.line_base(ea);
        let l2r = self.l2.access(line, false);
        if !l2r.hit {
            self.stats.l2_misses += 1;
            lat += self.cfg.mem_latency;
            let stamp = cycle + u64::from(lat);
            if let Some((v2, d2)) = l2r.victim {
                self.settle_cache_fault(false, v2, d2);
            }
            if let Some(az) = self.analyzer.as_mut() {
                if let Some((v2, _)) = l2r.victim {
                    az.l2_evict(v2, stamp);
                }
                az.l2_fill(line, stamp);
            }
        }
        let stamp = cycle + u64::from(lat);
        if let Some(az) = self.analyzer.as_mut() {
            // The DL1 fill reads the whole line out of the L2.
            az.l2_read(line, line_bytes, stamp);
            az.dl1_fill(line, stamp);
        }
        if self.fault_mode && !self.cache_faults.is_empty() {
            self.propagate_l2_faults_into_dl1(line);
        }
        lat
    }

    // ---- dispatch (rename) ------------------------------------------------

    fn dispatch_stage(&mut self) {
        for _ in 0..self.cfg.dispatch_width {
            let Some(front) = self.fetch_queue.front() else {
                break;
            };
            if self.rob.len() >= self.cfg.rob_entries || self.iq_count >= self.cfg.iq_entries {
                break;
            }
            let class = front.inst.op.class();
            match class {
                OpClass::Load if self.lq_count >= self.cfg.lq_entries => break,
                OpClass::Store if self.sq_count >= self.cfg.sq_entries => break,
                _ => {}
            }
            let needs_preg = front.inst.dest_reg().is_some();
            if needs_preg && self.rf.free_count() == 0 {
                break;
            }

            let mut e = self.fetch_queue.pop_front().expect("checked non-empty");
            for (slot, src) in e.inst.src_regs().into_iter().enumerate() {
                e.src_pregs[slot] = src.map(|r| self.rf.rename_src(r.number()));
            }
            if let Some(dest) = e.inst.dest_reg() {
                let (preg, prev) = self.rf.allocate(dest.number()).expect("free count checked");
                e.dest_preg = Some(preg);
                e.prev_preg = Some(prev);
            }
            e.dispatch_cycle = self.cycle;
            e.stage = Stage::InIq;
            self.iq_count += 1;
            match class {
                OpClass::Load => self.lq_count += 1,
                OpClass::Store => self.sq_count += 1,
                _ => {}
            }
            self.rob.push_back(e);
        }
    }

    // ---- fetch -------------------------------------------------------------

    fn fetch_stage(&mut self) {
        if self.fetch_done && !self.wrong_path_mode && self.recovery.is_none() {
            return;
        }
        if let Some(r) = self.recovery {
            if self.cycle >= r.resume_cycle {
                self.fetch_pc = r.pc;
                self.recovery = None;
                self.fetch_done = false;
            } else {
                return;
            }
        }
        if self.cycle < self.fetch_stalled_until {
            return;
        }
        let mut fetched = 0;
        while fetched < self.cfg.fetch_width && self.fetch_queue.len() < self.cfg.fetch_queue {
            let pc = self.fetch_pc;
            let Some(&inst) = self.program.fetch(pc) else {
                // Wrong-path fetch ran off the text: wait for recovery.
                break;
            };
            // I-cache check, once per line.
            let line = text_addr(pc) / u64::from(self.cfg.l1i.line_bytes);
            if self.last_fetch_line != Some(line) {
                let r = self.l1i.access(text_addr(pc), false);
                self.last_fetch_line = Some(line);
                if !r.hit {
                    self.stats.l1i_misses += 1;
                    let l2r = self.l2.access(text_addr(pc), false);
                    if let Some((v2, d2)) = l2r.victim {
                        // An I-side refill can evict a faulted data line.
                        self.settle_cache_fault(false, v2, d2);
                    }
                    let penalty =
                        self.cfg.l2.latency + if l2r.hit { 0 } else { self.cfg.mem_latency };
                    self.fetch_stalled_until = self.cycle + u64::from(penalty);
                    break;
                }
            }

            let mut e = DynInst::new(self.seq, pc, inst);
            self.seq += 1;
            let right_path = !self.wrong_path_mode;
            e.wrong_path = !right_path;

            if right_path {
                // Record the source values this instruction is about to
                // execute with: the replay oracle re-executes corrupted
                // micro-ops from exactly these.
                for (slot, src) in inst.src_regs().into_iter().enumerate() {
                    if let Some(r) = src {
                        e.src_vals[slot] = self.oracle.regs[r.index()];
                    }
                }
                if self.oracle.retired >= self.fetch_budget {
                    // Fault mode: stop the oracle exactly at the budget so
                    // the final architectural memory state does not depend
                    // on how far fetch happened to run ahead of commit.
                    self.fetch_done = true;
                    break;
                }
                debug_assert_eq!(pc, self.oracle.pc, "oracle and fetch desynchronized");
                let outcome = match self.oracle.exec(self.program, &mut self.oracle_mem) {
                    Ok(o) => o,
                    Err(err) => {
                        if self.fault_mode {
                            // An injected fault drove the PC out of the
                            // text segment: a detected error.
                            self.trapped = true;
                            self.fetch_done = true;
                            break;
                        }
                        panic!("oracle execution failed: {err}");
                    }
                };
                e.outcome = Some(outcome);
                if outcome.halted {
                    self.fetch_done = true;
                }
            } else {
                self.stats.wrong_path_fetched += 1;
            }

            let mut next_pc = pc + 1;
            if inst.op.is_branch() {
                let predicted = inst.op.is_unconditional() || self.bpred.predict(pc);
                e.predicted_taken = predicted;
                next_pc = if predicted { inst.target } else { pc + 1 };
                if right_path {
                    let actual = e.outcome.expect("right path").taken;
                    if predicted != actual {
                        e.mispredicted = true;
                        self.wrong_path_mode = true;
                    }
                }
            }
            let is_halt = inst.op == Opcode::Halt;
            let ends_group = e.predicted_taken;
            self.fetch_queue.push_back(e);
            fetched += 1;
            if is_halt {
                // Halt has no successor; wrong-path halts simply stall fetch
                // until the mispredicted branch recovers.
                break;
            }
            self.fetch_pc = next_pc;
            if ends_group {
                break;
            }
        }
    }
}

fn rec_dest(e: &DynInst) -> Option<u8> {
    e.inst.dest_reg().map(|r| r.number())
}

/// A resumable checkpoint of every piece of owned pipeline state.
///
/// Taken by [`Pipeline::snapshot`] and reinstated by
/// [`Pipeline::restore`]; the fault-injection engine uses it to fork a
/// run at the sampled injection cycle, flip one bit, run the faulty
/// future to completion, and rewind. Snapshots only exist for
/// fault-mode pipelines (no ACE analyzer state is captured).
pub struct PipelineSnapshot {
    oracle: ExecState,
    oracle_mem: Memory,
    trapped: bool,
    bpred: BranchPredictor,
    l1i: Cache,
    dl1: Cache,
    l2: Cache,
    dtlb: Dtlb,
    rf: PhysRegFile,
    fetch_queue: VecDeque<DynInst>,
    rob: VecDeque<DynInst>,
    iq_count: usize,
    lq_count: usize,
    sq_count: usize,
    cycle: u64,
    seq: u64,
    fetch_pc: u32,
    fetch_stalled_until: u64,
    last_fetch_line: Option<u64>,
    wrong_path_mode: bool,
    recovery: Option<Recovery>,
    fetch_done: bool,
    halted: bool,
    last_commit_cycle: u64,
    cache_faults: Vec<CacheFault>,
    stats: SimStats,
}

impl Pipeline<'_> {
    /// Captures the complete owned machine state.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline carries an ACE analyzer (snapshots are a
    /// fault-injection facility; analyzer event streams are
    /// append-only and cannot be rewound).
    pub(crate) fn snapshot(&self) -> PipelineSnapshot {
        assert!(
            self.analyzer.is_none(),
            "snapshot requires a fault-mode pipeline (no ACE analyzer)"
        );
        PipelineSnapshot {
            oracle: self.oracle.clone(),
            oracle_mem: self.oracle_mem.clone(),
            trapped: self.trapped,
            bpred: self.bpred.clone(),
            l1i: self.l1i.clone(),
            dl1: self.dl1.clone(),
            l2: self.l2.clone(),
            dtlb: self.dtlb.clone(),
            rf: self.rf.clone(),
            fetch_queue: self.fetch_queue.clone(),
            rob: self.rob.clone(),
            iq_count: self.iq_count,
            lq_count: self.lq_count,
            sq_count: self.sq_count,
            cycle: self.cycle,
            seq: self.seq,
            fetch_pc: self.fetch_pc,
            fetch_stalled_until: self.fetch_stalled_until,
            last_fetch_line: self.last_fetch_line,
            wrong_path_mode: self.wrong_path_mode,
            recovery: self.recovery,
            fetch_done: self.fetch_done,
            halted: self.halted,
            last_commit_cycle: self.last_commit_cycle,
            cache_faults: self.cache_faults.clone(),
            stats: self.stats.clone(),
        }
    }

    /// Rewinds the machine to a previously captured snapshot.
    pub(crate) fn restore(&mut self, snap: &PipelineSnapshot) {
        self.oracle = snap.oracle.clone();
        self.oracle_mem = snap.oracle_mem.clone();
        self.trapped = snap.trapped;
        self.bpred = snap.bpred.clone();
        self.l1i = snap.l1i.clone();
        self.dl1 = snap.dl1.clone();
        self.l2 = snap.l2.clone();
        self.dtlb = snap.dtlb.clone();
        self.rf = snap.rf.clone();
        self.fetch_queue = snap.fetch_queue.clone();
        self.rob = snap.rob.clone();
        self.iq_count = snap.iq_count;
        self.lq_count = snap.lq_count;
        self.sq_count = snap.sq_count;
        self.cycle = snap.cycle;
        self.seq = snap.seq;
        self.fetch_pc = snap.fetch_pc;
        self.fetch_stalled_until = snap.fetch_stalled_until;
        self.last_fetch_line = snap.last_fetch_line;
        self.wrong_path_mode = snap.wrong_path_mode;
        self.recovery = snap.recovery;
        self.fetch_done = snap.fetch_done;
        self.halted = snap.halted;
        self.last_commit_cycle = snap.last_commit_cycle;
        self.cache_faults = snap.cache_faults.clone();
        self.stats = snap.stats.clone();
    }
}

impl PipelineSnapshot {
    /// Simulated cycle this snapshot was taken at.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Serializes the snapshot to a self-contained byte blob.
    ///
    /// Geometry-independent state only: the decoder reconstructs
    /// configuration-derived shapes (cache/TLB/predictor geometry, the
    /// static instructions) from the same `MachineConfig` and `Program`
    /// it is given, which must match the machine this snapshot was taken
    /// on. This is what lets a campaign shard checkpoints across
    /// processes or machines instead of replaying the fault-free prefix.
    #[must_use]
    pub fn to_wire(&self) -> Vec<u8> {
        WireWriter::frame(kind::SNAPSHOT, |w| {
            self.oracle.encode(w);
            self.oracle_mem.encode(w);
            w.bool(self.trapped);
            self.bpred.encode(w);
            self.l1i.encode(w);
            self.dl1.encode(w);
            self.l2.encode(w);
            self.dtlb.encode(w);
            self.rf.encode(w);
            w.seq(&self.fetch_queue, |w, d| d.encode(w));
            w.seq(&self.rob, |w, d| d.encode(w));
            w.usize(self.iq_count);
            w.usize(self.lq_count);
            w.usize(self.sq_count);
            w.u64(self.cycle);
            w.u64(self.seq);
            w.u32(self.fetch_pc);
            w.u64(self.fetch_stalled_until);
            w.opt(self.last_fetch_line, WireWriter::u64);
            w.bool(self.wrong_path_mode);
            w.opt(self.recovery, |w, r| {
                w.u64(r.resume_cycle);
                w.u32(r.pc);
            });
            w.bool(self.fetch_done);
            w.bool(self.halted);
            w.u64(self.last_commit_cycle);
            w.seq(&self.cache_faults, |w, f| {
                w.bool(f.dl1);
                w.u64(f.line_base);
                w.u64(f.addr);
                w.u8(f.mask);
            });
            self.stats.encode(w);
        })
    }

    /// Decodes a snapshot written by [`PipelineSnapshot::to_wire`] for
    /// the same machine configuration and program.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the blob is truncated, version-skewed,
    /// or inconsistent with `cfg`/`program` geometry.
    pub fn from_wire(
        bytes: &[u8],
        cfg: &MachineConfig,
        program: &Program,
    ) -> Result<PipelineSnapshot, WireError> {
        WireReader::frame(bytes, kind::SNAPSHOT, |r| {
            let oracle = ExecState::decode(r)?;
            let oracle_mem = Memory::decode(r)?;
            let trapped = r.bool()?;
            let bpred = BranchPredictor::decode(r, cfg.bpred.clone())?;
            let l1i = Cache::decode(r, &cfg.l1i)?;
            let dl1 = Cache::decode(r, &cfg.dl1)?;
            let l2 = Cache::decode(r, &cfg.l2)?;
            let dtlb = Dtlb::decode(r, cfg.dtlb_entries, cfg.page_bytes)?;
            let rf = PhysRegFile::decode(r, cfg.phys_regs)?;
            // A DynInst is at least seq + pc + flag/tag bytes + cycles +
            // the two fetch-time source values.
            const DYNINST_MIN_BYTES: usize = 8 + 4 + 6 + 32 + 16;
            let fetch_queue = r.seq(DYNINST_MIN_BYTES, |r| DynInst::decode(r, program))?;
            let rob = r.seq(DYNINST_MIN_BYTES, |r| DynInst::decode(r, program))?;
            let iq_count = r.usize()?;
            let lq_count = r.usize()?;
            let sq_count = r.usize()?;
            let cycle = r.u64()?;
            let seq = r.u64()?;
            let fetch_pc = r.u32()?;
            let fetch_stalled_until = r.u64()?;
            let last_fetch_line = r.opt(WireReader::u64)?;
            let wrong_path_mode = r.bool()?;
            let recovery = r.opt(|r| {
                Ok(Recovery {
                    resume_cycle: r.u64()?,
                    pc: r.u32()?,
                })
            })?;
            let fetch_done = r.bool()?;
            let halted = r.bool()?;
            let last_commit_cycle = r.u64()?;
            let cache_faults = r.seq(1 + 8 + 8 + 1, |r| {
                Ok(CacheFault {
                    dl1: r.bool()?,
                    line_base: r.u64()?,
                    addr: r.u64()?,
                    mask: r.u8()?,
                })
            })?;
            let stats = SimStats::decode(r)?;
            Ok(PipelineSnapshot {
                oracle,
                oracle_mem,
                trapped,
                bpred,
                l1i,
                dl1,
                l2,
                dtlb,
                rf,
                fetch_queue: fetch_queue.into(),
                rob: rob.into(),
                iq_count,
                lq_count,
                sq_count,
                cycle,
                seq,
                fetch_pc,
                fetch_stalled_until,
                last_fetch_line,
                wrong_path_mode,
                recovery,
                fetch_done,
                halted,
                last_commit_cycle,
                cache_faults,
                stats,
            })
        })
    }
}
