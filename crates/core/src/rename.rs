//! The rename/release engine.
//!
//! [`RenameUnit`] implements the policy-*independent* allocate/release
//! machinery for both register classes — free lists, speculative and
//! in-order map tables, the rename-side reorder-structure book, per-branch
//! map checkpoints, occupancy and release accounting — and delegates every
//! release *decision* to a pluggable [`ReleaseScheme`] built from the
//! policy [registry]:
//!
//! * **Conventional** (Section 2): a redefinition allocates a new physical
//!   register and the previous version (`old_pd`) is released when the
//!   redefinition commits.
//! * **Basic** (Section 3): when the redefinition (NV) is decoded and no
//!   unverified branch separates it from the last use (LU) of the previous
//!   version, the release is retimed to the LU's commit via the
//!   `rel1/rel2/reld` bits — or performed immediately (optionally *reusing*
//!   the register) if the LU has already committed.  Otherwise the
//!   conventional path is used.
//! * **Extended** (Section 4): the conventional path is removed entirely.
//!   Redefinitions decoded under pending branches schedule *conditional*
//!   releases in the [Release Queue](crate::release_queue::ReleaseQueue)
//!   which are cancelled by mispredictions and performed at LU commit /
//!   oldest-branch confirmation otherwise.
//! * **Oracle** / **Counter** and any future scheme: see
//!   [`crate::schemes`] and `docs/POLICIES.md` — they plug in here without
//!   engine changes.
//!
//! The unit also deals with the two recovery mechanisms the paper requires:
//! branch misprediction recovery through per-branch checkpoints of the Map
//! Table, scheme state and stale-mapping flags, and precise-exception
//! recovery through the In-Order Map Table (Section 4.3).
//!
//! ## Stale architectural mappings
//!
//! The paper's Section 4.3 observes that after an early release the value
//! "attached" to a logical register may be garbage, which is safe because the
//! first use of that register on the committed path is guaranteed to be a
//! write.  One consequence (implicit in the paper) is that a logical register
//! may map to a physical register that has already been handed back to the
//! free list: after a precise exception restores the map from the In-Order
//! Map Table, and — under oracle-style schemes that release *before* the
//! redefinition is even decoded — in the speculative map itself.  The mapping
//! is *stale*: it will never be read, but the next redefinition of that
//! logical register must not release (or reuse) the stale register — it is
//! no longer owned by this logical register.  The unit tracks this with a
//! per-logical-register `skip_release` flag that is set during exception
//! recovery (from the non-speculative `arch_released` flag) and when a
//! scheme-requested commit release outruns the redefinition, checkpointed
//! across branches, and consumed by the next redefinition.

use crate::free_list::FreeList;
use crate::map_table::MapTablePair;
use crate::registry;
use crate::regstate::{OccupancyTotals, OccupancyTracker};
use crate::ros::{DstRename, RosBook, RosEntry};
use crate::scheme::{DestPlan, DestQuery, ReleaseScheme, SchemeSeed};
use crate::stats::ReleaseStats;
use crate::types::{InstrId, PhysReg, ReleaseReason, RenameConfig, RenameStall, UseKind};
use earlyreg_isa::{ArchReg, Instruction, RegClass};
use std::collections::VecDeque;

/// A physical register returned to the free list (or reused), with the reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReleaseEvent {
    /// Register class.
    pub class: RegClass,
    /// The physical register.
    pub phys: PhysReg,
    /// Why it was released.
    pub reason: ReleaseReason,
}

/// Result of renaming one instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RenamedInstr {
    /// The dynamic instruction identifier assigned by the rename unit.
    pub id: InstrId,
    /// First source operand: logical register and the physical register that
    /// holds its value.
    pub src1: Option<(ArchReg, PhysReg)>,
    /// Second source operand.
    pub src2: Option<(ArchReg, PhysReg)>,
    /// Destination rename, if the instruction writes a register.
    pub dst: Option<DstRename>,
}

/// Result of committing one instruction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommitOutcome {
    /// Registers released by this commit (early bits, RwC0, scheme-requested
    /// releases and/or the conventional `old_pd` release).
    pub released: Vec<ReleaseEvent>,
}

/// Result of a recovery action (branch misprediction or exception).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryOutcome {
    /// Number of in-flight instructions squashed.
    pub squashed: usize,
    /// Registers freed because their allocating instruction was squashed.
    pub freed: Vec<ReleaseEvent>,
}

/// Per-branch checkpoint of the speculative rename state the *engine* owns
/// (the scheme checkpoints its own state through
/// [`ReleaseScheme::on_branch_renamed`]).
///
/// Checkpoints are *journaled*, not copied: a checkpoint is just a position
/// in the undo journal.  Rolling back to a branch replays the journal suffix
/// after its mark in reverse, then re-derives the stale-mapping flags for
/// entries that name freed registers (see
/// [`RenameUnit::recover_branch_mispredict`]).  This turns the per-branch
/// cost from O(map size) copies into O(mutations actually made under the
/// branch), which the profiler showed dominating the rename phase.
#[derive(Debug, Clone, Copy)]
struct Checkpoint {
    branch_id: InstrId,
    /// Absolute journal position (`journal_base`-relative indices are
    /// recovered by subtracting the base) at which this checkpoint was
    /// taken.  Rolling back undoes every journal entry at or after `mark`.
    mark: u64,
}

/// One undoable speculative mutation, recorded while at least one branch
/// checkpoint is live.  `Map`/`SkipConsumed` restore rename-time mutations;
/// `PatchRelease` records a commit-time scheme release performed under a
/// live checkpoint (it restores nothing at rollback — the freed register is
/// re-flagged by the rollback coherence scan — but lets
/// [`RenameUnit::check_checkpoint_coherence`] reconstruct which checkpoint
/// states legitimately name a freed register).
#[derive(Debug, Clone, Copy)]
enum JournalEntry {
    /// The speculative map of `reg` was redirected away from `old`.
    Map { reg: ArchReg, old: PhysReg },
    /// The stale-mapping flag of `reg` was consumed (true → false) by its
    /// redefinition.
    SkipConsumed { reg: ArchReg },
    /// `phys` was released by a commit-time scheme release while this
    /// journal position was live.
    PatchRelease { class: RegClass, phys: PhysReg },
}

/// Per-class rename state.
#[derive(Debug, Clone)]
struct Bank {
    free: FreeList,
    maps: MapTablePair,
    occupancy: OccupancyTracker,
    /// Non-speculative: the architectural (IOMT) version of this logical
    /// register has been freed early and its redefinition has not committed.
    arch_released: Vec<bool>,
    /// Non-speculative: the architectural version of this logical register is
    /// still allocated but its *value* may have been clobbered by a reuse
    /// (Section 3.2) whose redefinition has not committed yet.
    arch_clobbered: Vec<bool>,
    /// Speculative (checkpointed): the current front-map entry for this
    /// logical register is stale and must not be released or reused by its
    /// next redefinition.
    skip_release: Vec<bool>,
}

impl Bank {
    fn new(class: RegClass, phys: usize) -> Self {
        let logical = class.num_logical();
        Bank {
            free: FreeList::new(phys, logical),
            maps: MapTablePair::new(class),
            occupancy: OccupancyTracker::new(phys, logical),
            arch_released: vec![false; logical],
            arch_clobbered: vec![false; logical],
            skip_release: vec![false; logical],
        }
    }
}

/// The rename/release engine (see module documentation).
#[derive(Debug, Clone)]
pub struct RenameUnit {
    config: RenameConfig,
    trace_enabled: bool,
    next_id: u64,
    banks: [Bank; 2],
    book: RosBook,
    checkpoints: VecDeque<Checkpoint>,
    scheme: Box<dyn ReleaseScheme>,
    stats: ReleaseStats,
    // Reused result/scratch buffers: the commit/resolve/recovery paths run
    // every simulated cycle, so their outcomes are persistent members
    // returned by reference instead of freshly allocated vectors.
    commit_outcome: CommitOutcome,
    recovery: RecoveryOutcome,
    resolve_released: Vec<ReleaseEvent>,
    squash_scratch: Vec<RosEntry>,
    scheme_releases: Vec<(RegClass, PhysReg)>,
    confirm_release_now: Vec<(RegClass, PhysReg)>,
    confirm_to_rwc0: Vec<(InstrId, u8)>,
    /// Undo journal for speculative mutations made while ≥1 checkpoint is
    /// live.  Confirmed prefixes are drained; `journal_base` is the absolute
    /// position of `journal[0]` so checkpoint marks stay valid across
    /// drains.
    journal: Vec<JournalEntry>,
    journal_base: u64,
}

impl RenameUnit {
    /// Create a rename unit in the reset state: logical register `i` of each
    /// class maps to physical register `i`, everything else is free.  The
    /// release scheme is built from the policy registry with an empty
    /// [`SchemeSeed`]; use [`RenameUnit::with_seed`] for schemes that need
    /// construction data (the registry descriptor's `needs_kill_plan` says
    /// which).
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see
    /// [`RenameConfig::validate`]) or the scheme cannot be built.
    pub fn new(config: RenameConfig) -> Self {
        Self::with_seed(config, SchemeSeed::default())
    }

    /// As [`RenameUnit::new`], with explicit scheme construction data.  A
    /// [`SchemeSeed::scheme_override`] bypasses the registry entirely (a
    /// test-only path used by the conformance harness).
    pub fn with_seed(config: RenameConfig, seed: SchemeSeed) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid rename configuration: {e}"));
        let scheme = match seed.scheme_override {
            Some(ref scheme) => scheme.box_clone(),
            None => registry::build(config.policy, &config, &seed)
                .unwrap_or_else(|e| panic!("cannot build release scheme '{}': {e}", config.policy)),
        };
        RenameUnit {
            trace_enabled: std::env::var_os("EARLYREG_TRACE").is_some(),
            next_id: 0,
            banks: [
                Bank::new(RegClass::Int, config.phys_int),
                Bank::new(RegClass::Fp, config.phys_fp),
            ],
            book: RosBook::new(),
            checkpoints: VecDeque::new(),
            scheme,
            stats: ReleaseStats::default(),
            commit_outcome: CommitOutcome::default(),
            recovery: RecoveryOutcome::default(),
            resolve_released: Vec::new(),
            squash_scratch: Vec::new(),
            scheme_releases: Vec::new(),
            confirm_release_now: Vec::new(),
            confirm_to_rwc0: Vec::new(),
            journal: Vec::new(),
            journal_base: 0,
            config,
        }
    }

    /// Absolute position of the journal end (the mark a checkpoint taken now
    /// would get).
    #[inline]
    fn journal_end(&self) -> u64 {
        self.journal_base + self.journal.len() as u64
    }

    /// Record an undoable speculative mutation.  Only meaningful — and only
    /// paid for — while at least one checkpoint is live; with no live
    /// checkpoint there is nothing to roll back to, so the journal stays
    /// empty.
    #[inline]
    fn journal_push(&mut self, entry: JournalEntry) {
        if !self.checkpoints.is_empty() {
            self.journal.push(entry);
        }
    }

    /// Drop journal entries no live checkpoint can roll back to: everything
    /// before the oldest checkpoint's mark (the whole journal when no
    /// checkpoint is live).
    fn compact_journal(&mut self) {
        match self.checkpoints.front() {
            None => {
                self.journal_base += self.journal.len() as u64;
                self.journal.clear();
            }
            Some(oldest) => {
                let drop = (oldest.mark - self.journal_base) as usize;
                if drop > 0 {
                    self.journal.drain(..drop);
                    self.journal_base = oldest.mark;
                }
            }
        }
    }

    /// The configuration this unit was built with.
    pub fn config(&self) -> &RenameConfig {
        &self.config
    }

    /// The release scheme driving this unit.
    pub fn scheme(&self) -> &dyn ReleaseScheme {
        self.scheme.as_ref()
    }

    /// Release/allocation accounting.
    pub fn stats(&self) -> &ReleaseStats {
        &self.stats
    }

    /// Emit a rename/release event when the `EARLYREG_TRACE` environment
    /// variable is set (a debugging aid; the flag is sampled once at
    /// construction).  The message is built lazily so tracing costs nothing
    /// when disabled.
    fn trace(&self, msg: impl FnOnce() -> String) {
        if self.trace_enabled {
            eprintln!("TRACE {}", msg());
        }
    }

    /// Occupancy (Empty/Ready/Idle) totals for one class as of `now`.
    pub fn occupancy_totals(&self, class: RegClass, now: u64) -> OccupancyTotals {
        self.banks[class.index()].occupancy.totals_at(now)
    }

    /// Number of free physical registers in a class.
    pub fn free_count(&self, class: RegClass) -> usize {
        self.banks[class.index()].free.free_count()
    }

    /// Number of unverified branches currently in flight.
    pub fn pending_branches(&self) -> usize {
        self.checkpoints.len()
    }

    /// Number of in-flight (renamed, not yet committed or squashed)
    /// instructions.
    pub fn in_flight(&self) -> usize {
        self.book.len()
    }

    /// Speculative mapping of a logical register.
    pub fn mapping(&self, reg: ArchReg) -> PhysReg {
        self.banks[reg.class().index()].maps.front.get(reg)
    }

    /// Architectural (in-order) mapping of a logical register.
    pub fn arch_mapping(&self, reg: ArchReg) -> PhysReg {
        self.banks[reg.class().index()].maps.retire.get(reg)
    }

    /// True when the *architectural value* of `reg` is unreliable: its
    /// version was released early, or reused and overwritten, before the
    /// redefinition committed.  The paper's Section 4.3 argues this is safe
    /// precisely because the value is dead (the first use on the committed
    /// path is a write); callers comparing against an architectural golden
    /// model must skip such registers, and no committed instruction may read
    /// them (an invariant the simulator checks at every commit).
    pub fn arch_value_unreliable(&self, reg: ArchReg) -> bool {
        let bank = self.bank(reg.class());
        bank.arch_released[reg.index()] || bank.arch_clobbered[reg.index()]
    }

    /// Total conditional releases currently scheduled in the scheme (the
    /// extended mechanism's Release Queue marks; 0 for schemes without one).
    pub fn release_queue_marks(&self) -> usize {
        self.scheme.release_queue_marks()
    }

    fn bank(&self, class: RegClass) -> &Bank {
        &self.banks[class.index()]
    }

    fn bank_mut(&mut self, class: RegClass) -> &mut Bank {
        &mut self.banks[class.index()]
    }

    // ------------------------------------------------------------------
    // Rename
    // ------------------------------------------------------------------

    /// Plan the destination handling for `instr`, with no side effects.
    /// Stale (post-exception / post-oracle-release) mappings are resolved by
    /// the engine before the scheme is consulted.
    fn plan_dest(&self, instr: &Instruction, dst: ArchReg) -> DestPlan {
        let bank = self.bank(dst.class());
        if bank.skip_release[dst.index()] {
            // The previous version is stale (already released) and must not
            // be touched; the flag is consumed when the plan executes.
            return DestPlan::AllocOnly;
        }
        let old_pd = bank.maps.front.get(dst);
        // `Src2` wins when both sources read the destination, matching the
        // Last-Uses Table record order (src1 then src2 — the later record
        // overwrites).
        let own_use = if instr.src2 == Some(dst) {
            Some(UseKind::Src2)
        } else if instr.src1 == Some(dst) {
            Some(UseKind::Src1)
        } else {
            None
        };
        let query = DestQuery {
            dst,
            old_pd,
            own_use,
            pending_branches: self.checkpoints.len(),
            // Checkpoints are pushed in program order, so the back one is
            // the youngest pending branch.
            newest_branch: self.checkpoints.back().map(|c| c.branch_id),
            reuse_on_committed_lu: self.config.reuse_on_committed_lu,
            old_is_settled_arch: bank.maps.retire.get(dst) == old_pd
                && !bank.arch_released[dst.index()]
                && !bank.arch_clobbered[dst.index()],
        };
        self.scheme.plan_dest(&query)
    }

    /// Can an instruction of this shape be renamed right now?  (Convenience
    /// wrapper used by the fetch/decode stage; [`RenameUnit::rename`] performs
    /// the same checks atomically.)
    pub fn can_rename(&self, instr: &Instruction) -> bool {
        if instr.op.is_cond_branch() && self.checkpoints.len() >= self.config.max_pending_branches {
            return false;
        }
        if let Some(dst) = instr.dst {
            let plan = self.plan_dest(instr, dst);
            if plan.needs_allocation()
                && !plan.frees_before_allocating()
                && self.bank(dst.class()).free.is_empty()
            {
                return false;
            }
        }
        true
    }

    /// Rename one instruction (decode/rename stage).
    ///
    /// On success the instruction becomes the youngest in-flight instruction
    /// and the returned [`RenamedInstr`] carries its operand physical
    /// registers.  On failure nothing is modified and the caller should stall
    /// and retry next cycle.
    pub fn rename(&mut self, instr: &Instruction, cycle: u64) -> Result<RenamedInstr, RenameStall> {
        let is_branch = instr.op.is_cond_branch();
        if is_branch && self.checkpoints.len() >= self.config.max_pending_branches {
            return Err(RenameStall::TooManyPendingBranches);
        }
        let planned = instr.dst.map(|dst| (dst, self.plan_dest(instr, dst)));
        if let Some((dst, plan)) = planned {
            if plan.needs_allocation()
                && !plan.frees_before_allocating()
                && self.bank(dst.class()).free.is_empty()
            {
                return Err(RenameStall::NoFreePhysReg(dst.class()));
            }
        }

        // ---- side effects start here -----------------------------------
        let id = InstrId(self.next_id);
        self.next_id += 1;

        // Read the source mappings.
        let src1 = instr.src1.map(|r| (r, self.mapping(r)));
        let src2 = instr.src2.map(|r| (r, self.mapping(r)));

        // Renaming 1 (sources): let the scheme track the source uses (the
        // Last-Uses Table's "Renaming 1" step, the counter scheme's reader
        // counts, ...).
        if let Some((r, p)) = src1 {
            self.scheme.record_use(r, p, id, UseKind::Src1);
        }
        if let Some((r, p)) = src2 {
            self.scheme.record_use(r, p, id, UseKind::Src2);
        }

        // Renaming 2 (destination): execute the planned release / reuse /
        // allocation.
        let mut own_rel = [false; 3];
        let mut rel_old = false;
        let mut dst_rename = None;
        if let Some((dst, plan)) = planned {
            let class = dst.class();
            if self.bank(class).skip_release[dst.index()] {
                // Consume the stale-mapping flag (the plan is AllocOnly).
                debug_assert_eq!(plan, DestPlan::AllocOnly);
                self.bank_mut(class).skip_release[dst.index()] = false;
                self.journal_push(JournalEntry::SkipConsumed { reg: dst });
            }
            let old_pd = self.bank(class).maps.front.get(dst);
            let renamed = match plan {
                DestPlan::ReleaseAtCommit { fallback } => {
                    if fallback {
                        self.stats.class_mut(class).fallback_to_conventional += 1;
                    }
                    rel_old = true;
                    let phys = self.allocate(class, cycle);
                    DstRename {
                        arch: dst,
                        phys,
                        prev: old_pd,
                        reused: false,
                    }
                }
                DestPlan::AllocOnly => {
                    let phys = self.allocate(class, cycle);
                    DstRename {
                        arch: dst,
                        phys,
                        prev: old_pd,
                        reused: false,
                    }
                }
                DestPlan::EarlyOnSelf { kind } => {
                    // This instruction reads its own destination: it is the
                    // last use of the previous version.
                    own_rel[kind.index()] = true;
                    let phys = self.allocate(class, cycle);
                    DstRename {
                        arch: dst,
                        phys,
                        prev: old_pd,
                        reused: false,
                    }
                }
                DestPlan::EarlyOnLu { lu, kind } => {
                    let entry = self
                        .book
                        .get_mut(lu)
                        .expect("in-flight last use must have a reorder-structure entry");
                    debug_assert!(
                        !entry.rel[kind.index()],
                        "early-release bit set twice on {lu} slot {kind:?}"
                    );
                    entry.rel[kind.index()] = true;
                    let phys = self.allocate(class, cycle);
                    DstRename {
                        arch: dst,
                        phys,
                        prev: old_pd,
                        reused: false,
                    }
                }
                DestPlan::ReleaseNow => {
                    self.free_register(class, old_pd, cycle, ReleaseReason::ImmediateAtDecode);
                    let phys = self.allocate(class, cycle);
                    DstRename {
                        arch: dst,
                        phys,
                        prev: old_pd,
                        reused: false,
                    }
                }
                DestPlan::Reuse => {
                    let bank = self.bank_mut(class);
                    // End the previous version's lifetime and start the new
                    // one in the same register.
                    bank.occupancy
                        .on_release(old_pd, cycle, ReleaseReason::Reused);
                    bank.occupancy.on_allocate(old_pd, cycle);
                    // The architectural value of `dst` will be overwritten by
                    // this (still uncommitted) instruction — the Section 4.3
                    // "safe but imprecise" situation.
                    if bank.maps.retire.get(dst) == old_pd {
                        bank.arch_clobbered[dst.index()] = true;
                    }
                    self.stats
                        .class_mut(class)
                        .record_release(ReleaseReason::Reused);
                    DstRename {
                        arch: dst,
                        phys: old_pd,
                        prev: old_pd,
                        reused: true,
                    }
                }
                DestPlan::Conditional { lu } => {
                    self.scheme.schedule_conditional(class, old_pd, lu);
                    self.stats.class_mut(class).conditional_schedulings += 1;
                    let phys = self.allocate(class, cycle);
                    DstRename {
                        arch: dst,
                        phys,
                        prev: old_pd,
                        reused: false,
                    }
                }
            };
            self.trace(|| {
                format!(
                    "cycle {cycle} RENAME {id} dst {dst} plan {plan:?} old {old_pd} new {} reused {}",
                    renamed.phys, renamed.reused
                )
            });
            // Redirect the map to the new version and record the destination
            // use (the new version's provisional last use is its own
            // producer — the Figure 4.b case).
            let old = self.bank_mut(class).maps.front.set(dst, renamed.phys);
            if old != renamed.phys {
                self.journal_push(JournalEntry::Map { reg: dst, old });
            }
            self.scheme.record_use(dst, renamed.phys, id, UseKind::Dst);
            dst_rename = Some(renamed);
        }

        // Branches: take a checkpoint of the engine's speculative rename
        // state — under journaling just the current journal position — and
        // let the scheme capture its own (LUs Table copy, Release Queue
        // level, ...).
        if is_branch {
            self.checkpoints.push_back(Checkpoint {
                branch_id: id,
                mark: self.journal_end(),
            });
            self.scheme.on_branch_renamed(id);
        }

        self.book.push(RosEntry {
            id,
            srcs: [src1, src2],
            dst: dst_rename,
            is_branch,
            rel: own_rel,
            rel_old,
        });

        Ok(RenamedInstr {
            id,
            src1,
            src2,
            dst: dst_rename,
        })
    }

    fn allocate(&mut self, class: RegClass, cycle: u64) -> PhysReg {
        let bank = self.bank_mut(class);
        let phys = bank
            .free
            .allocate()
            .expect("allocation availability was checked before side effects");
        bank.occupancy.on_allocate(phys, cycle);
        self.stats.class_mut(class).allocations += 1;
        self.trace(|| format!("cycle {cycle} ALLOC {class} {phys}"));
        phys
    }

    fn free_register(&mut self, class: RegClass, phys: PhysReg, cycle: u64, reason: ReleaseReason) {
        let bank = self.bank_mut(class);
        // An early free of the register currently recorded as some logical
        // register's architectural version leaves a stale In-Order Map Table
        // entry behind; remember it for precise-exception recovery.  All
        // matches, not just the first: a recycled register can be named by a
        // stale architectural mapping and the live one at the same time.
        if matches!(
            reason,
            ReleaseReason::ImmediateAtDecode
                | ReleaseReason::EarlyAtLuCommit
                | ReleaseReason::BranchConfirm
        ) {
            let (maps, arch_released) = (&bank.maps, &mut bank.arch_released);
            maps.retire
                .for_each_logical_of(phys, |r| arch_released[r.index()] = true);
        }
        bank.free.release(phys);
        bank.occupancy.on_release(phys, cycle, reason);
        self.stats.class_mut(class).record_release(reason);
        self.trace(|| format!("cycle {cycle} FREE {class} {phys} reason {reason:?}"));
    }

    // ------------------------------------------------------------------
    // Writeback
    // ------------------------------------------------------------------

    /// Record that the value of `(class, phys)` was produced (used only for
    /// the Empty/Ready/Idle occupancy accounting of Figure 3).
    pub fn mark_value_written(&mut self, class: RegClass, phys: PhysReg, cycle: u64) {
        self.bank_mut(class).occupancy.on_write(phys, cycle);
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    /// Commit the oldest in-flight instruction.  `id` must identify it (the
    /// call panics otherwise — commits are in program order by construction).
    ///
    /// The returned outcome borrows a buffer reused by the next `commit`
    /// call; clone it to keep the events around.
    pub fn commit(&mut self, id: InstrId, cycle: u64) -> &CommitOutcome {
        let entry = self.book.pop_head(id);
        // Hook assertion (debug builds only): the register this instruction
        // allocated must still be allocated when it commits — a scheme that
        // freed an in-flight destination has corrupted the free list.
        #[cfg(debug_assertions)]
        if let Some(d) = entry.dst {
            debug_assert!(
                !self.bank(d.arch.class()).free.contains(d.phys),
                "committing {id}: its destination register {} is on the free list",
                d.phys
            );
        }
        self.trace(|| {
            format!(
                "cycle {cycle} COMMIT {id} rel {:?} rel_old {} dst {:?}",
                entry.rel, entry.rel_old, entry.dst
            )
        });
        let mut released = std::mem::take(&mut self.commit_outcome.released);
        released.clear();

        // Occupancy: every operand of a committing instruction counts as a
        // committed use of its physical register.
        for &(arch, phys) in entry.srcs.iter().flatten() {
            self.bank_mut(arch.class())
                .occupancy
                .on_committed_use(phys, cycle);
        }
        if let Some(d) = entry.dst {
            self.bank_mut(d.arch.class())
                .occupancy
                .on_committed_use(d.phys, cycle);
        }

        // Architectural map update (and clearing of the "architectural
        // version released early" flag — a new architectural version exists).
        if let Some(d) = entry.dst {
            let bank = self.bank_mut(d.arch.class());
            bank.maps.retire.set(d.arch, d.phys);
            bank.arch_released[d.arch.index()] = false;
            bank.arch_clobbered[d.arch.index()] = false;
        }

        // Scheme commit step: Last-Uses `C` bits (applied to every
        // checkpoint copy, Section 3.2), Release Queue RwC→RwNS moves
        // (extended Step 5), reader-counter decrements, and — for
        // oracle-style schemes — the registers whose true last use commits
        // here.
        let mut scheme_releases = std::mem::take(&mut self.scheme_releases);
        scheme_releases.clear();
        self.scheme.on_commit(&entry, &mut scheme_releases);
        for &(class, phys) in &scheme_releases {
            self.free_register(class, phys, cycle, ReleaseReason::EarlyAtLuCommit);
            released.push(ReleaseEvent {
                class,
                phys,
                reason: ReleaseReason::EarlyAtLuCommit,
            });
            // A scheme release can outrun the redefinition entirely (the
            // oracle frees at the true last use, which may commit before the
            // redefinition is decoded).  Any speculative map entry still
            // naming the freed register is now stale: flag it so the
            // eventual redefinition neither releases nor reuses it.  *Every*
            // matching entry must be flagged: once a stale mapping to a
            // recycled register coexists with the live one, flagging only
            // the first match would leave the live mapping unprotected.
            // Checkpointed states need no eager patching: a misprediction
            // rollback re-derives the flags for freed registers (the
            // coherence scan in `recover_branch_mispredict`) — the journal
            // only records that the release happened under a live
            // checkpoint, so the coherence probe can tell a legitimate
            // scheme release from a corrupting one.
            let bank = self.bank_mut(class);
            let (maps, skip_release) = (&bank.maps, &mut bank.skip_release);
            maps.front
                .for_each_logical_of(phys, |r| skip_release[r.index()] = true);
            self.journal_push(JournalEntry::PatchRelease { class, phys });
        }
        self.scheme_releases = scheme_releases;

        // Early-release bits (rel1/rel2/reld — RwC0 in the extended scheme).
        for kind in UseKind::ALL {
            if entry.rel[kind.index()] {
                let (arch, phys) = entry
                    .operand_phys(kind)
                    .expect("early-release bit set for a missing operand");
                self.free_register(arch.class(), phys, cycle, ReleaseReason::EarlyAtLuCommit);
                released.push(ReleaseEvent {
                    class: arch.class(),
                    phys,
                    reason: ReleaseReason::EarlyAtLuCommit,
                });
            }
        }

        // Conventional release of the previous version.
        if entry.rel_old {
            if let Some(d) = entry.dst {
                if !d.reused && d.prev != d.phys {
                    self.free_register(d.arch.class(), d.prev, cycle, ReleaseReason::Conventional);
                    released.push(ReleaseEvent {
                        class: d.arch.class(),
                        phys: d.prev,
                        reason: ReleaseReason::Conventional,
                    });
                }
            }
        }

        self.commit_outcome.released = released;
        &self.commit_outcome
    }

    // ------------------------------------------------------------------
    // Branch resolution
    // ------------------------------------------------------------------

    /// The prediction of branch `id` was verified correct.  Returns the
    /// branch-confirm releases (extended mechanism, Step 6); the slice
    /// borrows a buffer reused by the next resolution.
    pub fn resolve_branch_correct(&mut self, id: InstrId, cycle: u64) -> &[ReleaseEvent] {
        let pos = self
            .checkpoints
            .iter()
            .position(|c| c.branch_id == id)
            .unwrap_or_else(|| panic!("branch {id} has no checkpoint to confirm"));
        // Branches can confirm out of order; only removing the *oldest*
        // checkpoint unpins a journal prefix.
        self.checkpoints.remove(pos);
        if pos == 0 {
            self.compact_journal();
        }

        let mut released = std::mem::take(&mut self.resolve_released);
        released.clear();
        let mut release_now = std::mem::take(&mut self.confirm_release_now);
        let mut to_rwc0 = std::mem::take(&mut self.confirm_to_rwc0);
        release_now.clear();
        to_rwc0.clear();
        self.scheme
            .on_branch_correct(id, &mut release_now, &mut to_rwc0);
        for &(class, phys) in &release_now {
            self.free_register(class, phys, cycle, ReleaseReason::BranchConfirm);
            released.push(ReleaseEvent {
                class,
                phys,
                reason: ReleaseReason::BranchConfirm,
            });
        }
        for &(lu, mask) in &to_rwc0 {
            let entry = self
                .book
                .get_mut(lu)
                .expect("an RwC mark always references an in-flight last use");
            for kind in UseKind::ALL {
                if mask & kind.mask() != 0 {
                    entry.rel[kind.index()] = true;
                }
            }
        }
        self.confirm_release_now = release_now;
        self.confirm_to_rwc0 = to_rwc0;
        self.resolve_released = released;
        &self.resolve_released
    }

    /// The prediction of branch `id` was wrong: squash every younger
    /// instruction and restore the speculative rename state from the branch's
    /// checkpoint.  The returned outcome borrows a buffer reused by the next
    /// recovery.
    pub fn recover_branch_mispredict(&mut self, id: InstrId, cycle: u64) -> &RecoveryOutcome {
        self.trace(|| format!("cycle {cycle} MISPREDICT {id}"));
        let mut squashed = std::mem::take(&mut self.squash_scratch);
        self.book.squash_after_into(id, false, &mut squashed);
        let mut freed = std::mem::take(&mut self.recovery.freed);
        freed.clear();
        for entry in &squashed {
            if let Some(d) = entry.dst {
                if !d.reused {
                    self.free_register(
                        d.arch.class(),
                        d.phys,
                        cycle,
                        ReleaseReason::SquashMispredict,
                    );
                    freed.push(ReleaseEvent {
                        class: d.arch.class(),
                        phys: d.phys,
                        reason: ReleaseReason::SquashMispredict,
                    });
                }
            }
        }
        self.scheme.on_squash(&squashed);

        let pos = self
            .checkpoints
            .iter()
            .position(|c| c.branch_id == id)
            .unwrap_or_else(|| panic!("mispredicted branch {id} has no checkpoint"));
        // Checkpoints of squashed (younger) branches disappear; the
        // mispredicted branch's own checkpoint is consumed by the recovery.
        self.checkpoints.truncate(pos + 1);
        let cp = self.checkpoints.pop_back().expect("checkpoint exists");
        // Undo the journal suffix recorded at or after the branch's mark, in
        // reverse: map redirects roll back to the old version, consumed
        // stale-mapping flags are re-armed.  Commit-time release records
        // restore nothing — the commits themselves are not speculative — and
        // for the same reason they must *survive* the rollback: older
        // checkpoints still need to know the release happened, so they are
        // re-appended at the new journal end (which every surviving
        // checkpoint's mark is at or below).
        let mut surviving_patches: Vec<JournalEntry> = Vec::new();
        while self.journal_end() > cp.mark {
            let entry = self.journal.pop().expect("journal reaches every mark");
            match entry {
                JournalEntry::Map { reg, old } => {
                    self.banks[reg.class().index()].maps.front.set(reg, old);
                }
                JournalEntry::SkipConsumed { reg } => {
                    self.banks[reg.class().index()].skip_release[reg.index()] = true;
                }
                JournalEntry::PatchRelease { .. } => surviving_patches.push(entry),
            }
        }
        if !self.checkpoints.is_empty() {
            self.journal.extend(surviving_patches.into_iter().rev());
        }
        self.compact_journal();
        // Coherence scan: re-derive the stale-mapping flags the eager
        // checkpoint copies used to carry.  Any restored map entry naming a
        // register now on the free list is stale — either it was released
        // under the branch (journal records the release) or its flag had
        // been consumed on the wrong path.  A register released early and
        // *reallocated* cannot appear here unflagged: the reallocating
        // instruction is younger than the branch and was just squash-freed,
        // so the register is back on the free list.
        for class in RegClass::ALL {
            let bank = &mut self.banks[class.index()];
            let (free, maps, skip_release) = (&bank.free, &bank.maps, &mut bank.skip_release);
            for (reg, phys) in maps.front.iter() {
                if free.contains(phys) {
                    skip_release[reg.index()] = true;
                }
            }
        }

        self.scheme.on_branch_mispredict(id);
        #[cfg(debug_assertions)]
        self.debug_assert_front_map_coherent("branch-mispredict recovery");

        self.recovery.squashed = squashed.len();
        self.squash_scratch = squashed;
        self.recovery.freed = freed;
        &self.recovery
    }

    // ------------------------------------------------------------------
    // Exception recovery
    // ------------------------------------------------------------------

    /// Precise-exception recovery: every in-flight instruction (including the
    /// faulting one, which has not committed) is squashed and the speculative
    /// map is restored from the In-Order Map Table.  The returned outcome
    /// borrows a buffer reused by the next recovery.
    pub fn recover_exception(&mut self, cycle: u64) -> &RecoveryOutcome {
        let mut squashed = std::mem::take(&mut self.squash_scratch);
        self.book.drain_all_into(&mut squashed);
        let mut freed = std::mem::take(&mut self.recovery.freed);
        freed.clear();
        for entry in &squashed {
            if let Some(d) = entry.dst {
                if !d.reused {
                    self.free_register(
                        d.arch.class(),
                        d.phys,
                        cycle,
                        ReleaseReason::SquashException,
                    );
                    freed.push(ReleaseEvent {
                        class: d.arch.class(),
                        phys: d.phys,
                        reason: ReleaseReason::SquashException,
                    });
                }
            }
        }
        self.checkpoints.clear();
        self.compact_journal();
        self.scheme.on_exception();
        for class in RegClass::ALL {
            let bank = &mut self.banks[class.index()];
            bank.maps.recover_from_retire();
            // Logical registers whose architectural version was freed early
            // now have a stale mapping (paper Section 4.3): their next
            // redefinition must not release or reuse it.
            for r in 0..class.num_logical() {
                bank.skip_release[r] = bank.arch_released[r];
            }
        }
        #[cfg(debug_assertions)]
        self.debug_assert_front_map_coherent("precise-exception recovery");
        self.recovery.squashed = squashed.len();
        self.squash_scratch = squashed;
        self.recovery.freed = freed;
        &self.recovery
    }

    // ------------------------------------------------------------------
    // Inspection probes (conformance harness / tests / debugging)
    // ------------------------------------------------------------------
    //
    // Pull-based: each probe only costs anything when called, so shipping
    // them in release builds is free for the simulator hot loop.  The
    // *push*-based hook assertions (commit-time operand liveness, post-
    // recovery map coherence) are `debug_assertions`-gated below and vanish
    // entirely from release builds.

    /// The in-flight (renamed, not yet committed or squashed) entries,
    /// oldest first — every operand/destination physical register the
    /// rename-side book still references.
    pub fn in_flight_entries(&self) -> impl Iterator<Item = &RosEntry> + '_ {
        self.book.iter()
    }

    /// Ids of the branches with a live engine checkpoint, oldest first.
    pub fn checkpointed_branches(&self) -> impl Iterator<Item = InstrId> + '_ {
        self.checkpoints.iter().map(|c| c.branch_id)
    }

    /// Checkpoint-coherence probe: every *checkpointed* map entry that names
    /// a register currently on the free list must carry that checkpoint's
    /// stale-mapping flag or a journal record explaining the release —
    /// otherwise a misprediction rollback to it would resurrect a released
    /// register as a live mapping.  This extends the front-map check in
    /// [`RenameUnit::check_invariants`] to the whole checkpoint stack.
    ///
    /// Checkpoints are journal marks, so the probe reconstructs each
    /// checkpoint's map/flag state by replaying the undo journal backwards
    /// from the current state (pull-based: the reconstruction only costs
    /// anything when the probe is called).  A `PatchRelease` record seen
    /// while walking towards a checkpoint's mark proves every checkpoint at
    /// or before that position legitimately names the freed register — the
    /// rollback coherence scan will re-flag it.
    pub fn check_checkpoint_coherence(&self) -> Result<(), String> {
        // Structural validity of the journal/checkpoint relationship.
        if !self.journal.is_empty() && self.checkpoints.is_empty() {
            return Err(format!(
                "journal holds {} entries with no live checkpoint",
                self.journal.len()
            ));
        }
        let end = self.journal_end();
        let mut prev = self.journal_base;
        for cp in &self.checkpoints {
            if cp.mark < prev || cp.mark > end {
                return Err(format!(
                    "checkpoint of branch {}: mark {} outside journal window [{prev}, {end}]",
                    cp.branch_id, cp.mark
                ));
            }
            prev = cp.mark;
        }
        if self.checkpoints.is_empty() {
            return Ok(());
        }

        // Reconstruct checkpoint states youngest-first by undoing the
        // journal, collecting the commit-time releases performed while each
        // checkpoint was live.
        let mut maps: [Vec<PhysReg>; 2] = [
            self.banks[0].maps.front.mapped_physical().collect(),
            self.banks[1].maps.front.mapped_physical().collect(),
        ];
        let mut skips: [Vec<bool>; 2] = [
            self.banks[0].skip_release.clone(),
            self.banks[1].skip_release.clone(),
        ];
        let mut patched: [Vec<PhysReg>; 2] = [Vec::new(), Vec::new()];
        let mut pos = end;
        for cp in self.checkpoints.iter().rev() {
            while pos > cp.mark {
                pos -= 1;
                match self.journal[(pos - self.journal_base) as usize] {
                    JournalEntry::Map { reg, old } => {
                        maps[reg.class().index()][reg.index()] = old;
                    }
                    JournalEntry::SkipConsumed { reg } => {
                        skips[reg.class().index()][reg.index()] = true;
                    }
                    JournalEntry::PatchRelease { class, phys } => {
                        patched[class.index()].push(phys);
                    }
                }
            }
            for class in RegClass::ALL {
                let free = &self.bank(class).free;
                for (i, &phys) in maps[class.index()].iter().enumerate() {
                    if free.contains(phys)
                        && !skips[class.index()][i]
                        && !patched[class.index()].contains(&phys)
                    {
                        return Err(format!(
                            "checkpoint of branch {}: map of {} points to free register \
                             {phys} without a stale-mapping flag",
                            cp.branch_id,
                            ArchReg::new(class, i)
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Debug-build hook assertion: the speculative map must be coherent with
    /// the free list right after a recovery restored it.  Compiled out of
    /// release builds.
    #[cfg(debug_assertions)]
    fn debug_assert_front_map_coherent(&self, context: &str) {
        for class in RegClass::ALL {
            let bank = self.bank(class);
            for (reg, phys) in bank.maps.front.iter() {
                debug_assert!(
                    !bank.free.contains(phys) || bank.skip_release[reg.index()],
                    "{context}: restored map of {reg} names free register {phys} \
                     without a stale-mapping flag"
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Invariant checking (tests / debugging)
    // ------------------------------------------------------------------

    /// Check internal consistency; returns a description of the first
    /// violated invariant, if any.  Used by property tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        for class in RegClass::ALL {
            let bank = self.bank(class);
            let cap = self.config.phys_regs(class);
            if bank.free.free_count() + bank.occupancy.allocated_now() != cap {
                return Err(format!(
                    "{class}: free ({}) + allocated ({}) != capacity ({cap})",
                    bank.free.free_count(),
                    bank.occupancy.allocated_now()
                ));
            }
            for (reg, phys) in bank.maps.front.iter() {
                if bank.free.contains(phys) && !bank.skip_release[reg.index()] {
                    return Err(format!(
                        "{class}: speculative map of {reg} points to free register {phys} \
                         without a stale-mapping flag"
                    ));
                }
            }
        }
        let dst_in_flight = self.book.iter().filter(|e| e.dst.is_some()).count();
        self.scheme
            .check_invariants(dst_in_flight, self.checkpoints.len())
    }
}
