//! The open release-scheme layer.
//!
//! Everything policy-specific about register release lives behind the
//! [`ReleaseScheme`] trait: rename-time last-use tracking, the decision of
//! how a redefinition's previous version is released ([`DestPlan`]),
//! checkpoint capture/restore of scheme state across branches, and the
//! commit / branch-resolution release events.  The
//! [`RenameUnit`](crate::rename::RenameUnit) owns the policy-*independent*
//! machinery — free lists, map tables, the reorder-structure book, branch
//! checkpoints of the map, occupancy and release statistics — and drives the
//! scheme through the hooks below.  Adding a release scheme therefore means
//! implementing this trait in one file and registering a descriptor in
//! [`crate::registry`]; no engine, simulator, experiment or serving code
//! changes.  See `docs/POLICIES.md` for the full contract.
//!
//! ## Hook protocol (one rename-unit event → scheme hooks, in order)
//!
//! * `rename` — [`ReleaseScheme::plan_dest`] (pure, may be called again by
//!   `can_rename`), then [`ReleaseScheme::record_use`] for each source
//!   operand, then plan execution (the engine calls
//!   [`ReleaseScheme::schedule_conditional`] for [`DestPlan::Conditional`]),
//!   then `record_use` for the destination, then — for conditional branches —
//!   [`ReleaseScheme::on_branch_renamed`] after the engine captured its own
//!   map checkpoint.
//! * `commit` — [`ReleaseScheme::on_commit`]; releases the scheme requests
//!   are performed by the engine with reason
//!   [`ReleaseReason::EarlyAtLuCommit`](crate::types::ReleaseReason), and any
//!   speculative (or checkpointed) map entry still naming a freed register is
//!   flagged stale so the eventual redefinition skips it.
//! * `branch verified correct` — [`ReleaseScheme::on_branch_correct`]; the
//!   engine frees the returned `release_now` set (reason `BranchConfirm`) and
//!   ORs the returned `to_rwc0` masks into the early-release bits of the
//!   named in-flight entries.
//! * `branch mispredicted` — [`ReleaseScheme::on_squash`] with the squashed
//!   entries (youngest first), then [`ReleaseScheme::on_branch_mispredict`]
//!   after the engine restored its map checkpoint.
//! * `precise exception` — [`ReleaseScheme::on_exception`] only (no
//!   `on_squash`): every in-flight instruction is gone and the scheme must
//!   reset all of its speculative state.

use crate::ros::RosEntry;
use crate::types::{InstrId, PhysReg, ReleasePolicy, UseKind};
use earlyreg_isa::{ArchReg, Emulator, Program, RegClass};
use std::fmt;
use std::sync::Arc;

/// How the destination of a redefinition will be handled — the scheme's
/// answer to [`ReleaseScheme::plan_dest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DestPlan {
    /// Allocate a new register; release the previous version at this
    /// instruction's commit (the conventional `rel_old = 1` path).  `fallback`
    /// marks schemes that *wanted* an early release but could not prove it
    /// safe (counted in `fallback_to_conventional`).
    ReleaseAtCommit {
        /// Count this as a fallback in the release statistics.
        fallback: bool,
    },
    /// Allocate a new register and leave the previous version entirely
    /// alone — the scheme releases it through another path (or it is a stale
    /// post-exception mapping the engine already flagged).
    AllocOnly,
    /// The instruction reads its own destination register: it is the last
    /// use of the previous version, released at its own commit through the
    /// early-release bit `kind`.
    EarlyOnSelf {
        /// Which of this instruction's operand slots reads the previous
        /// version.
        kind: UseKind,
    },
    /// Allocate a new register; set the early-release bit `kind` on the
    /// in-flight last-use instruction `lu` (released at `lu`'s commit).
    EarlyOnLu {
        /// The in-flight last use of the previous version.
        lu: InstrId,
        /// Its operand slot that reads the previous version.
        kind: UseKind,
    },
    /// Release the previous version immediately, then allocate (frees a
    /// register *before* drawing from the free list, so it never stalls).
    ReleaseNow,
    /// Reuse the previous version's register for the new version (paper
    /// Section 3.2); no allocation, no release.
    Reuse,
    /// Schedule a conditional release with the scheme
    /// ([`ReleaseScheme::schedule_conditional`] is called with `lu`):
    /// `lu = None` when the last use has already committed (`RwNS` form),
    /// `Some((lu, kind))` while it is still in flight (`RwC` form).
    Conditional {
        /// The in-flight last use, if it has not committed yet.
        lu: Option<(InstrId, UseKind)>,
    },
}

impl DestPlan {
    /// Does executing this plan draw a register from the free list?
    #[inline]
    pub fn needs_allocation(&self) -> bool {
        !matches!(self, DestPlan::Reuse)
    }

    /// Does executing this plan return a register to the free list *before*
    /// allocating (so an empty free list is not a stall)?
    #[inline]
    pub fn frees_before_allocating(&self) -> bool {
        matches!(self, DestPlan::ReleaseNow)
    }
}

/// Everything the engine knows about a redefinition when it asks the scheme
/// to plan the destination.  Built before any side effect of the rename, so
/// [`ReleaseScheme::plan_dest`] must be pure (it is also used by the
/// `can_rename` pre-check).
#[derive(Debug, Clone, Copy)]
pub struct DestQuery {
    /// The logical destination register being redefined.
    pub dst: ArchReg,
    /// The physical register of the previous version (current speculative
    /// mapping of `dst`).
    pub old_pd: PhysReg,
    /// `Some(kind)` when the instruction reads its own destination register
    /// (slot `Src2` wins when both sources name it, matching the Last-Uses
    /// Table's record order), making it the last use of the previous version.
    pub own_use: Option<UseKind>,
    /// Number of branches currently pending verification.
    pub pending_branches: usize,
    /// The youngest pending branch, if any (ids are program-ordered, so
    /// "some pending branch is younger than X" is `newest_branch >= X`).
    pub newest_branch: Option<InstrId>,
    /// The engine's Section 3.2 register-reuse knob.
    pub reuse_on_committed_lu: bool,
    /// True when the previous version is *settled architectural state*: the
    /// speculative and in-order maps agree on `old_pd`, and it is neither
    /// released-early nor clobbered-by-reuse.  This is what a counter-based
    /// scheme can verify without a Last-Uses CAM.
    pub old_is_settled_arch: bool,
}

/// A pluggable register release scheme (see the module docs for the hook
/// protocol and `docs/POLICIES.md` for the full contract).
pub trait ReleaseScheme: fmt::Debug + Send {
    /// The registry handle of this scheme.
    fn policy(&self) -> ReleasePolicy;

    /// Clone into a fresh box ([`RenameUnit`](crate::rename::RenameUnit) is
    /// `Clone`).
    fn box_clone(&self) -> Box<dyn ReleaseScheme>;

    /// Rename-time use tracking: instruction `id` uses logical register
    /// `reg` (currently mapped to `phys`) in operand slot `kind`.  Called
    /// for every source operand *after* [`ReleaseScheme::plan_dest`] ran but
    /// before the plan executes, and for the destination (with the *new*
    /// physical register) after the map was redirected.  Because the plan is
    /// computed first, an instruction's own source recordings are **not**
    /// visible to its `plan_dest` — the engine signals the
    /// reads-own-destination case through [`DestQuery::own_use`] instead.
    fn record_use(&mut self, _reg: ArchReg, _phys: PhysReg, _id: InstrId, _kind: UseKind) {}

    /// Decide how the previous version of a redefined register is handled.
    /// Must be pure: the engine calls it both from `can_rename` (no side
    /// effects follow) and from `rename` (the returned plan is executed).
    fn plan_dest(&self, query: &DestQuery) -> DestPlan;

    /// Execute the scheme side of [`DestPlan::Conditional`]: record a
    /// conditional release of `(class, old_pd)` tied to the pending-branch
    /// stack, in `RwNS` form (`lu = None`) or `RwC` form.
    fn schedule_conditional(
        &mut self,
        _class: RegClass,
        _old_pd: PhysReg,
        _lu: Option<(InstrId, UseKind)>,
    ) {
        unreachable!("scheme returned DestPlan::Conditional without schedule_conditional support")
    }

    /// A conditional branch was renamed: capture whatever speculative scheme
    /// state a misprediction of `branch_id` must restore.
    fn on_branch_renamed(&mut self, _branch_id: InstrId) {}

    /// The oldest in-flight instruction is committing.  Push any physical
    /// registers the scheme wants released *now* onto `releases`; the engine
    /// frees them with reason `EarlyAtLuCommit` and handles stale-mapping
    /// bookkeeping.
    fn on_commit(&mut self, _entry: &RosEntry, _releases: &mut Vec<(RegClass, PhysReg)>) {}

    /// Branch `branch_id` was verified correct: drop its scheme checkpoint.
    /// Append registers to release right now to `release_now` and
    /// `(last-use id, rel-bit mask)` pairs to merge into the in-flight
    /// early-release bits to `to_rwc0` (the extended mechanism's Steps 4/6).
    fn on_branch_correct(
        &mut self,
        _branch_id: InstrId,
        _release_now: &mut Vec<(RegClass, PhysReg)>,
        _to_rwc0: &mut Vec<(InstrId, u8)>,
    ) {
    }

    /// Branch misprediction, part 1: these renamed-but-uncommitted entries
    /// (youngest first) were just squashed.
    fn on_squash(&mut self, _squashed: &[RosEntry]) {}

    /// Branch misprediction, part 2: restore the speculative scheme state
    /// captured when `branch_id` was renamed (checkpoints of younger branches
    /// are dead).
    fn on_branch_mispredict(&mut self, _branch_id: InstrId) {}

    /// Precise exception: every in-flight instruction was squashed; reset
    /// all speculative scheme state.  (`on_squash` is *not* called.)
    fn on_exception(&mut self) {}

    /// Conditional releases currently pending in the scheme (the extended
    /// mechanism's Release Queue marks; 0 for schemes without one).
    fn release_queue_marks(&self) -> usize {
        0
    }

    /// Scheme-side structural invariants, checked by tests and property
    /// tests after every architectural event.
    fn check_invariants(
        &self,
        _in_flight_dsts: usize,
        _pending_branches: usize,
    ) -> Result<(), String> {
        Ok(())
    }
}

impl Clone for Box<dyn ReleaseScheme> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

/// Construction-time data a scheme may need beyond the
/// [`RenameConfig`](crate::types::RenameConfig).  Today that is the oracle's
/// [`KillPlan`]; the seed is extensible without touching scheme call sites.
#[derive(Debug, Clone, Default)]
pub struct SchemeSeed {
    /// The committed-stream last-use plan (required by schemes whose
    /// descriptor sets `needs_kill_plan`; the simulator derives it from the
    /// architectural emulator).
    pub kill_plan: Option<Arc<KillPlan>>,
    /// Test-only injection point: when set, the rename unit uses this scheme
    /// directly instead of building one from the registry.  The conformance
    /// harness injects deliberately-broken mutant schemes through it to prove
    /// the differential checks catch unsafe release behaviour; production
    /// paths (experiments, serving) never set it, so registry ids and cache
    /// keys are unaffected.
    pub scheme_override: Option<Box<dyn ReleaseScheme>>,
}

/// One future-knowledge release event: at committed-instruction position
/// `pos`, the live version of logical register (`fp`, `reg`) dies.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Kill {
    /// Commit position (index into the committed instruction stream).
    pos: u32,
    /// Logical register index within its class.
    reg: u8,
    /// Register class (false = integer, true = FP).
    fp: bool,
    /// True when the dying version is the one *defined at* `pos` (a value
    /// that is never read, paper Figure 4.b); false when `pos` is its last
    /// read (the version to release is the pre-commit architectural one).
    own_def: bool,
}

/// The oracle's future knowledge: for every committed-instruction position,
/// which logical-register versions see their true last use there.
///
/// Built by running the architectural [`Emulator`] over the program — the
/// out-of-order simulator commits exactly the emulator's instruction stream
/// (wrong paths are squashed, exceptions re-execute), so commit position `k`
/// in the simulator is emulator step `k`.  A version defined at position `d`
/// (or the initial architectural mapping, `d = -1`) dies at its last read
/// before the next redefinition, at `d` itself if it is never read, or at
/// position 0 for never-read initial mappings.  Versions never redefined
/// within the trace are conservatively kept alive.
#[derive(Debug)]
pub struct KillPlan {
    kills: Vec<Kill>,
}

impl KillPlan {
    /// Hard cap on the emulated trace length (programs must halt within it).
    pub const MAX_TRACE: u64 = 1 << 26;

    /// Build the plan for `program` by running the architectural emulator to
    /// halt.  Fails if the program does not halt within
    /// [`KillPlan::MAX_TRACE`] instructions — an oracle needs the complete
    /// future.
    pub fn for_program(program: &Program) -> Result<KillPlan, String> {
        #[derive(Clone, Copy)]
        struct RegState {
            /// Position of the live version's definition (-1 = initial).
            def: i64,
            /// Last read of the live version, if any.
            last_read: Option<u32>,
        }
        let reset = RegState {
            def: -1,
            last_read: None,
        };
        let mut state: [Vec<RegState>; 2] = [
            vec![reset; RegClass::Int.num_logical()],
            vec![reset; RegClass::Fp.num_logical()],
        ];
        let mut kills: Vec<Kill> = Vec::new();
        let mut emu = Emulator::new(program);
        let mut pos: u32 = 0;
        loop {
            if emu.halted() {
                break;
            }
            if u64::from(pos) >= Self::MAX_TRACE {
                return Err(format!(
                    "program '{}' did not halt within {} instructions; the oracle \
                     release scheme needs the complete committed trace",
                    program.name,
                    Self::MAX_TRACE
                ));
            }
            let instr = *program
                .fetch(emu.pc())
                .ok_or_else(|| "emulator ran off the end of the program".to_string())?;
            // Reads first: an instruction reading its own destination reads
            // the previous version.
            for src in [instr.src1, instr.src2].into_iter().flatten() {
                state[src.class().index()][src.index()].last_read = Some(pos);
            }
            if let Some(dst) = instr.dst {
                let slot = &mut state[dst.class().index()][dst.index()];
                let (kill_pos, own_def) = match (slot.def, slot.last_read) {
                    // Read since its definition: dies at that last read.
                    (_, Some(read)) => (read, false),
                    // Defined in the trace, never read: dies at its own
                    // definition's commit.
                    (def, None) if def >= 0 => (def as u32, true),
                    // Never-read initial mapping: dead from the start;
                    // anchor the release to the first commit.
                    (_, None) => (0, false),
                };
                kills.push(Kill {
                    pos: kill_pos,
                    reg: dst.index() as u8,
                    fp: dst.class() == RegClass::Fp,
                    own_def,
                });
                *slot = RegState {
                    def: i64::from(pos),
                    last_read: None,
                };
            }
            if emu.step().is_none() {
                break;
            }
            pos += 1;
        }
        // Kills are discovered at redefinition time; replay them in commit
        // order.  The sort is stable, so same-position events keep their
        // deterministic discovery order.
        kills.sort_by_key(|k| k.pos);
        Ok(KillPlan { kills })
    }

    /// Total release events in the plan.
    pub fn len(&self) -> usize {
        self.kills.len()
    }

    /// True when the plan schedules no releases.
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty()
    }

    /// The events at commit position `pos`, starting the scan at `cursor`
    /// (events are position-sorted; the caller advances the cursor
    /// monotonically).  Returns the new cursor and the matching range.
    pub(crate) fn at(&self, cursor: usize, pos: u64) -> (usize, &[Kill]) {
        let start = cursor;
        let mut end = cursor;
        while end < self.kills.len() && u64::from(self.kills[end].pos) <= pos {
            debug_assert_eq!(
                u64::from(self.kills[end].pos),
                pos,
                "kill positions must be consumed in commit order"
            );
            end += 1;
        }
        (end, &self.kills[start..end])
    }
}

impl Kill {
    /// The logical register this event kills a version of.
    pub(crate) fn reg(&self) -> ArchReg {
        ArchReg::new(
            if self.fp { RegClass::Fp } else { RegClass::Int },
            self.reg as usize,
        )
    }

    /// See [`Kill::own_def`].
    pub(crate) fn own_def(&self) -> bool {
        self.own_def
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earlyreg_isa::{BranchCond, ProgramBuilder};

    fn loop_program(n: i64) -> Program {
        let mut b = ProgramBuilder::new("kill-plan-loop");
        let i = ArchReg::int(1);
        let acc = ArchReg::int(2);
        let base = ArchReg::int(3);
        let dead = ArchReg::fp(4);
        b.li(i, n);
        b.li(acc, 0);
        b.li(base, 0);
        let top = b.here();
        b.add(acc, acc, i);
        b.addi(i, i, -1);
        b.fli(dead, 1.0);
        b.branch(BranchCond::Gt, i, None, top);
        b.store_int(base, 0, acc);
        b.load_int(i, base, 0);
        b.halt();
        b.build().unwrap()
    }

    /// The committed stream the plan must cover: the instruction of each
    /// emulator step, in order.
    fn committed(program: &Program) -> Vec<earlyreg_isa::Instruction> {
        let mut emu = Emulator::new(program);
        let mut stream = Vec::new();
        while !emu.halted() {
            stream.push(*program.fetch(emu.pc()).unwrap());
            emu.step().unwrap();
        }
        stream
    }

    #[test]
    fn kill_plan_is_commit_ordered_and_complete() {
        let program = loop_program(3);
        let plan = KillPlan::for_program(&program).unwrap();
        let stream = committed(&program);
        assert!(!plan.is_empty());
        assert!(plan.kills.windows(2).all(|w| w[0].pos <= w[1].pos));
        assert!(plan.kills.iter().all(|k| (k.pos as usize) < stream.len()));
        // Every redefinition in the committed stream produced one event.
        let redefs = stream.iter().filter(|instr| instr.dst.is_some()).count();
        assert_eq!(plan.len(), redefs);
        // A version that is never read dies at its own definition.
        for kill in plan.kills.iter().filter(|k| k.own_def()) {
            assert_eq!(stream[kill.pos as usize].dst, Some(kill.reg()));
        }
        assert!(plan
            .kills
            .iter()
            .any(|k| k.own_def() && k.reg() == ArchReg::fp(4)));
    }
}
