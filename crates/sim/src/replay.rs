//! Trace-replay support: per-program memoized [`DecodedTrace`] capture and
//! the fetch-side replay cursor.
//!
//! ## How replay works
//!
//! A [`DecodedTrace`] records one architectural-emulator pass over a program:
//! the committed instruction stream with resolved branch directions,
//! effective addresses and result values.  A simulator
//! built with [`Simulator::with_replay`](crate::Simulator::with_replay)
//! walks a cursor through that trace during fetch:
//!
//! * A fetched instruction whose PC matches the cursor is **on-trace**: it is
//!   tagged with its trace index, and the execute stage later reads its
//!   outcome (result bits, branch direction, effective address) from the
//!   trace instead of reading operands and recomputing — *timing* is still
//!   simulated in full (operand readiness, functional units, caches, LSQ
//!   ordering), so statistics are bit-identical to live execution.
//! * When a conditional branch's *prediction* disagrees with the recorded
//!   direction, fetch has just turned onto the wrong path: the cursor stops
//!   and every subsequent fetch is executed **live**, exactly as without a
//!   trace (wrong-path instructions perturb predictor, caches and functional
//!   units, and the live semantics reproduce that bit-for-bit).
//! * Recovery re-synchronises the cursor: a mispredicted on-trace branch
//!   resumes the trace right after itself; a precise exception rewinds the
//!   cursor to the squashed head's trace position.
//! * A cursor that runs past the capture budget simply degrades to live
//!   fetch/execute — correct-path live execution computes the same values
//!   the trace would have carried.
//!
//! Because every divergence degrades to live execution, replay is safe by
//! construction: the trace is an *accelerator*, never an oracle the
//! simulation depends on.  `tests/stats_equivalence.rs` pins bit-identical
//! `SimStats` between the two front-ends for every registered policy.

use crate::memo::ProgramMemo;
use earlyreg_isa::{DecodedTrace, Program};
use std::sync::Arc;

/// Extra trace positions captured beyond the committed-instruction budget:
/// fetch runs ahead of commit by at most the reorder window plus the fetch
/// buffer, so this slack keeps the tail of a budget-limited run on-trace.
/// (Running off the end is still correct — fetch degrades to live.)
pub const TRACE_SLACK: u64 = 4096;

/// The decoded trace for a shared program, memoized by `Arc` identity like
/// every per-program derivation here: experiment sweeps hand the same
/// `Arc<Program>` to every point, so the capture pass runs once per
/// (program, budget) instead of once per point.  A cached trace is reused
/// when it already covers `min_steps` (or the whole execution); a longer
/// request replaces it.
pub fn decoded_trace_for(program: &Arc<Program>, min_steps: u64) -> Arc<DecodedTrace> {
    static TRACES: ProgramMemo<(), DecodedTrace> = ProgramMemo::new();
    TRACES.get_or_build(
        program,
        (),
        |trace| trace.halted() || trace.len() as u64 >= min_steps,
        || DecodedTrace::capture(program, min_steps),
    )
}

/// Fetch-side replay state: the shared trace and the cursor over it.
#[derive(Debug, Clone)]
pub struct ReplayCursor {
    /// The shared decoded trace.
    pub trace: Arc<DecodedTrace>,
    /// Next trace position to fetch while on-trace.
    pub cursor: usize,
    /// False while fetch is on the wrong path (or past the capture budget):
    /// instructions fetched now are not covered by the trace.
    pub on_trace: bool,
}

impl ReplayCursor {
    /// Start replaying `trace` from its beginning.
    pub fn new(trace: Arc<DecodedTrace>) -> Self {
        ReplayCursor {
            trace,
            cursor: 0,
            on_trace: true,
        }
    }

    /// Claim the trace position for an instruction fetched at `pc`, if fetch
    /// is on-trace and the trace covers (and agrees with) this fetch.
    /// Returns [`earlyreg_isa::NO_TRACE`] otherwise.
    #[inline]
    pub fn claim(&mut self, pc: usize) -> u32 {
        if !self.on_trace || self.cursor >= self.trace.len() {
            return earlyreg_isa::NO_TRACE;
        }
        if self.trace.pc(self.cursor) != pc {
            // Unreachable under the cursor protocol; degrade to live fetch
            // rather than replaying a wrong outcome.
            debug_assert!(false, "replay cursor desynchronised at pc {pc}");
            self.on_trace = false;
            return earlyreg_isa::NO_TRACE;
        }
        let idx = self.cursor as u32;
        self.cursor += 1;
        idx
    }

    /// Fetch turned onto the wrong path (a prediction disagreed with the
    /// recorded direction): stop claiming until a recovery re-synchronises.
    #[inline]
    pub fn diverge(&mut self) {
        self.on_trace = false;
    }

    /// A branch at trace position `idx` (or [`earlyreg_isa::NO_TRACE`] for a
    /// wrong-path branch) mispredicted and fetch restarts after it.
    #[inline]
    pub fn resume_after_branch(&mut self, idx: u32) {
        if idx == earlyreg_isa::NO_TRACE {
            // A wrong-path branch redirecting within the wrong path: fetch
            // stays off-trace until the on-trace branch below it resolves.
            self.on_trace = false;
        } else {
            self.cursor = idx as usize + 1;
            self.on_trace = true;
        }
    }

    /// A precise exception squashed everything and fetch restarts at the
    /// old head, whose trace position was `idx` ([`earlyreg_isa::NO_TRACE`]
    /// when the head was past the capture budget).
    #[inline]
    pub fn resume_at(&mut self, idx: u32) {
        if idx == earlyreg_isa::NO_TRACE {
            self.on_trace = false;
        } else {
            self.cursor = idx as usize;
            self.on_trace = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earlyreg_isa::{ArchReg, BranchCond, ProgramBuilder};

    fn tiny_program() -> Arc<Program> {
        let mut b = ProgramBuilder::new("replay-tiny");
        let i = ArchReg::int(1);
        b.li(i, 3);
        let top = b.here();
        b.addi(i, i, -1);
        b.branch(BranchCond::Gt, i, None, top);
        b.halt();
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn memoized_capture_is_shared_per_program() {
        let p = tiny_program();
        let a = decoded_trace_for(&p, 1_000);
        let b = decoded_trace_for(&p, 1_000);
        assert!(Arc::ptr_eq(&a, &b), "same program must share one trace");
        let other = tiny_program();
        let c = decoded_trace_for(&other, 1_000);
        assert!(!Arc::ptr_eq(&a, &c), "distinct Arcs get distinct traces");
        assert_eq!(a.len(), c.len(), "but identical content");
        assert!((0..a.len()).all(|i| a.pc(i) == c.pc(i)));
    }

    #[test]
    fn longer_request_replaces_a_capped_trace() {
        let mut b = ProgramBuilder::new("replay-long");
        let i = ArchReg::int(1);
        b.li(i, 1_000);
        let top = b.here();
        b.addi(i, i, -1);
        b.branch(BranchCond::Gt, i, None, top);
        b.halt();
        let p = Arc::new(b.build().unwrap());
        let short = decoded_trace_for(&p, 10);
        assert_eq!(short.len(), 10);
        let long = decoded_trace_for(&p, 50);
        assert!(long.len() >= 50);
        // The longer capture replaced the short one in the cache.
        let again = decoded_trace_for(&p, 10);
        assert!(Arc::ptr_eq(&long, &again));
    }

    #[test]
    fn cursor_claims_and_recovers() {
        let p = tiny_program();
        let trace = decoded_trace_for(&p, 1_000);
        let mut cur = ReplayCursor::new(Arc::clone(&trace));
        assert_eq!(cur.claim(trace.pc(0)), 0);
        assert_eq!(cur.claim(trace.pc(1)), 1);
        cur.diverge();
        assert_eq!(cur.claim(trace.pc(2)), earlyreg_isa::NO_TRACE);
        cur.resume_after_branch(1);
        assert_eq!(cur.claim(trace.pc(2)), 2);
        cur.resume_at(0);
        assert_eq!(cur.claim(trace.pc(0)), 0);
        // Past the end: degrade to live.
        cur.cursor = trace.len();
        assert_eq!(cur.claim(0), earlyreg_isa::NO_TRACE);
    }
}
