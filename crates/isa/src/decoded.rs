//! Decode-once execution traces for the simulator's replay front-end.
//!
//! Every figure of the paper sweeps the *same* program across many
//! (policy, machine-config) points.  The committed instruction stream of the
//! out-of-order simulator is identical for all of them — wrong paths are
//! squashed, precise exceptions re-execute from the faulting instruction —
//! so the outcomes the architectural emulator computes (branch directions,
//! effective addresses, result values) can be captured **once per program**
//! and replayed by every point of a sweep.
//!
//! [`DecodedTrace`] is that capture: one emulator pass recorded as
//! struct-of-arrays columns indexed by *committed position* (emulator step
//! `k` is simulator commit position `k`), holding exactly the columns replay
//! reads.  The replay front-end in `earlyreg-sim` walks a cursor through it
//! during fetch, tags each correct-path instruction with its trace index,
//! and the execute stage reads outcomes from the columns instead of
//! recomputing them.  Wrong-path instructions (fetched past a branch whose
//! prediction disagrees with the recorded direction) are executed live,
//! exactly as without a trace, so simulated timing and statistics are
//! bit-identical either way.
//!
//! A trace is a pure function of (program, capture budget), so the
//! experiment cache's `CacheKey` — which already hashes the canonical
//! program and the instruction budget — subsumes it; replay needs no
//! cache-version bump precisely because it is bit-identical.

use crate::program::Program;
use crate::Emulator;

/// Sentinel trace index for instructions not covered by a trace (wrong-path
/// fetches, or correct-path fetches past the capture budget).
pub const NO_TRACE: u32 = u32::MAX;

/// A decoded, fully resolved execution trace of one program — see the module
/// documentation.  Columns are parallel arrays indexed by committed position.
#[derive(Debug)]
pub struct DecodedTrace {
    /// Static instruction index of each committed instruction.
    pcs: Vec<u32>,
    /// Outcome payload: destination value bits for value-producing
    /// instructions, stored bits for stores, 0 otherwise.
    payloads: Vec<u64>,
    /// Effective word address of memory operations (`NO_TRACE` = none).
    mem_addrs: Vec<u32>,
    /// Resolved conditional-branch directions, one bit per position (false
    /// for everything that is not a conditional branch).
    taken_bits: Vec<u64>,
    /// True when the capture reached the program's `Halt` (the trace covers
    /// the complete execution); false when the step budget ran out first.
    halted: bool,
}

impl DecodedTrace {
    /// Capture a trace by running the architectural emulator for at most
    /// `max_steps` instructions (or to halt, whichever comes first).
    ///
    /// # Panics
    /// Panics if the program or its memory image does not fit the compact
    /// `u32` column encoding (programs here are orders of magnitude smaller).
    pub fn capture(program: &Program, max_steps: u64) -> DecodedTrace {
        assert!(
            program.len() < NO_TRACE as usize && program.memory_words < NO_TRACE as usize,
            "program too large for the compact trace encoding"
        );
        let cap = max_steps.min(NO_TRACE as u64 - 1) as usize;
        let mut trace = DecodedTrace {
            pcs: Vec::with_capacity(cap.min(1 << 20)),
            payloads: Vec::with_capacity(cap.min(1 << 20)),
            mem_addrs: Vec::with_capacity(cap.min(1 << 20)),
            taken_bits: Vec::new(),
            halted: false,
        };

        let mut emu = Emulator::new(program);
        for pos in 0..cap {
            if emu.halted() {
                break;
            }
            let Some(instr) = program.fetch(emu.pc()).copied() else {
                break;
            };
            let Some(outcome) = emu.step() else {
                break;
            };
            let payload = if let Some(dst) = instr.dst {
                emu.state.read_raw(dst)
            } else if instr.op.is_store() {
                let addr = outcome.mem_addr.expect("stores have an address");
                emu.state.memory[addr]
            } else {
                0
            };
            if outcome.branch_taken == Some(true) {
                let word = pos / 64;
                if word >= trace.taken_bits.len() {
                    trace.taken_bits.resize(word + 1, 0);
                }
                trace.taken_bits[word] |= 1u64 << (pos % 64);
            }
            trace.pcs.push(outcome.pc as u32);
            trace.payloads.push(payload);
            trace
                .mem_addrs
                .push(outcome.mem_addr.map_or(NO_TRACE, |a| a as u32));
            if outcome.halted {
                break;
            }
        }
        trace.halted = emu.halted();
        trace.taken_bits.resize(trace.pcs.len().div_ceil(64), 0);
        trace
    }

    /// Number of committed instructions covered.
    pub fn len(&self) -> usize {
        self.pcs.len()
    }

    /// True when the trace covers no instruction.
    pub fn is_empty(&self) -> bool {
        self.pcs.is_empty()
    }

    /// True when the capture reached the program's `Halt` — the trace covers
    /// the complete execution.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Static instruction index at committed position `i`.
    #[inline]
    pub fn pc(&self, i: usize) -> usize {
        self.pcs[i] as usize
    }

    /// Resolved direction of the conditional branch at position `i` (false
    /// when the instruction is not a conditional branch).
    #[inline]
    pub fn taken(&self, i: usize) -> bool {
        (self.taken_bits[i / 64] >> (i % 64)) & 1 != 0
    }

    /// Outcome payload at position `i`: destination value bits, stored bits
    /// for stores, 0 otherwise.
    #[inline]
    pub fn payload(&self, i: usize) -> u64 {
        self.payloads[i]
    }

    /// Effective word address of the memory operation at position `i`.
    #[inline]
    pub fn mem_addr(&self, i: usize) -> Option<usize> {
        match self.mem_addrs[i] {
            NO_TRACE => None,
            a => Some(a as usize),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::instr::{BranchCond, Opcode};
    use crate::reg::ArchReg;

    fn loop_program(n: i64) -> Program {
        let mut b = ProgramBuilder::new("trace-loop");
        let i = ArchReg::int(1);
        let acc = ArchReg::int(2);
        let base = ArchReg::int(3);
        b.li(i, n);
        b.li(acc, 0);
        b.li(base, 0);
        let top = b.here();
        b.add(acc, acc, i);
        b.addi(i, i, -1);
        b.branch(BranchCond::Gt, i, None, top);
        b.store_int(base, 0, acc);
        b.load_int(i, base, 0);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn capture_matches_emulation() {
        let p = loop_program(5);
        let trace = DecodedTrace::capture(&p, 1 << 20);
        assert!(trace.halted());
        // 3 li + 5*(add,addi,branch) + store + load + halt = 21.
        assert_eq!(trace.len(), 21);
        assert_eq!(p.instrs[trace.pc(trace.len() - 1)].op, Opcode::Halt);
        // The loop branch is taken 4 times, not taken once.
        let taken: usize = (0..trace.len()).filter(|&i| trace.taken(i)).count();
        assert_eq!(taken, 4);
        // The store and load hit address 0 and move the final accumulator.
        let store_pos = (0..trace.len())
            .find(|&i| p.instrs[trace.pc(i)].op.is_store())
            .unwrap();
        assert_eq!(trace.mem_addr(store_pos), Some(0));
        assert_eq!(trace.payload(store_pos), 15); // 5+4+3+2+1
        let load_pos = store_pos + 1;
        assert_eq!(trace.payload(load_pos), 15);
    }

    #[test]
    fn budget_capped_capture_is_a_prefix() {
        let p = loop_program(100);
        let full = DecodedTrace::capture(&p, 1 << 20);
        let partial = DecodedTrace::capture(&p, 10);
        assert!(!partial.halted());
        assert_eq!(partial.len(), 10);
        for i in 0..partial.len() {
            assert_eq!(partial.pc(i), full.pc(i));
            assert_eq!(partial.payload(i), full.payload(i));
            assert_eq!(partial.mem_addr(i), full.mem_addr(i));
            assert_eq!(partial.taken(i), full.taken(i));
        }
    }
}
