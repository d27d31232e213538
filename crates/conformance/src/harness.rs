//! The differential lockstep checker.
//!
//! One check runs one program through the cycle-level simulator while an
//! architectural [`Emulator`] shadows it: every simulator cycle that commits
//! instructions, the emulator is advanced by exactly that many and the two
//! machines are compared.  On top of the value comparison, the rename unit's
//! structural invariants (free-list conservation, front-map coherence,
//! scheme-side invariants) and the checkpoint-coherence probe run every
//! cycle, so a violation is reported at the first cycle it is observable —
//! not thousands of cycles later when a corrupted value finally reaches a
//! store.
//!
//! The checks, in the order they can fire:
//!
//! 1. **Panic** — the simulator panicked (e.g. the free list rejecting a
//!    double release).  Caught with `catch_unwind` and converted into a
//!    violation so the fuzzer can minimize it like any other failure.
//! 2. **Invariant** — [`RenameUnit::check_invariants`](earlyreg_core::RenameUnit::check_invariants) failed: a register
//!    leaked or was double-freed, the front map names a freed register
//!    without a stale flag, occupancy counters drifted, or the scheme's own
//!    `check_invariants` rejected its state.
//! 3. **CheckpointCoherence** — a branch checkpoint holds a mapping to a
//!    freed register without the skip-release flag that makes restoring it
//!    safe ([`RenameUnit::check_checkpoint_coherence`](earlyreg_core::RenameUnit::check_checkpoint_coherence)).
//! 4. **CommitStream** — the simulator committed more instructions than the
//!    architectural execution contains (it ran past the halt, or committed a
//!    squashed path).
//! 5. **Register/Memory lockstep** — a committed architectural register (not
//!    flagged dead-value-unreliable) or a memory word touched this step
//!    differs between simulator and emulator.
//! 6. **Hang** — the cycle budget ran out before the program halted
//!    (deadlocked free list, livelocked recovery, ...).
//! 7. **FinalState / OracleViolations** — after halt, the full-state
//!    [`verify_against_emulator`] pass and the commit-time oracle check
//!    (`stats.oracle_violations`, which compares every committed destination
//!    value against the emulator inside the simulator) must both be clean.

use earlyreg_core::{registry, ReleasePolicy, ReleaseScheme, SchemeSeed};
use earlyreg_isa::{ArchReg, Emulator, Program, RegClass};
use earlyreg_sim::{verify_against_emulator, MachineConfig, Simulator, VerifyOutcome};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// How one conformance check is configured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckConfig {
    /// Release policy under test (ignored when a scheme override is
    /// injected, except as the registry id recorded in reports).
    pub policy: ReleasePolicy,
    /// Integer physical register file size (kept tight so free-list pressure
    /// is real).
    pub phys_int: usize,
    /// FP physical register file size.
    pub phys_fp: usize,
    /// Inject a precise exception every N committed instructions.
    pub exception_interval: Option<u64>,
    /// Cycle budget before the run counts as hung.
    pub max_cycles: u64,
}

impl CheckConfig {
    /// Default stress configuration for `policy`: small machine, 40+40
    /// physical registers, no exceptions, generous cycle budget.
    pub fn new(policy: ReleasePolicy) -> Self {
        CheckConfig {
            policy,
            phys_int: 40,
            phys_fp: 40,
            exception_interval: None,
            max_cycles: 2_000_000,
        }
    }

    fn machine(&self) -> MachineConfig {
        let mut cfg = MachineConfig::small(self.policy, self.phys_int, self.phys_fp);
        cfg.exceptions.interval = self.exception_interval;
        cfg
    }
}

/// A conformance violation: the first point where the simulator's behaviour
/// under the scheme is provably wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The simulator panicked (free-list double release, hook assertion, ...).
    Panic(String),
    /// [`RenameUnit::check_invariants`](earlyreg_core::RenameUnit::check_invariants) failed at `cycle`.
    Invariant { cycle: u64, detail: String },
    /// [`RenameUnit::check_checkpoint_coherence`](earlyreg_core::RenameUnit::check_checkpoint_coherence) failed at `cycle`.
    CheckpointCoherence { cycle: u64, detail: String },
    /// The simulator committed past the architectural execution.
    CommitStream { cycle: u64, committed: u64 },
    /// A committed architectural register differs from the emulator.
    LockstepRegister {
        cycle: u64,
        committed: u64,
        reg: ArchReg,
        sim: u64,
        emu: u64,
    },
    /// A memory word touched by a committed access differs from the emulator.
    LockstepMemory {
        cycle: u64,
        committed: u64,
        addr: usize,
        sim: u64,
        emu: u64,
    },
    /// The cycle budget ran out before the program halted.
    Hang { cycles: u64, committed: u64 },
    /// The final full-state comparison failed after halt.
    FinalState(String),
    /// The simulator's commit-time oracle check flagged wrong values.
    OracleViolations(u64),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Panic(msg) => write!(f, "simulator panicked: {msg}"),
            Violation::Invariant { cycle, detail } => {
                write!(f, "invariant violation at cycle {cycle}: {detail}")
            }
            Violation::CheckpointCoherence { cycle, detail } => {
                write!(f, "checkpoint incoherence at cycle {cycle}: {detail}")
            }
            Violation::CommitStream { cycle, committed } => write!(
                f,
                "commit stream ran past the architectural execution at cycle {cycle} \
                 (committed {committed})"
            ),
            Violation::LockstepRegister {
                cycle,
                committed,
                reg,
                sim,
                emu,
            } => write!(
                f,
                "register {reg} diverged at cycle {cycle} (committed {committed}): \
                 simulator {sim:#x}, emulator {emu:#x}"
            ),
            Violation::LockstepMemory {
                cycle,
                committed,
                addr,
                sim,
                emu,
            } => write!(
                f,
                "memory word {addr} diverged at cycle {cycle} (committed {committed}): \
                 simulator {sim:#x}, emulator {emu:#x}"
            ),
            Violation::Hang { cycles, committed } => write!(
                f,
                "no halt within {cycles} cycles ({committed} instructions committed)"
            ),
            Violation::FinalState(desc) => write!(f, "final state mismatch: {desc}"),
            Violation::OracleViolations(n) => {
                write!(
                    f,
                    "{n} commit-time oracle violations (wrong committed values)"
                )
            }
        }
    }
}

/// Summary of a clean check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckReport {
    /// Simulated cycles until halt.
    pub cycles: u64,
    /// Committed (architectural) instructions.
    pub committed: u64,
}

/// Check `program` under `config`'s registry policy.  `Ok` carries run
/// statistics; `Err` carries the first violation observed.
pub fn check_program(
    config: &CheckConfig,
    program: &Arc<Program>,
) -> Result<CheckReport, Violation> {
    check_with_seed(config, program, SchemeSeed::default())
}

/// Check `program` with an injected scheme replacing the registry-built one.
/// This is how deliberately-broken mutants are proven catchable; the scheme
/// runs against the policy-independent engine exactly like a real one.
pub fn check_with_scheme(
    config: &CheckConfig,
    program: &Arc<Program>,
    scheme: Box<dyn ReleaseScheme>,
) -> Result<CheckReport, Violation> {
    check_with_seed(
        config,
        program,
        SchemeSeed {
            kill_plan: None,
            scheme_override: Some(scheme),
        },
    )
}

fn check_with_seed(
    config: &CheckConfig,
    program: &Arc<Program>,
    seed: SchemeSeed,
) -> Result<CheckReport, Violation> {
    let machine = config.machine();
    let program = Arc::clone(program);
    // The simulator is not unwind-unsafe in any way that matters here: on
    // panic the whole machine state is dropped and the failure is reported,
    // never reused.
    catch_unwind(AssertUnwindSafe(move || {
        run_lockstep(machine, config.max_cycles, &program, seed)
    }))
    .unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(Violation::Panic(msg))
    })
}

fn run_lockstep(
    machine: MachineConfig,
    max_cycles: u64,
    program: &Arc<Program>,
    seed: SchemeSeed,
) -> Result<CheckReport, Violation> {
    let mut sim = Simulator::with_scheme_seed(machine, Arc::clone(program), seed);
    let mut emu = Emulator::new(program);
    let mut emu_committed: u64 = 0;
    // Memory words touched by the instructions committed this cycle.
    let mut touched: Vec<usize> = Vec::new();

    while !sim.halted() {
        if sim.cycle() >= max_cycles {
            return Err(Violation::Hang {
                cycles: sim.cycle(),
                committed: sim.stats().committed,
            });
        }
        sim.step();
        let cycle = sim.cycle();

        let rename = sim.rename_unit();
        if let Err(detail) = rename.check_invariants() {
            return Err(Violation::Invariant { cycle, detail });
        }
        if let Err(detail) = rename.check_checkpoint_coherence() {
            return Err(Violation::CheckpointCoherence { cycle, detail });
        }

        let committed = sim.stats().committed;
        if committed == emu_committed {
            continue;
        }
        touched.clear();
        while emu_committed < committed {
            match emu.step() {
                Some(outcome) => {
                    if let Some(addr) = outcome.mem_addr {
                        touched.push(addr);
                    }
                }
                None => {
                    return Err(Violation::CommitStream { cycle, committed });
                }
            }
            emu_committed += 1;
        }
        // Committed architectural state must agree wherever the value is
        // reliable (early release may legitimately discard dead values; the
        // engine tracks exactly which logical registers those are).
        for class in RegClass::ALL {
            for index in 0..class.num_logical() {
                let reg = ArchReg::new(class, index);
                if sim.arch_value_unreliable(reg) {
                    continue;
                }
                let sim_bits = sim.arch_reg_bits(reg);
                let emu_bits = emu.state.read_raw(reg);
                if sim_bits != emu_bits {
                    return Err(Violation::LockstepRegister {
                        cycle,
                        committed,
                        reg,
                        sim: sim_bits,
                        emu: emu_bits,
                    });
                }
            }
        }
        // Memory is never dead-value-exempt: every word a committed access
        // touched must already agree.
        for &addr in &touched {
            let sim_word = sim.committed_memory()[addr];
            let emu_word = emu.state.memory[addr];
            if sim_word != emu_word {
                return Err(Violation::LockstepMemory {
                    cycle,
                    committed,
                    addr,
                    sim: sim_word,
                    emu: emu_word,
                });
            }
        }
    }

    let stats = sim.stats();
    if stats.oracle_violations > 0 {
        return Err(Violation::OracleViolations(stats.oracle_violations));
    }
    if let VerifyOutcome::Mismatch { description } = verify_against_emulator(&sim, program) {
        return Err(Violation::FinalState(description));
    }
    if let Err(detail) = sim.rename_unit().check_invariants() {
        return Err(Violation::Invariant {
            cycle: sim.cycle(),
            detail,
        });
    }
    Ok(CheckReport {
        cycles: stats.cycles,
        committed: stats.committed,
    })
}

/// Check `program` under **every** registered policy, returning the per-policy
/// results in registry order.
pub fn check_all_policies(
    base: &CheckConfig,
    program: &Arc<Program>,
) -> Vec<(ReleasePolicy, Result<CheckReport, Violation>)> {
    registry::registered()
        .map(|policy| {
            let config = CheckConfig { policy, ..*base };
            (policy, check_program(&config, program))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{compile, plan_blocks, HazardConfig};

    #[test]
    fn all_policies_pass_a_sample_program() {
        let cfg = HazardConfig::from_case_seed(42);
        let program = Arc::new(compile(&cfg, &plan_blocks(&cfg)));
        let base = CheckConfig::new(ReleasePolicy::Conventional);
        for (policy, result) in check_all_policies(&base, &program) {
            let report = result.unwrap_or_else(|v| panic!("policy {policy} violated: {v}"));
            assert!(report.committed > 0);
        }
    }

    #[test]
    fn exception_injection_stays_conformant() {
        let cfg = HazardConfig::from_case_seed(11);
        let program = Arc::new(compile(&cfg, &plan_blocks(&cfg)));
        let base = CheckConfig {
            exception_interval: Some(97),
            ..CheckConfig::new(ReleasePolicy::Extended)
        };
        for (policy, result) in check_all_policies(&base, &program) {
            result.unwrap_or_else(|v| panic!("policy {policy} violated under exceptions: {v}"));
        }
    }
}
