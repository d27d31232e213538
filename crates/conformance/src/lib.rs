//! # earlyreg-conformance — differential scheme-conformance fuzzing
//!
//! PR 5 made release schemes pluggable; this crate makes them *provable*.
//! A registered [`ReleaseScheme`](earlyreg_core::ReleaseScheme) must be more
//! than plausible — it must preserve architectural semantics under the full
//! hazard protocol: anti-dependence races between a last use and its
//! redefinition, map rollbacks over branch-shadowed redefinitions, precise
//! exceptions that squash the whole window, free-list conservation under
//! pressure.  The crate turns that contract into an executable check:
//!
//! * [`generator`] — random hazard-stress programs, described by a
//!   deterministic `(HazardConfig, Vec<HazardBlock>)` recipe.
//! * [`corpus`] — the second corpus: every assembled kernel from the
//!   workload registry, checked through the same lockstep harness.
//! * [`harness`] — per-cycle lockstep of the cycle-level simulator against
//!   the architectural emulator, plus the rename unit's structural and
//!   checkpoint-coherence probes, producing a typed [`harness::Violation`].
//! * [`minimize`](mod@minimize) — ddmin-style shrinking of failing recipes to minimal
//!   reproducers.
//! * [`fixture`] — minimized reproducers as JSON regression fixtures,
//!   replayed in CI against every registered policy.
//! * [`mutant`] — deliberately-broken schemes (injected via
//!   `SchemeSeed::scheme_override`, never registered) proving the harness
//!   actually catches unsafe release behaviour.
//! * [`test_support`] — the workspace-wide `PROPTEST_CASES` helper shared by
//!   every property-test suite.
//!
//! The `earlyreg-fuzz` binary drives the whole loop from the command line;
//! `docs/FUZZING.md` documents the methodology and
//! `docs/POLICIES.md` § "Proving a new scheme" the workflow for new
//! policies.

pub mod corpus;
pub mod fixture;
pub mod generator;
pub mod harness;
pub mod minimize;
pub mod mutant;
pub mod test_support;

pub use corpus::asm_corpus;
pub use fixture::{load_dir, Fixture};
pub use generator::{compile, plan_blocks, HazardBlock, HazardConfig};
pub use harness::{
    check_all_policies, check_program, check_with_scheme, CheckConfig, CheckReport, Violation,
};
pub use minimize::{minimize, Minimized};
pub use mutant::ReleaseAtRenameMutant;
