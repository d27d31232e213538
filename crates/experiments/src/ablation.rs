//! Ablation study of the reproduction's design choices:
//!
//! 1. **Register reuse** (Section 3.2): when the last use has already
//!    committed, the mechanisms may either release-and-reallocate or keep the
//!    mapping and reuse the register.  Reuse avoids touching the free list
//!    and is what the paper recommends.
//! 2. **Speculation depth**: the number of unverified branches supported
//!    bounds both the checkpoint stack and the Release Queue; shrinking it
//!    saves hardware but stalls the front end earlier.
//! 3. **Conditional releases** (the Release Queue itself): the extended
//!    mechanism versus the basic mechanism's fallback to conventional release
//!    under speculation — this isolates the contribution of Section 4.
//!
//! Each variant plans its points with an explicit [`MachineConfig`](earlyreg_sim::MachineConfig) through
//! the shared engine, so the planner dedups the unchanged baseline variants
//! against other experiments (the plain `conventional`/`basic`/`extended`
//! rows at 48 registers are exactly Figure 10's points) and the variants run
//! in parallel like any other sweep.

use crate::config::ExperimentOptions;
use crate::engine::{Experiment, PlanContext, PlannedPoint, ResultSet};
use crate::metrics::harmonic_mean;
use crate::report::{fmt, fmt_pct, NamedTable, Report, TextTable};
use earlyreg_core::ReleasePolicy;
use earlyreg_workloads::WorkloadClass;
use serde::Serialize;

/// Register-file size used by the ablation (tight enough for every knob to
/// matter).
pub const ABLATION_REGISTERS: usize = 48;

/// One ablation variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Variant {
    /// Human-readable name.
    pub name: &'static str,
    /// Release policy.
    pub policy: ReleasePolicy,
    /// Whether the reuse optimisation is enabled.
    pub reuse: bool,
    /// Maximum unverified branches (checkpoints / Release Queue depth).
    pub max_pending_branches: usize,
}

/// The variants examined.
pub const VARIANTS: [Variant; 6] = [
    Variant {
        name: "conventional",
        policy: ReleasePolicy::Conventional,
        reuse: true,
        max_pending_branches: 20,
    },
    Variant {
        name: "basic (no reuse)",
        policy: ReleasePolicy::Basic,
        reuse: false,
        max_pending_branches: 20,
    },
    Variant {
        name: "basic",
        policy: ReleasePolicy::Basic,
        reuse: true,
        max_pending_branches: 20,
    },
    Variant {
        name: "extended (no reuse)",
        policy: ReleasePolicy::Extended,
        reuse: false,
        max_pending_branches: 20,
    },
    Variant {
        name: "extended (4 branches)",
        policy: ReleasePolicy::Extended,
        reuse: true,
        max_pending_branches: 4,
    },
    Variant {
        name: "extended",
        policy: ReleasePolicy::Extended,
        reuse: true,
        max_pending_branches: 20,
    },
];

/// Harmonic-mean IPC of each group under each variant.
#[derive(Debug, Clone, Serialize)]
pub struct AblationResult {
    /// (variant, int hmean IPC, fp hmean IPC) triples in [`VARIANTS`] order.
    pub rows: Vec<(Variant, f64, f64)>,
}

/// The planned points of one variant (suite order).
fn variant_points(ctx: &PlanContext, variant: Variant) -> Vec<PlannedPoint> {
    ctx.workloads()
        .iter()
        .map(|workload| {
            let mut config = ctx.machine(variant.policy, ABLATION_REGISTERS, ABLATION_REGISTERS);
            config.rename.reuse_on_committed_lu = variant.reuse;
            config.rename.max_pending_branches = variant.max_pending_branches;
            let point = crate::runner::RunPoint {
                workload: workload.name(),
                class: workload.class(),
                policy: variant.policy,
                phys_int: ABLATION_REGISTERS,
                phys_fp: ABLATION_REGISTERS,
            };
            ctx.point_with_config(point, config)
        })
        .collect()
}

/// The points the ablation needs: every variant x every workload.
pub fn plan(ctx: &PlanContext) -> Vec<PlannedPoint> {
    VARIANTS
        .into_iter()
        .flat_map(|variant| variant_points(ctx, variant))
        .collect()
}

/// Summarise resolved results into the per-variant harmonic means.
pub fn summarise(ctx: &PlanContext, results: &ResultSet) -> AblationResult {
    let mut rows = Vec::new();
    for variant in VARIANTS {
        let mut int_ipcs = Vec::new();
        let mut fp_ipcs = Vec::new();
        for planned in variant_points(ctx, variant) {
            let stats = results
                .stats(&planned)
                .unwrap_or_else(|| panic!("unresolved ablation point {:?}", planned.point));
            match planned.point.class {
                WorkloadClass::Int => int_ipcs.push(stats.ipc()),
                WorkloadClass::Fp => fp_ipcs.push(stats.ipc()),
            }
        }
        rows.push((variant, harmonic_mean(&int_ipcs), harmonic_mean(&fp_ipcs)));
    }
    AblationResult { rows }
}

/// Run the ablation standalone (engine path, no disk cache).
pub fn run(options: &ExperimentOptions) -> AblationResult {
    let ctx = PlanContext::new(*options, crate::config::Scenario::table2());
    let results = crate::engine::simulate(&ctx, &plan(&ctx));
    summarise(&ctx, &results)
}

/// The ablation table.
pub fn tables(result: &AblationResult) -> Vec<NamedTable> {
    // The speedup baseline is the variant named "conventional" (the first
    // row) — keyed by name, not by a hard-coded policy comparison.
    let baseline = result
        .rows
        .iter()
        .find(|(v, _, _)| v.name == "conventional")
        .map(|&(_, int, fp)| (int, fp))
        .unwrap_or((1.0, 1.0));
    let mut table = TextTable::new([
        "variant",
        "int Hm IPC",
        "fp Hm IPC",
        "int vs conv",
        "fp vs conv",
    ]);
    for &(variant, int_ipc, fp_ipc) in &result.rows {
        table.row([
            variant.name.to_string(),
            fmt(int_ipc, 3),
            fmt(fp_ipc, 3),
            fmt_pct(int_ipc / baseline.0 - 1.0),
            fmt_pct(fp_ipc / baseline.1 - 1.0),
        ]);
    }
    vec![NamedTable::new("variants", table)]
}

/// Render the ablation table.
pub fn render(result: &AblationResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Ablation — design choices at {ABLATION_REGISTERS}int+{ABLATION_REGISTERS}fp registers\n\n"
    ));
    out.push_str(&tables(result)[0].table.render());
    out.push_str(
        "\nnotes: the reuse optimisation mainly saves free-list traffic; a 4-deep speculation \
         window throttles the branchy integer codes; the Release Queue (extended vs basic) is \
         what recovers the early releases lost to unresolved branches\n",
    );
    out
}

/// The design-choice ablation experiment.
pub struct Ablation;

impl Experiment for Ablation {
    fn id(&self) -> &'static str {
        "ablation"
    }

    fn title(&self) -> &'static str {
        "Ablation — reuse, speculation depth and the Release Queue"
    }

    fn plan(&self, ctx: &PlanContext) -> Vec<PlannedPoint> {
        plan(ctx)
    }

    fn render(&self, ctx: &PlanContext, results: &ResultSet) -> Report {
        let result = summarise(ctx, results);
        Report {
            experiment: self.id(),
            title: self.title(),
            text: render(&result),
            tables: tables(&result),
            data: serde::Serialize::to_value(&result),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earlyreg_workloads::Scale;

    #[test]
    fn ablation_smoke_run_orders_variants_sensibly() {
        let options = ExperimentOptions {
            scale: Scale::Smoke,
            threads: 2,
            max_instructions: 15_000,
        };
        let result = run(&options);
        assert_eq!(result.rows.len(), VARIANTS.len());
        let ipc_of = |name: &str| {
            result
                .rows
                .iter()
                .find(|(v, _, _)| v.name == name)
                .map(|&(_, int, fp)| (int, fp))
                .unwrap()
        };
        let conv = ipc_of("conventional");
        let extended = ipc_of("extended");
        // The full extended mechanism must not lose to conventional release.
        assert!(extended.0 >= conv.0 * 0.97);
        assert!(extended.1 >= conv.1 * 0.97);
        let text = render(&result);
        assert!(text.contains("extended (4 branches)"));
    }

    #[test]
    fn baseline_variants_share_points_with_fig10() {
        // The unmodified variants are exactly Figure 10's 48-register
        // points, so the planner dedups them across the two experiments.
        let ctx = PlanContext::new(
            ExperimentOptions {
                scale: Scale::Smoke,
                threads: 1,
                max_instructions: 1_000,
            },
            crate::config::Scenario::table2(),
        );
        let ablation_digests: Vec<u64> = plan(&ctx).iter().map(|p| p.digest).collect();
        let fig10_digests: Vec<u64> = crate::fig10::plan(&ctx).iter().map(|p| p.digest).collect();
        let shared = fig10_digests
            .iter()
            .filter(|d| ablation_digests.contains(d))
            .count();
        // conventional + basic + extended at 48 regs: 3 policies x 10 workloads.
        assert_eq!(shared, 30);
    }
}
