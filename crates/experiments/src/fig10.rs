//! Figure 10 — per-benchmark IPC for a very tight 48int + 48FP register file
//! under the compared release policies, plus the per-group harmonic means.
//!
//! The compared set comes from the scenario ([`Scenario::policies`](crate::Scenario::policies)); the
//! default is the paper's canonical three (conventional / basic / extended),
//! and any registered scheme — `oracle`, `counter`, future ones — joins the
//! table via `policies = ...` with no code change here.
//!
//! Paper reference points: for FP codes the basic mechanism gains ≈ 6 % and
//! the extended ≈ 8 % over conventional; for integer codes basic is ≈ neutral
//! and extended gains ≈ 5 %.

use crate::config::ExperimentOptions;
use crate::context;
use crate::engine::{Experiment, PlanContext, PlannedPoint, ResultSet};
use crate::metrics::{harmonic_mean, speedup};
use crate::report::{
    policy_comparison_headers, policy_comparison_row, NamedTable, Report, TextTable,
};
use crate::runner::RunResult;
use earlyreg_core::ReleasePolicy;
use earlyreg_workloads::WorkloadClass;
use serde::{Deserialize, Serialize};

/// Register file size of Figure 10.
pub const FIG10_REGISTERS: usize = 48;

/// IPC of one benchmark under every compared policy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig10Row {
    /// Benchmark name.
    pub workload: String,
    /// Benchmark group.
    pub class: WorkloadClass,
    /// IPC per policy, parallel to [`Fig10Result::policies`].
    pub ipc: Vec<f64>,
}

/// Full Figure 10 data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig10Result {
    /// Registry ids of the compared policies, in column order; the first is
    /// the speedup baseline.
    pub policies: Vec<String>,
    /// Per-benchmark rows (suite order).
    pub rows: Vec<Fig10Row>,
}

impl Fig10Result {
    fn policy_column(&self, policy: &str) -> Option<usize> {
        self.policies.iter().position(|p| p == policy)
    }

    /// IPC of one benchmark under one policy (by registry id).
    pub fn ipc(&self, workload: &str, policy: &str) -> Option<f64> {
        let column = self.policy_column(policy)?;
        self.rows
            .iter()
            .find(|r| r.workload == workload)
            .and_then(|r| r.ipc.get(column).copied())
    }

    /// Harmonic-mean IPC of a group under a policy (by registry id).
    pub fn hmean(&self, class: WorkloadClass, policy: &str) -> f64 {
        let Some(column) = self.policy_column(policy) else {
            return 0.0;
        };
        let values: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.class == class)
            .filter_map(|r| r.ipc.get(column).copied())
            .collect();
        harmonic_mean(&values)
    }

    /// Speedup of a policy over the baseline (first) policy for a group
    /// (harmonic means).
    pub fn group_speedup(&self, class: WorkloadClass, policy: &str) -> f64 {
        let Some(baseline) = self.policies.first() else {
            return 0.0;
        };
        speedup(self.hmean(class, policy), self.hmean(class, baseline))
    }
}

fn ipc_from(results: &[RunResult], workload: &str, policy: ReleasePolicy) -> f64 {
    results
        .iter()
        .find(|r| r.point.workload == workload && r.point.policy == policy)
        .map(|r| r.ipc())
        .unwrap_or(0.0)
}

/// The points Figure 10 needs: every workload, every compared policy, 48+48.
pub fn plan(ctx: &PlanContext) -> Vec<PlannedPoint> {
    ctx.cross(&ctx.scenario.policies(), &[FIG10_REGISTERS])
}

/// Summarise raw sweep results (plan order, i.e. suite order) into rows.
pub fn summarise(raw: &[RunResult], policies: &[ReleasePolicy]) -> Fig10Result {
    // One row per workload, keeping the first-appearance (suite) order.
    let mut names: Vec<(&'static str, WorkloadClass)> = Vec::new();
    for r in raw {
        if !names.iter().any(|(n, _)| *n == r.point.workload) {
            names.push((r.point.workload, r.point.class));
        }
    }
    let rows = names
        .into_iter()
        .map(|(workload, class)| Fig10Row {
            workload: workload.to_string(),
            class,
            ipc: policies
                .iter()
                .map(|&policy| ipc_from(raw, workload, policy))
                .collect(),
        })
        .collect();
    Fig10Result {
        policies: policies.iter().map(|p| p.label().to_string()).collect(),
        rows,
    }
}

/// Run the Figure 10 experiment standalone (engine path, no disk cache).
pub fn run(options: &ExperimentOptions) -> Fig10Result {
    let ctx = PlanContext::new(*options, crate::config::Scenario::table2());
    let plan = plan(&ctx);
    let results = crate::engine::simulate(&ctx, &plan);
    summarise(&results.collect(&plan), &ctx.scenario.policies())
}

/// One IPC table per benchmark group, with one column per compared policy
/// and one speedup column per non-baseline policy.
pub fn tables(result: &Fig10Result) -> Vec<NamedTable> {
    [WorkloadClass::Int, WorkloadClass::Fp]
        .into_iter()
        .map(|class| {
            let mut table =
                TextTable::new(policy_comparison_headers("benchmark", &result.policies));
            for row in result.rows.iter().filter(|r| r.class == class) {
                table.row(policy_comparison_row(row.workload.clone(), &row.ipc));
            }
            let hmeans: Vec<f64> = result
                .policies
                .iter()
                .map(|p| result.hmean(class, p))
                .collect();
            table.row(policy_comparison_row("Hm".to_string(), &hmeans));
            NamedTable::new(
                match class {
                    WorkloadClass::Int => "int",
                    WorkloadClass::Fp => "fp",
                },
                table,
            )
        })
        .collect()
}

/// Render the Figure 10 table.
pub fn render(result: &Fig10Result) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 10 — IPC with a {FIG10_REGISTERS}int+{FIG10_REGISTERS}fp register file \
         (policies: {})\n\n",
        result.policies.join(", ")
    ));
    for (class, table) in [WorkloadClass::Int, WorkloadClass::Fp]
        .into_iter()
        .zip(tables(result))
    {
        out.push_str(&format!("{} programs\n", class.label()));
        out.push_str(&table.table.render());
        out.push('\n');
    }
    out.push_str(
        "paper reference (48+48): FP basic ≈ +6%, FP extended ≈ +8%, \
         integer basic ≈ +0%, integer extended ≈ +5% over conventional\n",
    );
    out
}

/// The Figure 10 experiment.
pub struct Fig10;

impl Experiment for Fig10 {
    fn id(&self) -> &'static str {
        "fig10"
    }

    fn title(&self) -> &'static str {
        "Figure 10 — per-benchmark IPC at 48int+48fp registers"
    }

    fn plan(&self, ctx: &PlanContext) -> Vec<PlannedPoint> {
        plan(ctx)
    }

    fn render(&self, ctx: &PlanContext, results: &ResultSet) -> Report {
        let result = summarise(&results.collect(&plan(ctx)), &ctx.scenario.policies());
        let mut text = context::render_table2(FIG10_REGISTERS, FIG10_REGISTERS);
        text.push('\n');
        text.push_str(&render(&result));
        Report {
            experiment: self.id(),
            title: self.title(),
            text,
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
    fn fig10_smoke_run_preserves_policy_ordering() {
        let options = ExperimentOptions {
            scale: Scale::Smoke,
            threads: 2,
            max_instructions: 30_000,
        };
        let result = run(&options);
        assert_eq!(result.policies, ["conv", "basic", "extended"]);
        assert_eq!(result.rows.len(), 10);
        // Rows keep the suite order: the five integer programs first.
        assert_eq!(result.rows[0].workload, "compress");
        assert_eq!(result.rows[5].workload, "mgrid");
        for row in &result.rows {
            let conv = result.ipc(&row.workload, "conv").unwrap();
            let basic = result.ipc(&row.workload, "basic").unwrap();
            let extended = result.ipc(&row.workload, "extended").unwrap();
            assert!(conv > 0.0, "{} has zero conventional IPC", row.workload);
            // Early release must never hurt by more than simulation noise.
            assert!(
                basic >= conv * 0.97,
                "{}: basic {basic} vs conv {conv}",
                row.workload,
            );
            assert!(
                extended >= conv * 0.97,
                "{}: ext {extended} vs conv {conv}",
                row.workload,
            );
        }
        // At 48 registers the FP group must benefit from the extended scheme.
        assert!(result.group_speedup(WorkloadClass::Fp, "extended") > 0.0);
        let text = render(&result);
        assert!(text.contains("Hm"));
        assert!(text.contains("extended/conv"));
    }
}
