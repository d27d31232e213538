//! Figure 9 — access time and energy of the Last-Uses Table compared to the
//! integer and FP register files as the number of registers grows from 40 to
//! 160 (analytic model, no simulation).

use crate::engine::{Experiment, PlanContext, PlannedPoint, ResultSet};
use crate::report::{fmt, NamedTable, Report, TextTable};
use earlyreg_rfmodel::{access_energy_pj, access_time_ns, RfGeometry};
use serde::{Deserialize, Serialize};

/// One sampled register-file size.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Fig09Row {
    /// Registers in the file.
    pub registers: usize,
    /// Integer-file access time (ns).
    pub int_time_ns: f64,
    /// FP-file access time (ns).
    pub fp_time_ns: f64,
    /// Integer-file energy (pJ).
    pub int_energy_pj: f64,
    /// FP-file energy (pJ).
    pub fp_energy_pj: f64,
}

/// Full Figure 9 data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig09Result {
    /// Register-file samples (40–160 in steps of 8).
    pub rows: Vec<Fig09Row>,
    /// LUs Table access time (ns) (paper: 0.98 ns).
    pub lus_time_ns: f64,
    /// LUs Table energy (pJ) (paper: 193.2 pJ).
    pub lus_energy_pj: f64,
}

/// Compute the Figure 9 curves.
pub fn run() -> Fig09Result {
    let rows = (40..=160)
        .step_by(8)
        .map(|registers| Fig09Row {
            registers,
            int_time_ns: access_time_ns(RfGeometry::int_file(registers)),
            fp_time_ns: access_time_ns(RfGeometry::fp_file(registers)),
            int_energy_pj: access_energy_pj(RfGeometry::int_file(registers)),
            fp_energy_pj: access_energy_pj(RfGeometry::fp_file(registers)),
        })
        .collect();
    Fig09Result {
        rows,
        lus_time_ns: access_time_ns(RfGeometry::lus_table()),
        lus_energy_pj: access_energy_pj(RfGeometry::lus_table()),
    }
}

/// The access time / energy table.
pub fn tables(result: &Fig09Result) -> Vec<NamedTable> {
    let mut table = TextTable::new([
        "registers",
        "int time (ns)",
        "fp time (ns)",
        "LUsT time (ns)",
        "int energy (pJ)",
        "fp energy (pJ)",
        "LUsT energy (pJ)",
    ]);
    for row in &result.rows {
        table.row([
            row.registers.to_string(),
            fmt(row.int_time_ns, 3),
            fmt(row.fp_time_ns, 3),
            fmt(result.lus_time_ns, 3),
            fmt(row.int_energy_pj, 0),
            fmt(row.fp_energy_pj, 0),
            fmt(result.lus_energy_pj, 1),
        ]);
    }
    vec![NamedTable::new("access", table)]
}

/// Render both panels of Figure 9.
pub fn render(result: &Fig09Result) -> String {
    let mut out = String::new();
    out.push_str(
        "Figure 9 — LUs Table vs register file access time and energy (0.18 um model)\n\n",
    );
    out.push_str(&tables(result)[0].table.render());
    out.push_str(
        "\npaper reference: LUs Table at 0.98 ns / 193.2 pJ, ~26% faster than the smallest \
         integer file and ~20% of the least demanding file's energy\n",
    );
    out
}

/// The Figure 9 experiment (analytic — no simulation points).
pub struct Fig09;

impl Experiment for Fig09 {
    fn id(&self) -> &'static str {
        "fig09"
    }

    fn title(&self) -> &'static str {
        "Figure 9 — LUs Table vs register file access time and energy"
    }

    fn plan(&self, _ctx: &PlanContext) -> Vec<PlannedPoint> {
        Vec::new()
    }

    fn render(&self, _ctx: &PlanContext, _results: &ResultSet) -> Report {
        let result = run();
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

    #[test]
    fn fig09_reproduces_the_anchor_points() {
        let result = run();
        assert_eq!(result.rows.len(), 16);
        assert!((result.lus_time_ns - 0.98).abs() < 0.02);
        assert!((result.lus_energy_pj - 193.2).abs() < 2.0);
        // The LUs Table is below every register-file curve.
        for row in &result.rows {
            assert!(result.lus_time_ns < row.int_time_ns);
            assert!(result.lus_energy_pj < row.int_energy_pj);
            assert!(row.fp_time_ns >= row.int_time_ns);
            assert!(row.fp_energy_pj >= row.int_energy_pj);
        }
        assert!(render(&result).contains("registers"));
    }
}
