//! Section 4.4 — implementation cost of the extended mechanism: the energy
//! balance of shrinking the register files versus adding two LUs Tables, and
//! the storage cost on an Alpha-21264-class machine.

use crate::engine::{Experiment, PlanContext, PlannedPoint, ResultSet};
use crate::report::{fmt, NamedTable, Report, TextTable};
use earlyreg_rfmodel::storage::{alpha21264_example, lus_table_storage};
use earlyreg_rfmodel::{
    access_energy_pj, energy_balance, EnergyBalance, RfGeometry, StorageEstimate,
};
use serde::{Deserialize, Serialize};

/// Full Section 4.4 data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sec44Result {
    /// Energy of the conventional 64int + 79fp configuration versus the
    /// early-release 56int + 72fp + 2 LUs Tables configuration.
    pub balance: EnergyBalance,
    /// LUs Table energy (pJ).
    pub lus_energy_pj: f64,
    /// Storage cost of the extended mechanism on the Alpha-21264 example.
    pub storage: StorageEstimate,
    /// Storage of the two LUs Tables in bytes (exact bit count / 8).
    pub lus_storage_bytes: f64,
}

/// Compute the Section 4.4 numbers.
pub fn run() -> Sec44Result {
    Sec44Result {
        balance: energy_balance(64, 79, 56, 72),
        lus_energy_pj: access_energy_pj(RfGeometry::lus_table()),
        storage: alpha21264_example(),
        lus_storage_bytes: lus_table_storage(80, 32, 2) as f64 / 8.0,
    }
}

/// The energy-balance and storage tables.
pub fn tables(result: &Sec44Result) -> Vec<NamedTable> {
    let mut energy = TextTable::new(["configuration", "energy (pJ)"]);
    energy.row([
        "conventional: 64int + 79fp".to_string(),
        fmt(result.balance.conventional_pj, 0),
    ]);
    energy.row([
        "early release: 56int + 72fp + 2 x LUs Table".to_string(),
        fmt(result.balance.early_release_pj, 0),
    ]);
    energy.row([
        "relative difference".to_string(),
        format!("{:+.2}%", result.balance.relative_difference() * 100.0),
    ]);

    let mut storage = TextTable::new(["structure", "bits", "bytes"]);
    storage.row([
        "PRid (3 x ROS x 8b)".to_string(),
        result.storage.prid_bits.to_string(),
        fmt(result.storage.prid_bits as f64 / 8.0, 0),
    ]);
    storage.row([
        "RwC0 (3 x ROS)".to_string(),
        result.storage.rwc0_bits.to_string(),
        fmt(result.storage.rwc0_bits as f64 / 8.0, 0),
    ]);
    storage.row([
        "Release Queue (20 levels)".to_string(),
        result.storage.release_queue_bits.to_string(),
        fmt(result.storage.release_queue_bits as f64 / 8.0, 0),
    ]);
    storage.row([
        "total".to_string(),
        result.storage.total_bits().to_string(),
        format!(
            "{} ({:.2} KB)",
            fmt(result.storage.total_bytes(), 0),
            result.storage.total_kib()
        ),
    ]);
    storage.row([
        "int+fp LUs Tables".to_string(),
        format!("{}", (result.lus_storage_bytes * 8.0) as u64),
        fmt(result.lus_storage_bytes, 0),
    ]);
    vec![
        NamedTable::new("energy", energy),
        NamedTable::new("storage", storage),
    ]
}

/// Render the Section 4.4 report.
pub fn render(result: &Sec44Result) -> String {
    let tables = tables(result);
    let mut out = String::new();
    out.push_str("Section 4.4 — implementation cost of the extended mechanism\n\n");
    out.push_str(&tables[0].table.render());
    out.push_str("paper reference: 3850 pJ vs 3851 pJ (neutral)\n\n");
    out.push_str(&tables[1].table.render());
    out.push_str(
        "paper reference: about 1.22 KB for the extended mechanism plus ~128 B of LUs Tables\n",
    );
    out
}

/// The Section 4.4 experiment (analytic — no simulation points).
pub struct Sec44;

impl Experiment for Sec44 {
    fn id(&self) -> &'static str {
        "sec44"
    }

    fn title(&self) -> &'static str {
        "Section 4.4 — energy balance and storage cost of the extended mechanism"
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
    fn sec44_matches_paper_anchors() {
        let result = run();
        assert!(result.balance.relative_difference().abs() < 0.02);
        assert!((result.storage.total_kib() - 1.22).abs() < 0.01);
        assert!((result.lus_energy_pj - 193.2).abs() < 2.0);
        let text = render(&result);
        assert!(text.contains("1.22"));
        assert!(text.contains("Release Queue"));
    }
}
