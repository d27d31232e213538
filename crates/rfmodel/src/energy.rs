//! Energy model (Figure 9.b and the Section 4.4 energy balance).
//!
//! Energy per fully-active cycle is dominated by bitline switching: every
//! port drives a bitline spanning all `R` rows (plus a fixed decoder/driver
//! overhead equivalent to `R_OVERHEAD` rows) for each of the `W` bits:
//!
//! ```text
//! E(R, T, W) = KE · W · T · (R + R_OVERHEAD)        [pJ]
//! ```
//!
//! The coefficients are calibrated so that (a) the LUs Table consumes the
//! paper's 193.2 pJ, and (b) shrinking the register files from 64int + 79fp
//! to 56int + 72fp pays for two LUs Tables (the Section 4.4 energy-neutrality
//! result): the per-register slopes satisfy `8·slope_int + 7·slope_fp ≈
//! 2 × 193.2 pJ`.

use crate::geometry::RfGeometry;
use serde::{Deserialize, Serialize};

/// Energy per bit, per port, per row (pJ).
pub const KE_PJ: f64 = 0.0086;
/// Fixed decoder/driver overhead expressed in equivalent rows.
pub const R_OVERHEAD: f64 = 12.58;

/// Energy of one fully-active access cycle, in picojoules.
pub fn access_energy_pj(geometry: RfGeometry) -> f64 {
    KE_PJ
        * geometry.bits as f64
        * geometry.ports() as f64
        * (geometry.registers as f64 + R_OVERHEAD)
}

/// The Section 4.4 comparison: conventional renaming with larger files versus
/// early release with smaller files plus two LUs Tables.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyBalance {
    /// Energy of the conventional configuration (pJ).
    pub conventional_pj: f64,
    /// Energy of the early-release configuration (including the LUs Tables)
    /// (pJ).
    pub early_release_pj: f64,
}

impl EnergyBalance {
    /// Relative difference (positive = early release costs more).
    pub fn relative_difference(&self) -> f64 {
        (self.early_release_pj - self.conventional_pj) / self.conventional_pj
    }
}

/// Compute the energy balance between a conventional configuration
/// (`conv_int`/`conv_fp` registers) and an early-release configuration
/// (`early_int`/`early_fp` registers plus two LUs Tables).
pub fn energy_balance(
    conv_int: usize,
    conv_fp: usize,
    early_int: usize,
    early_fp: usize,
) -> EnergyBalance {
    let conventional_pj = access_energy_pj(RfGeometry::int_file(conv_int))
        + access_energy_pj(RfGeometry::fp_file(conv_fp));
    let early_release_pj = access_energy_pj(RfGeometry::int_file(early_int))
        + access_energy_pj(RfGeometry::fp_file(early_fp))
        + 2.0 * access_energy_pj(RfGeometry::lus_table());
    EnergyBalance {
        conventional_pj,
        early_release_pj,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lus_table_energy_matches_the_paper_anchor() {
        let e = access_energy_pj(RfGeometry::lus_table());
        assert!(
            (e - 193.2).abs() < 2.0,
            "LUs Table energy {e:.1} pJ != 193.2 pJ"
        );
    }

    #[test]
    fn section_4_4_energy_balance_is_neutral() {
        // Paper: Econv(64int + 79fp) = 3850 pJ vs Eearly(56int + 72fp + 2 LUs
        // Tables) = 3851 pJ.  The calibrated model must make the two sides
        // agree to within ~2 %.
        let balance = energy_balance(64, 79, 56, 72);
        assert!(
            balance.relative_difference().abs() < 0.02,
            "energy balance is not neutral: {balance:?}"
        );
    }

    #[test]
    fn lus_table_is_a_small_fraction_of_a_register_file() {
        let lus = access_energy_pj(RfGeometry::lus_table());
        let smallest = access_energy_pj(RfGeometry::int_file(40));
        let fraction = lus / smallest;
        assert!(
            (0.10..=0.25).contains(&fraction),
            "LUs Table consumes {:.0} % of the smallest file (paper: ~20 %)",
            fraction * 100.0
        );
    }

    #[test]
    fn energy_grows_linearly_with_registers() {
        let e40 = access_energy_pj(RfGeometry::fp_file(40));
        let e80 = access_energy_pj(RfGeometry::fp_file(80));
        let e160 = access_energy_pj(RfGeometry::fp_file(160));
        assert!(e80 > e40 && e160 > e80);
        // Figure 9.b tops out around 4.5–5 nJ at 160 registers.
        assert!(
            (4000.0..=5200.0).contains(&e160),
            "fp file at 160: {e160:.0} pJ"
        );
    }

    #[test]
    fn fp_file_costs_more_than_int_file() {
        assert!(
            access_energy_pj(RfGeometry::fp_file(96)) > access_energy_pj(RfGeometry::int_file(96))
        );
    }
}
