//! Access-time model (Figure 9.a).
//!
//! Delay is modelled as a fixed sense/decode component plus wordline and
//! bitline RC terms.  Both wires grow linearly with the number of ports
//! (every port adds a wire track to each cell, so the cell pitch — and hence
//! the wordline and bitline length — grows with `T`):
//!
//! ```text
//! t(R, T, W) = T0 + (KW·W + KR·R) · (1 + PORT_GROWTH·T)      [ns]
//! ```
//!
//! The coefficients are calibrated to the paper's anchors: the LUs Table
//! (32 entries, 56 ports, 9 bits) at 0.98 ns, the 40-entry integer file at
//! ≈ 1.32 ns (the paper states the LUs Table is 26 % faster than the smallest
//! integer file) and a ≈ 1.9–2.0 ns access time at 160 registers, matching
//! the range of Figure 9.a.

use crate::geometry::RfGeometry;

/// Fixed decode + sense-amplifier latency (ns).
pub const T0_NS: f64 = 0.746;
/// Wordline RC per bit of word width [ns/bit] (before port growth).
pub const KW_NS_PER_BIT: f64 = 0.00321;
/// Bitline RC per register [ns/register] (before port growth).
pub const KR_NS_PER_REG: f64 = 0.00255;
/// Relative cell-pitch growth per port.
pub const PORT_GROWTH: f64 = 0.02;

/// Access time of the array in nanoseconds.
pub fn access_time_ns(geometry: RfGeometry) -> f64 {
    let growth = 1.0 + PORT_GROWTH * geometry.ports() as f64;
    T0_NS
        + (KW_NS_PER_BIT * geometry.bits as f64 + KR_NS_PER_REG * geometry.registers as f64)
            * growth
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lus_table_matches_the_paper_anchor() {
        let t = access_time_ns(RfGeometry::lus_table());
        assert!(
            (t - 0.98).abs() < 0.02,
            "LUs Table access time {t:.3} ns != 0.98 ns"
        );
    }

    #[test]
    fn lus_table_is_about_26_percent_faster_than_the_smallest_int_file() {
        let lus = access_time_ns(RfGeometry::lus_table());
        let int40 = access_time_ns(RfGeometry::int_file(40));
        let saving = 1.0 - lus / int40;
        assert!(
            (0.20..=0.32).contains(&saving),
            "LUs Table saving vs 40-entry int file is {:.1} % (paper: ~26 %)",
            saving * 100.0
        );
    }

    #[test]
    fn access_time_grows_monotonically_with_registers() {
        let mut prev = 0.0;
        for p in (40..=160).step_by(8) {
            let t = access_time_ns(RfGeometry::int_file(p));
            assert!(t > prev);
            prev = t;
        }
    }

    #[test]
    fn figure9_range_is_reproduced() {
        // Figure 9.a spans roughly 1.3 ns (40 registers) to 2.0 ns (160).
        let small = access_time_ns(RfGeometry::int_file(40));
        let large = access_time_ns(RfGeometry::fp_file(160));
        assert!(
            (1.25..=1.45).contains(&small),
            "40-entry int file: {small:.3} ns"
        );
        assert!(
            (1.8..=2.1).contains(&large),
            "160-entry fp file: {large:.3} ns"
        );
    }

    #[test]
    fn more_ports_means_slower_access() {
        let int = access_time_ns(RfGeometry::int_file(80));
        let fp = access_time_ns(RfGeometry::fp_file(80));
        assert!(fp > int);
    }
}
