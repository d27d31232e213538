//! Map Table and In-Order Map Table.
//!
//! The Map Table (MT) holds the speculative logical→physical mapping used by
//! rename; the In-Order Map Table (IOMT, called Retirement Register Alias
//! Table in the Pentium 4) holds the *architectural* mapping updated at
//! commit, and is the recovery source for precise exceptions (paper Figure 1
//! and Section 2).

use crate::types::PhysReg;
use earlyreg_isa::{ArchReg, RegClass};

/// A logical→physical mapping for one register class.
///
/// Besides the forward map, the table maintains a reverse index (per
/// physical register: how many logical registers name it, and the most
/// recent one) so that release paths can find the logical registers naming
/// a physical register in O(1) instead of scanning the table — the scan
/// survives only as a fallback for the rare duplicate-mapping states that
/// stale dead-value mappings create.  Equality compares the forward map
/// only; the reverse index is derived state.
#[derive(Debug, Clone, Eq)]
pub struct MapTable {
    class: RegClass,
    map: Vec<PhysReg>,
    /// Per physical register: number of logical registers currently mapped
    /// to it (grown on demand — the table does not know the file size).
    rev_count: Vec<u8>,
    /// Per physical register: the logical register most recently mapped to
    /// it.  Meaningful only while `rev_count` is 1 *and* the forward map
    /// confirms it; otherwise callers fall back to a scan.
    rev_logical: Vec<u16>,
}

impl PartialEq for MapTable {
    fn eq(&self, other: &Self) -> bool {
        self.class == other.class && self.map == other.map
    }
}

impl MapTable {
    /// Create the identity mapping `logical i → physical i`, which is the
    /// reset state of the machine (the first `L` physical registers hold the
    /// initial architectural values).
    pub fn identity(class: RegClass) -> Self {
        let logical = class.num_logical();
        MapTable {
            class,
            map: (0..logical).map(|i| PhysReg(i as u16)).collect(),
            rev_count: vec![1; logical],
            rev_logical: (0..logical).map(|i| i as u16).collect(),
        }
    }

    fn ensure_rev(&mut self, phys: PhysReg) {
        if phys.index() >= self.rev_count.len() {
            self.rev_count.resize(phys.index() + 1, 0);
            self.rev_logical.resize(phys.index() + 1, 0);
        }
    }

    /// Rebuild the reverse index from the forward map (bulk restores).
    fn rebuild_rev(&mut self) {
        self.rev_count.iter_mut().for_each(|c| *c = 0);
        for i in 0..self.map.len() {
            let p = self.map[i];
            self.ensure_rev(p);
            self.rev_count[p.index()] += 1;
            self.rev_logical[p.index()] = i as u16;
        }
    }

    /// The register class this table maps.
    #[inline]
    pub fn class(&self) -> RegClass {
        self.class
    }

    /// Current mapping of a logical register.
    #[inline]
    pub fn get(&self, reg: ArchReg) -> PhysReg {
        debug_assert_eq!(reg.class(), self.class);
        self.map[reg.index()]
    }

    /// Redirect a logical register to a new physical register, returning the
    /// previous mapping (the paper's `old_pd`).
    #[inline]
    pub fn set(&mut self, reg: ArchReg, phys: PhysReg) -> PhysReg {
        debug_assert_eq!(reg.class(), self.class);
        let old = std::mem::replace(&mut self.map[reg.index()], phys);
        if old != phys {
            self.rev_count[old.index()] -= 1;
            self.ensure_rev(phys);
            self.rev_count[phys.index()] += 1;
            self.rev_logical[phys.index()] = reg.index() as u16;
        }
        old
    }

    /// Restore this table from a snapshot (branch misprediction recovery).
    pub fn restore_from(&mut self, snapshot: &MapTable) {
        debug_assert_eq!(self.class, snapshot.class);
        self.map.copy_from_slice(&snapshot.map);
        self.rebuild_rev();
    }

    /// Call `f` for every logical register currently mapped to `phys`.
    ///
    /// The common cases (no mapping, exactly one mapping) resolve through
    /// the reverse index without touching the forward map; only the rare
    /// duplicate-mapping state falls back to a full scan.
    #[inline]
    pub fn for_each_logical_of(&self, phys: PhysReg, mut f: impl FnMut(ArchReg)) {
        let Some(&count) = self.rev_count.get(phys.index()) else {
            return;
        };
        match count {
            0 => {}
            // `rev_logical` tracks the *latest* logical mapped to `phys`; if
            // that one has since remapped away while an older mapping
            // remains, the hint is stale and we fall through to the scan.
            1 if self.map[self.rev_logical[phys.index()] as usize] == phys => {
                f(ArchReg::new(
                    self.class,
                    self.rev_logical[phys.index()] as usize,
                ));
            }
            _ => {
                for (i, &p) in self.map.iter().enumerate() {
                    if p == phys {
                        f(ArchReg::new(self.class, i));
                    }
                }
            }
        }
    }

    /// Whether any logical register currently maps to `phys`, in O(1).
    #[inline]
    pub fn maps_physical(&self, phys: PhysReg) -> bool {
        self.rev_count.get(phys.index()).is_some_and(|&c| c > 0)
    }

    /// Find the logical register currently mapped to `phys`, if any.
    ///
    /// Returns the lowest-indexed match.  Duplicates are legal (a
    /// freed-but-still-mapped register can be reallocated while one or more
    /// stale mappings to it remain, so several logical registers may name
    /// the same physical register).
    pub fn find_logical(&self, phys: PhysReg) -> Option<ArchReg> {
        self.map
            .iter()
            .position(|&p| p == phys)
            .map(|i| ArchReg::new(self.class, i))
    }

    /// Iterate over `(logical, physical)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ArchReg, PhysReg)> + '_ {
        self.map
            .iter()
            .enumerate()
            .map(move |(i, &p)| (ArchReg::new(self.class, i), p))
    }

    /// All mapped physical registers (with duplicates, if any — duplicates
    /// only occur transiently for stale dead-value mappings after an
    /// exception recovery, see `RenameUnit` documentation).
    pub fn mapped_physical(&self) -> impl Iterator<Item = PhysReg> + '_ {
        self.map.iter().copied()
    }
}

/// The pair of speculative and architectural map tables for one class.
#[derive(Debug, Clone)]
pub struct MapTablePair {
    /// Speculative map updated at rename.
    pub front: MapTable,
    /// In-order (architectural) map updated at commit.
    pub retire: MapTable,
}

impl MapTablePair {
    /// Reset state: both tables hold the identity mapping.
    pub fn new(class: RegClass) -> Self {
        MapTablePair {
            front: MapTable::identity(class),
            retire: MapTable::identity(class),
        }
    }

    /// Precise-exception recovery: the speculative map becomes a copy of the
    /// architectural map.
    pub fn recover_from_retire(&mut self) {
        let retire = self.retire.clone();
        self.front.restore_from(&retire);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_reset_state() {
        let mt = MapTable::identity(RegClass::Int);
        for i in 0..32 {
            assert_eq!(mt.get(ArchReg::int(i)), PhysReg(i as u16));
        }
    }

    #[test]
    fn set_returns_previous_mapping() {
        let mut mt = MapTable::identity(RegClass::Int);
        let old = mt.set(ArchReg::int(3), PhysReg(40));
        assert_eq!(old, PhysReg(3));
        assert_eq!(mt.get(ArchReg::int(3)), PhysReg(40));
        let old2 = mt.set(ArchReg::int(3), PhysReg(41));
        assert_eq!(old2, PhysReg(40));
    }

    #[test]
    fn restore_matches_snapshot() {
        let mut mt = MapTable::identity(RegClass::Fp);
        let snapshot = mt.clone();
        mt.set(ArchReg::fp(1), PhysReg(50));
        mt.set(ArchReg::fp(2), PhysReg(51));
        assert_ne!(mt, snapshot);
        mt.restore_from(&snapshot);
        assert_eq!(mt, snapshot);
    }

    #[test]
    fn find_logical_locates_mapping() {
        let mut mt = MapTable::identity(RegClass::Int);
        mt.set(ArchReg::int(7), PhysReg(99));
        assert_eq!(mt.find_logical(PhysReg(99)), Some(ArchReg::int(7)));
        assert_eq!(mt.find_logical(PhysReg(98)), None);
    }

    #[test]
    fn pair_recovery_copies_retire_into_front() {
        let mut pair = MapTablePair::new(RegClass::Int);
        pair.front.set(ArchReg::int(1), PhysReg(60));
        pair.retire.set(ArchReg::int(1), PhysReg(33));
        pair.recover_from_retire();
        assert_eq!(pair.front.get(ArchReg::int(1)), PhysReg(33));
        assert_eq!(pair.retire.get(ArchReg::int(1)), PhysReg(33));
    }

    #[test]
    fn iter_covers_all_logical_registers() {
        let mt = MapTable::identity(RegClass::Fp);
        assert_eq!(mt.iter().count(), 32);
        assert_eq!(mt.mapped_physical().count(), 32);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn wrong_class_lookup_is_rejected_in_debug() {
        let mt = MapTable::identity(RegClass::Int);
        let _ = mt.get(ArchReg::fp(0));
    }

    fn logicals_of(mt: &MapTable, phys: PhysReg) -> Vec<ArchReg> {
        let mut out = Vec::new();
        mt.for_each_logical_of(phys, |r| out.push(r));
        out
    }

    #[test]
    fn reverse_index_tracks_single_mapping() {
        let mut mt = MapTable::identity(RegClass::Int);
        mt.set(ArchReg::int(7), PhysReg(99));
        assert_eq!(logicals_of(&mt, PhysReg(99)), vec![ArchReg::int(7)]);
        assert!(logicals_of(&mt, PhysReg(98)).is_empty());
        assert!(mt.maps_physical(PhysReg(99)));
        assert!(!mt.maps_physical(PhysReg(98)));
        // Remapping away drops the entry.
        mt.set(ArchReg::int(7), PhysReg(40));
        assert!(logicals_of(&mt, PhysReg(99)).is_empty());
        assert!(!mt.maps_physical(PhysReg(99)));
    }

    #[test]
    fn reverse_index_handles_duplicates_and_stale_hint() {
        let mut mt = MapTable::identity(RegClass::Int);
        // Two logicals name the same physical register (stale dead-value
        // duplicate), then the *latest* one remaps away, leaving the hint
        // stale with count 1.
        mt.set(ArchReg::int(3), PhysReg(77));
        mt.set(ArchReg::int(9), PhysReg(77));
        assert_eq!(
            logicals_of(&mt, PhysReg(77)),
            vec![ArchReg::int(3), ArchReg::int(9)]
        );
        mt.set(ArchReg::int(9), PhysReg(50));
        assert_eq!(logicals_of(&mt, PhysReg(77)), vec![ArchReg::int(3)]);
    }

    #[test]
    fn reverse_index_survives_restore() {
        let mut mt = MapTable::identity(RegClass::Fp);
        let snapshot = mt.clone();
        mt.set(ArchReg::fp(1), PhysReg(50));
        mt.restore_from(&snapshot);
        assert!(logicals_of(&mt, PhysReg(50)).is_empty());
        assert_eq!(logicals_of(&mt, PhysReg(1)), vec![ArchReg::fp(1)]);
        // Mutations after a restore keep the rebuilt index consistent.
        mt.set(ArchReg::fp(2), PhysReg(60));
        assert_eq!(logicals_of(&mt, PhysReg(60)), vec![ArchReg::fp(2)]);
        assert!(logicals_of(&mt, PhysReg(2)).is_empty());
    }
}
