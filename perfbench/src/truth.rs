//! Seeded inputs and the ground truth every answer is checked against.

use std::collections::BTreeMap;

use pir_protocol::PirTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// An independent RNG stream of the run seed, one per purpose.
pub fn stream(seed: u64, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix64(seed ^ splitmix64(purpose)))
}

/// A table whose every byte is derived from the seed.
pub fn seeded_table(seed: u64, entries: u64, entry_bytes: usize) -> PirTable {
    let salt = splitmix64(seed);
    PirTable::generate(entries, entry_bytes, |row, offset| {
        let word = splitmix64(salt ^ row.wrapping_mul(0x0100_0000_01B3) ^ (offset as u64 / 8));
        (word >> (8 * (offset % 8))) as u8
    })
}

/// Uniform indices from the seed. PIR servers do the same work for every
/// index, so the distribution only matters for the client-side check.
pub fn indices(rng: &mut StdRng, entries: u64, count: usize) -> Vec<u64> {
    (0..count).map(|_| rng.gen_range(0..entries)).collect()
}

pub fn payload(rng: &mut StdRng, entry_bytes: usize) -> Vec<u8> {
    (0..entry_bytes).map(|_| rng.gen::<u8>()).collect()
}

/// The table's rows at every table version: the generated table is version
/// `first_version`, and each recorded write makes the next version.
pub struct Truth {
    base: PirTable,
    first_version: u64,
    latest: u64,
    writes: BTreeMap<(u64, u64), Vec<u8>>,
}

impl Truth {
    pub fn new(base: PirTable, first_version: u64) -> Self {
        Self {
            base,
            first_version,
            latest: first_version,
            writes: BTreeMap::new(),
        }
    }

    pub fn table(&self) -> &PirTable {
        &self.base
    }

    /// Record the next write and return the version it creates. Call it
    /// before issuing the write, so no answer can carry a version the truth
    /// does not know yet.
    pub fn record_write(&mut self, index: u64, bytes: Vec<u8>) -> u64 {
        self.latest += 1;
        self.writes.insert((index, self.latest), bytes);
        self.latest
    }

    /// Row `index` as of `version`, or `None` for a version never served.
    pub fn row_at(&self, index: u64, version: u64) -> Option<Vec<u8>> {
        if version < self.first_version || version > self.latest {
            return None;
        }
        Some(
            self.writes
                .range((index, 0)..=(index, version))
                .next_back()
                .map_or_else(|| self.base.entry(index), |(_, bytes)| bytes.clone()),
        )
    }

    pub fn matches(&self, index: u64, version: u64, row: &[u8]) -> bool {
        self.row_at(index, version)
            .is_some_and(|truth| truth == row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_table() {
        let a = seeded_table(7, 64, 16);
        let b = seeded_table(7, 64, 16);
        let c = seeded_table(8, 64, 16);
        assert_eq!(a.entry(5), b.entry(5));
        assert_ne!(a.entry(5), c.entry(5));
        assert_ne!(a.entry(5), a.entry(6));
    }

    #[test]
    fn rows_follow_the_version_they_were_answered_at() {
        let mut truth = Truth::new(seeded_table(1, 8, 4), 1);
        let original = truth.table().entry(3);
        let v2 = truth.record_write(3, vec![9; 4]);
        let v3 = truth.record_write(5, vec![7; 4]);
        assert_eq!((v2, v3), (2, 3));
        assert!(truth.matches(3, 1, &original));
        assert!(truth.matches(3, 2, &[9; 4]));
        assert!(truth.matches(3, 3, &[9; 4]));
        assert!(!truth.matches(3, 3, &original));
        assert!(truth.row_at(3, 4).is_none());
        assert!(truth.row_at(3, 0).is_none());
    }
}
