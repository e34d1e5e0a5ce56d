//! Order-sensitive result digests: the correctness currency of the
//! benchmark. Every query's output is folded into a [`Digest`] and compared
//! against the value stored with the workload or computed by an oracle.

use cij_core::GroupCounts;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a hash over a result sequence plus its row count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Hash of every row, in emission order.
    pub hash: u64,
    /// Number of rows folded in.
    pub rows: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest {
            hash: FNV_OFFSET,
            rows: 0,
        }
    }
}

impl Digest {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.hash ^= u64::from(byte);
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds in one `(p, q)` join pair.
    pub fn pair(&mut self, p: u64, q: u64) {
        self.word(p);
        self.word(q);
        self.rows += 1;
    }

    /// Folds in one multiway tuple's ids (length-prefixed, so tuples of
    /// different arity never collide by concatenation).
    pub fn tuple(&mut self, ids: &[u64]) {
        self.word(ids.len() as u64);
        for &id in ids {
            self.word(id);
        }
        self.rows += 1;
    }

    /// Digest of grouped-NN counts, taken in key order (the map itself has
    /// no stable iteration order).
    pub fn of_groups(groups: &GroupCounts) -> Digest {
        let mut entries: Vec<(&(u64, u64), &u64)> = groups.iter().collect();
        entries.sort_unstable();
        let mut digest = Digest::default();
        for (&(p, q), &count) in entries {
            digest.tuple(&[p, q, count]);
        }
        digest
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}/{}", self.hash, self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of_pairs(pairs: &[(u64, u64)]) -> Digest {
        let mut d = Digest::default();
        for &(p, q) in pairs {
            d.pair(p, q);
        }
        d
    }

    #[test]
    fn pair_digest_is_a_pinned_function_of_the_sequence() {
        // Pinned value: a change here silently invalidates every stored
        // expected digest.
        assert_eq!(Digest::default().hash, FNV_OFFSET);
        let d = of_pairs(&[(1, 2), (3, 4)]);
        assert_eq!(d.rows, 2);
        assert_eq!(d, of_pairs(&[(1, 2), (3, 4)]));
        assert_eq!(format!("{d}"), "898f7e1ce6964921/2");
    }

    #[test]
    fn pair_digest_sees_order_and_content() {
        let base = of_pairs(&[(1, 2), (3, 4)]);
        assert_ne!(base, of_pairs(&[(3, 4), (1, 2)]));
        assert_ne!(base, of_pairs(&[(1, 2), (3, 5)]));
        assert_ne!(base, of_pairs(&[(1, 2)]));
    }

    #[test]
    fn tuple_digest_separates_arity() {
        let mut a = Digest::default();
        a.tuple(&[1, 2]);
        a.tuple(&[3]);
        let mut b = Digest::default();
        b.tuple(&[1]);
        b.tuple(&[2, 3]);
        assert_ne!(a, b);
    }

    #[test]
    fn group_digest_ignores_map_order() {
        let mut g1 = GroupCounts::new();
        let mut g2 = GroupCounts::new();
        for i in 0..50u64 {
            g1.insert((i, i + 1), i * 3);
        }
        for i in (0..50u64).rev() {
            g2.insert((i, i + 1), i * 3);
        }
        assert_eq!(Digest::of_groups(&g1), Digest::of_groups(&g2));
        g2.insert((0, 1), 1);
        assert_ne!(Digest::of_groups(&g1), Digest::of_groups(&g2));
    }
}
