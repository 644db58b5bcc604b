//! N-gram session profiles and Jaccard similarity (§5.1).
//!
//! Each session is profiled as the *set* of key n-grams it contains;
//! similarity between sessions is the Jaccard index of their profiles.
//! Sets (not multisets) keep the measure robust to the repeated-operation
//! noise the pipeline is trying to remove.

use std::cmp::Ordering;

/// N-gram profile of one key sequence.
///
/// The distinct grams are stored flat, `width` keys each, sorted and
/// deduplicated, so the Jaccard index is one merge over two arrays with no
/// hashing. DBSCAN computes it for every pair of training sessions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NgramProfile {
    /// Keys per gram: `n`, or the whole sequence when it is shorter.
    width: usize,
    /// Distinct grams, concatenated in ascending lexicographic order.
    grams: Vec<u32>,
}

impl NgramProfile {
    /// Builds the profile of `keys` with gram size `n` (n >= 1). Sequences
    /// shorter than `n` are profiled by their full content as a single gram.
    pub fn new(keys: &[u32], n: usize) -> Self {
        assert!(n >= 1, "gram size must be >= 1");
        let width = n.min(keys.len());
        if width == 0 {
            return NgramProfile {
                width,
                grams: Vec::new(),
            };
        }
        let mut windows: Vec<&[u32]> = keys.windows(width).collect();
        windows.sort_unstable();
        windows.dedup();
        NgramProfile {
            width,
            grams: windows.concat(),
        }
    }

    /// Number of distinct grams.
    pub fn len(&self) -> usize {
        self.grams.len() / self.width.max(1)
    }

    /// True when the profile is empty.
    pub fn is_empty(&self) -> bool {
        self.grams.is_empty()
    }

    /// Jaccard index between two profiles, in `[0, 1]`.
    /// Two empty profiles count as identical (1.0).
    pub fn jaccard(&self, other: &NgramProfile) -> f64 {
        if self.is_empty() && other.is_empty() {
            return 1.0;
        }
        // Grams of different widths never match.
        let inter = if self.width == other.width {
            let mut a = self.grams.chunks_exact(self.width).peekable();
            let mut b = other.grams.chunks_exact(other.width).peekable();
            let mut inter = 0;
            while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
                match x.cmp(y) {
                    Ordering::Less => {
                        a.next();
                    }
                    Ordering::Greater => {
                        b.next();
                    }
                    Ordering::Equal => {
                        inter += 1;
                        a.next();
                        b.next();
                    }
                }
            }
            inter
        } else {
            0
        };
        let union = self.len() + other.len() - inter;
        if union == 0 {
            1.0
        } else {
            inter as f64 / union as f64
        }
    }

    /// Jaccard distance `1 - jaccard`, a metric on gram sets.
    pub fn distance(&self, other: &NgramProfile) -> f64 {
        1.0 - self.jaccard(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bigram_profile_contents() {
        let p = NgramProfile::new(&[1, 2, 3, 2, 3], 2);
        // Distinct bigrams: (1,2), (2,3), (3,2).
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn identical_sequences_have_similarity_one() {
        let a = NgramProfile::new(&[1, 2, 3], 2);
        let b = NgramProfile::new(&[1, 2, 3], 2);
        assert_eq!(a.jaccard(&b), 1.0);
        assert_eq!(a.distance(&b), 0.0);
    }

    #[test]
    fn disjoint_sequences_have_similarity_zero() {
        let a = NgramProfile::new(&[1, 2], 2);
        let b = NgramProfile::new(&[3, 4], 2);
        assert_eq!(a.jaccard(&b), 0.0);
    }

    #[test]
    fn jaccard_is_symmetric_and_bounded() {
        let a = NgramProfile::new(&[1, 2, 3, 4], 2);
        let b = NgramProfile::new(&[3, 4, 5], 2);
        let ab = a.jaccard(&b);
        assert_eq!(ab, b.jaccard(&a));
        assert!((0.0..=1.0).contains(&ab));
        // grams a: (1,2),(2,3),(3,4); b: (3,4),(4,5); inter 1, union 4.
        assert!((ab - 0.25).abs() < 1e-12);
    }

    #[test]
    fn short_sequences_fall_back_to_whole_content() {
        let a = NgramProfile::new(&[7], 3);
        assert_eq!(a.len(), 1);
        let b = NgramProfile::new(&[7], 3);
        assert_eq!(a.jaccard(&b), 1.0);
        let empty = NgramProfile::new(&[], 2);
        assert!(empty.is_empty());
        assert_eq!(empty.jaccard(&empty), 1.0);
        assert_eq!(empty.jaccard(&a), 0.0);
    }

    #[test]
    fn jaccard_equals_the_hash_set_definition() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::HashSet;
        let set = |keys: &[u32], n: usize| -> HashSet<Vec<u32>> {
            if keys.is_empty() {
                HashSet::new()
            } else if keys.len() < n {
                HashSet::from([keys.to_vec()])
            } else {
                keys.windows(n).map(<[u32]>::to_vec).collect()
            }
        };
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..2000 {
            let n = rng.gen_range(1..5usize);
            let mut seq = || -> Vec<u32> {
                let len = rng.gen_range(0..12usize);
                (0..len).map(|_| rng.gen_range(0..4u32)).collect()
            };
            let (a, b) = (seq(), seq());
            let (sa, sb) = (set(&a, n), set(&b, n));
            let inter = sa.intersection(&sb).count();
            let union = sa.len() + sb.len() - inter;
            let expected = if union == 0 {
                1.0
            } else {
                inter as f64 / union as f64
            };
            let (pa, pb) = (NgramProfile::new(&a, n), NgramProfile::new(&b, n));
            assert_eq!(pa.len(), sa.len(), "{a:?} n={n}");
            assert_eq!(pa.jaccard(&pb), expected, "{a:?} vs {b:?} n={n}");
            assert_eq!(pa == pb, sa == sb, "{a:?} vs {b:?} n={n}");
        }
    }

    #[test]
    fn unigrams_ignore_order() {
        let a = NgramProfile::new(&[1, 2, 3], 1);
        let b = NgramProfile::new(&[3, 1, 2, 2], 1);
        assert_eq!(a.jaccard(&b), 1.0);
    }
}
