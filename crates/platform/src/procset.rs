//! Compact processor-id bitsets.
//!
//! Scheduling decisions constantly union, intersect and rank small sets of
//! processor ids (machine sizes in the paper top out at 128). A `Vec<u64>`
//! bitset keeps those operations branch-free and allocation-light.

use serde::{Deserialize, Serialize, Value};

/// A processor id: dense indices `0..P`.
pub type ProcId = u32;

const BITS: usize = 64;

/// A set of processor ids, stored as a growable bitmap.
///
/// Sets from the same [`Cluster`](crate::Cluster) can be combined freely;
/// word vectors grow on demand and trailing zero words are ignored by
/// comparisons.
///
/// # Examples
/// ```
/// use locmps_platform::ProcSet;
///
/// let a: ProcSet = [0u32, 1, 2, 3].into_iter().collect();
/// let b: ProcSet = [2u32, 3, 4].into_iter().collect();
/// assert_eq!(a.intersection_len(&b), 2);
/// assert_eq!(a.union(&b).len(), 5);
/// assert_eq!(a.to_vec(), vec![0, 1, 2, 3]);
/// ```
#[derive(Debug, Clone, Default, Deserialize)]
pub struct ProcSet {
    words: Vec<u64>,
}

impl ProcSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The set `{0, 1, …, n-1}` — "all processors" of an `n`-node cluster.
    pub fn all(n: usize) -> Self {
        let mut s = Self::new();
        for p in 0..n {
            s.insert(p as ProcId);
        }
        s
    }

    /// A singleton set.
    pub fn single(p: ProcId) -> Self {
        let mut s = Self::new();
        s.insert(p);
        s
    }

    /// Inserts `p`; returns whether it was newly added.
    pub fn insert(&mut self, p: ProcId) -> bool {
        let (w, b) = (p as usize / BITS, p as usize % BITS);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let newly = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        newly
    }

    /// Removes `p`; returns whether it was present.
    pub fn remove(&mut self, p: ProcId) -> bool {
        let (w, b) = (p as usize / BITS, p as usize % BITS);
        if w >= self.words.len() {
            return false;
        }
        let present = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        present
    }

    /// Membership test.
    pub fn contains(&self, p: ProcId) -> bool {
        let (w, b) = (p as usize / BITS, p as usize % BITS);
        w < self.words.len() && self.words[w] & (1 << b) != 0
    }

    /// Number of processors in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    Some((wi * BITS) as ProcId + b)
                }
            })
        })
    }

    /// The members as a sorted vector.
    pub fn to_vec(&self) -> Vec<ProcId> {
        self.iter().collect()
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &ProcSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Owned union.
    pub fn union(&self, other: &ProcSet) -> ProcSet {
        let mut s = self.clone();
        s.union_with(other);
        s
    }

    /// Owned intersection.
    pub fn intersection(&self, other: &ProcSet) -> ProcSet {
        let n = self.words.len().min(other.words.len());
        ProcSet {
            words: (0..n).map(|i| self.words[i] & other.words[i]).collect(),
        }
    }

    /// Owned difference `self \ other`.
    pub fn difference(&self, other: &ProcSet) -> ProcSet {
        ProcSet {
            words: self
                .words
                .iter()
                .enumerate()
                .map(|(i, &w)| w & !other.words.get(i).copied().unwrap_or(0))
                .collect(),
        }
    }

    /// Number of shared processors — the heart of the locality metric.
    pub fn intersection_len(&self, other: &ProcSet) -> usize {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Whether the sets share no processor.
    pub fn is_disjoint(&self, other: &ProcSet) -> bool {
        self.intersection_len(other) == 0
    }

    /// Whether every member of `self` is in `other`.
    pub fn is_subset(&self, other: &ProcSet) -> bool {
        self.words
            .iter()
            .enumerate()
            .all(|(i, &w)| w & !other.words.get(i).copied().unwrap_or(0) == 0)
    }

    /// Removes every member, keeping the allocated capacity so the set can
    /// be refilled without reallocating (scratch-buffer reuse in hot
    /// scheduling loops).
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// The lowest id in the set.
    pub fn first(&self) -> Option<ProcId> {
        self.iter().next()
    }

    /// The bitmap words: bit `p % 64` of word `p / 64` is processor `p`.
    /// May end in zero words, which carry no members.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Empties the set and hands out its first `n` bitmap words, zeroed,
    /// for a word-parallel producer to fill; the allocation is reused.
    pub fn reset_words(&mut self, n: usize) -> &mut [u64] {
        self.words.clear();
        self.words.resize(n, 0);
        &mut self.words
    }

    /// The bitmap words without trailing zero words: the canonical form
    /// that equality, hashing and serialization all see.
    fn trimmed_words(&self) -> &[u64] {
        let end = self
            .words
            .iter()
            .rposition(|&w| w != 0)
            .map_or(0, |i| i + 1);
        &self.words[..end]
    }

    /// Keeps only the `k` lowest-id members (no-op if `len() <= k`).
    pub fn truncate(&mut self, k: usize) {
        if self.len() <= k {
            return;
        }
        let keep: Vec<ProcId> = self.iter().take(k).collect();
        self.words.clear();
        for p in keep {
            self.insert(p);
        }
    }
}

impl PartialEq for ProcSet {
    fn eq(&self, other: &Self) -> bool {
        self.trimmed_words() == other.trimmed_words()
    }
}

impl Eq for ProcSet {}

impl std::hash::Hash for ProcSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.trimmed_words().hash(state);
    }
}

/// Writes the trimmed words, so equal sets serialize to the same bytes
/// however they were built (schedule JSON, fingerprints and served
/// responses all go through this).
impl Serialize for ProcSet {
    fn to_value(&self) -> Value {
        Value::Object(vec![("words".to_string(), self.trimmed_words().to_value())])
    }
}

impl FromIterator<ProcId> for ProcSet {
    fn from_iter<I: IntoIterator<Item = ProcId>>(iter: I) -> Self {
        let mut s = ProcSet::new();
        for p in iter {
            s.insert(p);
        }
        s
    }
}

impl std::fmt::Display for ProcSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = ProcSet::new();
        assert!(s.is_empty());
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.insert(130)); // crosses a word boundary
        assert!(s.contains(3) && s.contains(130) && !s.contains(4));
        assert_eq!(s.len(), 2);
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert!(!s.remove(999));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn iter_is_sorted() {
        let s: ProcSet = [5u32, 1, 200, 64, 63].into_iter().collect();
        assert_eq!(s.to_vec(), vec![1, 5, 63, 64, 200]);
        assert_eq!(s.first(), Some(1));
    }

    #[test]
    fn set_algebra() {
        let a: ProcSet = [0u32, 1, 2, 3].into_iter().collect();
        let b: ProcSet = [2u32, 3, 4, 5].into_iter().collect();
        assert_eq!(a.union(&b).to_vec(), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(a.intersection(&b).to_vec(), vec![2, 3]);
        assert_eq!(a.difference(&b).to_vec(), vec![0, 1]);
        assert_eq!(a.intersection_len(&b), 2);
        assert!(!a.is_disjoint(&b));
        assert!(a.intersection(&b).is_subset(&a));
        let c: ProcSet = [100u32].into_iter().collect();
        assert!(a.is_disjoint(&c));
    }

    #[test]
    fn equality_ignores_capacity() {
        let mut a = ProcSet::single(1);
        let mut b = ProcSet::single(1);
        b.insert(500);
        b.remove(500); // leaves trailing zero words
        assert_eq!(a, b);
        a.insert(2);
        assert_ne!(a, b);
    }

    #[test]
    fn serialization_ignores_trailing_zero_words() {
        let plain = ProcSet::single(0);
        let mut grown: ProcSet = [0u32, 64].into_iter().collect();
        grown.remove(64);
        assert_eq!(plain, grown);
        assert_eq!(plain.to_value(), grown.to_value());
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&grown).unwrap()
        );
        assert_eq!(
            ProcSet::new().to_value(),
            ProcSet::all(70).difference(&ProcSet::all(70)).to_value()
        );
    }

    #[test]
    fn reset_words_fills_word_parallel() {
        let mut s: ProcSet = [3u32, 200].into_iter().collect();
        let words = s.reset_words(2);
        assert_eq!(words, &[0, 0]);
        words[0] = 0b101;
        words[1] = 1;
        assert_eq!(s.to_vec(), vec![0, 2, 64]);
        assert_eq!(s.words(), &[0b101, 1]);
    }

    #[test]
    fn clear_keeps_capacity_and_resets_members() {
        let mut s: ProcSet = [3u32, 70].into_iter().collect();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s, ProcSet::new());
        s.insert(5);
        assert_eq!(s.to_vec(), vec![5]);
        // A refilled scratch set equals (and hashes like) a fresh one.
        let fresh = ProcSet::single(5);
        assert_eq!(s, fresh);
    }

    #[test]
    fn all_and_truncate() {
        let mut s = ProcSet::all(10);
        assert_eq!(s.len(), 10);
        s.truncate(4);
        assert_eq!(s.to_vec(), vec![0, 1, 2, 3]);
        s.truncate(9); // no-op
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn display_and_hash() {
        use std::collections::HashSet;
        let a: ProcSet = [2u32, 7].into_iter().collect();
        assert_eq!(a.to_string(), "{2,7}");
        let mut b = a.clone();
        b.insert(300);
        b.remove(300);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b), "equal sets must hash equally");
    }
}
