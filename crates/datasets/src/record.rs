//! The record and dataset model.

use serde::{Deserialize, Serialize};

/// A textual record with its provenance and (hidden) ground-truth entity.
///
/// The entity id is **ground truth** — generators know it, evaluation
/// reads it, and resolution algorithms must never look at it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Record {
    /// Dense record id, `0..n`.
    pub id: u32,
    /// Source id (0 for single-source datasets; 0 = "abt", 1 = "buy" for
    /// the Product dataset).
    pub source: u8,
    /// Ground-truth entity id.
    pub entity: u32,
    /// Raw text content (name, address, description, …).
    pub text: String,
}

/// Which record pairs are candidates — mirrors how each benchmark is
/// evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SourcePolicy {
    /// Any pair of distinct records (Restaurant, Paper).
    #[default]
    WithinSingleSource,
    /// Only pairs from different sources (Product: abt × buy).
    CrossSourceOnly,
}

/// A named dataset with ground truth.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    /// Human-readable dataset name.
    pub name: String,
    /// Records, indexed by `Record::id`.
    pub records: Vec<Record>,
    /// Candidate-pair policy.
    pub policy: SourcePolicy,
}

impl Dataset {
    /// Creates a dataset, checking that record ids are dense and in order.
    pub fn new(name: impl Into<String>, records: Vec<Record>, policy: SourcePolicy) -> Self {
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.id as usize, i, "record ids must be dense and ordered");
        }
        Self {
            name: name.into(),
            records,
            policy,
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the dataset has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// True when `(a, b)` is an admissible candidate pair under the
    /// dataset's policy.
    pub fn is_candidate(&self, a: u32, b: u32) -> bool {
        if a == b {
            return false;
        }
        match self.policy {
            SourcePolicy::WithinSingleSource => true,
            SourcePolicy::CrossSourceOnly => {
                self.records[a as usize].source != self.records[b as usize].source
            }
        }
    }

    /// Ground-truth matching pairs **within the candidate universe**:
    /// same entity and admissible under the policy. Entities come in
    /// order of their smallest record id, and each entity's pairs in
    /// ascending `(a, b)` order.
    pub fn matching_pairs(&self) -> Vec<(u32, u32)> {
        let (ids, starts) = self.entity_groups();
        let mut pairs = Vec::new();
        for w in starts.windows(2) {
            let members = &ids[w[0]..w[1]];
            for (i, &a) in members.iter().enumerate() {
                for &b in &members[i + 1..] {
                    if self.is_candidate(a, b) {
                        pairs.push((a, b));
                    }
                }
            }
        }
        pairs
    }

    /// Records grouped by ground-truth entity (every record appears once;
    /// singleton entities included), ordered by smallest member.
    pub fn entity_clusters(&self) -> Vec<Vec<u32>> {
        let (ids, starts) = self.entity_groups();
        starts
            .windows(2)
            .map(|w| ids[w[0]..w[1]].to_vec())
            .collect()
    }

    /// Record ids grouped by entity as one flat table: group `g` is
    /// `ids[starts[g]..starts[g + 1]]`, ascending, and the groups come in
    /// order of their smallest id. One sort of the `(entity, id)` keys
    /// makes each entity a run of ascending ids; walking the ids in order
    /// then emits each run when its first (smallest) id comes up.
    fn entity_groups(&self) -> (Vec<u32>, Vec<usize>) {
        let mut keys: Vec<u64> = self
            .records
            .iter()
            .map(|r| u64::from(r.entity) << 32 | u64::from(r.id))
            .collect();
        keys.sort_unstable();
        // `run_at[id]` is the position of `id`'s entity run in `keys`
        // when `id` is its smallest member, else `u32::MAX`.
        let n = keys.len();
        let mut run_at = vec![u32::MAX; n];
        let (mut start, mut groups) = (0, 0);
        while start < n {
            let entity = keys[start] >> 32;
            run_at[(keys[start] as u32) as usize] = start as u32;
            start += 1;
            while start < n && keys[start] >> 32 == entity {
                start += 1;
            }
            groups += 1;
        }
        let mut ids = Vec::with_capacity(n);
        let mut starts = Vec::with_capacity(groups + 1);
        starts.push(0);
        for &at in run_at.iter().filter(|&&at| at != u32::MAX) {
            let run = &keys[at as usize..];
            let entity = run[0] >> 32;
            ids.extend(
                run.iter()
                    .take_while(|&&k| k >> 32 == entity)
                    .map(|&k| k as u32),
            );
            starts.push(ids.len());
        }
        (ids, starts)
    }

    /// Number of candidate pairs in the whole dataset (the `n(n−1)/2` or
    /// `|abt|·|buy|` figure the paper reports per benchmark).
    pub fn candidate_universe_size(&self) -> usize {
        match self.policy {
            SourcePolicy::WithinSingleSource => self.len() * (self.len().saturating_sub(1)) / 2,
            SourcePolicy::CrossSourceOnly => {
                let a = self.records.iter().filter(|r| r.source == 0).count();
                let b = self.len() - a;
                a * b
            }
        }
    }

    /// Iterates record texts in id order (feed for `CorpusBuilder`).
    pub fn texts(&self) -> impl Iterator<Item = &str> {
        self.records.iter().map(|r| r.text.as_str())
    }

    /// Per-record source ids (for cross-source pair filters).
    pub fn sources(&self) -> Vec<u8> {
        self.records.iter().map(|r| r.source).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The grouping `entity_clusters` replaced, kept as its oracle: a
    /// `HashMap` from entity to members, then every cluster sorted and
    /// the clusters ordered by smallest member.
    fn entity_clusters_by_map(d: &Dataset) -> Vec<Vec<u32>> {
        use std::collections::HashMap;
        let mut by_entity: HashMap<u32, Vec<u32>> = HashMap::new();
        for r in &d.records {
            by_entity.entry(r.entity).or_default().push(r.id);
        }
        let mut clusters: Vec<Vec<u32>> = by_entity.into_values().collect(); // er-lint: allow(unordered_iteration) -- members and clusters are both sorted below
        for c in &mut clusters {
            c.sort_unstable();
        }
        clusters.sort_by_key(|c| c[0]);
        clusters
    }

    /// `matching_pairs` over the oracle's clusters.
    fn matching_pairs_by_map(d: &Dataset) -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        for members in entity_clusters_by_map(d) {
            for (i, &a) in members.iter().enumerate() {
                for &b in &members[i + 1..] {
                    if d.is_candidate(a, b) {
                        pairs.push((a, b));
                    }
                }
            }
        }
        pairs
    }

    proptest! {
        #[test]
        fn grouping_equals_the_map_oracle(
            draws in proptest::collection::vec((0u32..12, 0u8..2), 0..60),
            cross in 0u8..2,
        ) {
            // Entity ids spread over the whole u32 range.
            let records = draws
                .iter()
                .enumerate()
                .map(|(i, &(e, s))| rec(i as u32, s, e.wrapping_mul(0x9e37_79b9), "x"))
                .collect();
            let policy = if cross == 1 {
                SourcePolicy::CrossSourceOnly
            } else {
                SourcePolicy::WithinSingleSource
            };
            let d = Dataset::new("p", records, policy);
            prop_assert_eq!(d.entity_clusters(), entity_clusters_by_map(&d));
            prop_assert_eq!(d.matching_pairs(), matching_pairs_by_map(&d));
        }
    }

    fn rec(id: u32, source: u8, entity: u32, text: &str) -> Record {
        Record {
            id,
            source,
            entity,
            text: text.into(),
        }
    }

    fn two_source() -> Dataset {
        Dataset::new(
            "t",
            vec![
                rec(0, 0, 100, "a"),
                rec(1, 0, 101, "b"),
                rec(2, 1, 100, "c"),
                rec(3, 1, 101, "d"),
                rec(4, 1, 102, "e"),
            ],
            SourcePolicy::CrossSourceOnly,
        )
    }

    #[test]
    fn cross_source_candidates() {
        let d = two_source();
        assert!(d.is_candidate(0, 2));
        assert!(!d.is_candidate(0, 1), "same source");
        assert!(!d.is_candidate(2, 3), "same source");
        assert!(!d.is_candidate(1, 1));
        assert_eq!(d.candidate_universe_size(), 2 * 3);
    }

    #[test]
    fn matching_pairs_respect_policy() {
        let d = two_source();
        let mut pairs = d.matching_pairs();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 2), (1, 3)]);
    }

    #[test]
    fn single_source_counts() {
        let d = Dataset::new(
            "s",
            vec![rec(0, 0, 1, "x"), rec(1, 0, 1, "y"), rec(2, 0, 2, "z")],
            SourcePolicy::WithinSingleSource,
        );
        assert_eq!(d.candidate_universe_size(), 3);
        assert_eq!(d.matching_pairs(), vec![(0, 1)]);
        assert_eq!(d.entity_clusters(), vec![vec![0, 1], vec![2]]);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn sparse_ids_rejected() {
        Dataset::new(
            "bad",
            vec![rec(5, 0, 0, "x")],
            SourcePolicy::WithinSingleSource,
        );
    }
}
