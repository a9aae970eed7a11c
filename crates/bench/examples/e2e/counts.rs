//! Work counts, computed outside every timed window: the pairs the
//! graph builder enumerates, the wedges CliqueRank walks, the largest
//! record-graph component, and the input fingerprint.

use unsupervised_er::graph::BipartiteGraph;
use unsupervised_er::text::{Corpus, TermId};

/// Σ_t C(df_t, 2) over the corpus postings: the record pairs the
/// postings path of the bipartite-graph builder enumerates before any
/// candidate filter.
pub fn enumerated_pairs(corpus: &Corpus) -> u64 {
    (0..corpus.vocab_len() as u32)
        .map(|t| {
            let df = corpus.postings(TermId(t)).len() as u64;
            df * df.saturating_sub(1) / 2
        })
        .sum()
}

/// The record-graph edges CliqueRank sees in the final fusion round:
/// bipartite pairs sharing at least `min_shared_terms` terms whose final
/// ITER similarity is positive. Without similarities (the streaming
/// engine does not publish them) every admitted pair counts.
pub fn record_graph_edges(
    graph: &BipartiteGraph,
    min_shared_terms: usize,
    similarities: Option<&[f64]>,
) -> Vec<(u32, u32)> {
    graph
        .pairs()
        .iter()
        .enumerate()
        .filter(|&(p, _)| {
            graph.terms_of_pair(p as u32).len() >= min_shared_terms
                && similarities.is_none_or(|s| s[p] > 0.0)
        })
        .map(|(_, pair)| (pair.a, pair.b))
        .collect()
}

/// Sorted, deduplicated neighbour lists of an undirected edge list.
fn adjacency(n: usize, edges: &[(u32, u32)]) -> Vec<Vec<u32>> {
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in edges {
        adj[a as usize].push(b);
        adj[b as usize].push(a);
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }
    adj
}

/// Wedges: Σ over edges (i, j) of |N(i) ∩ N(j)| — the common neighbours
/// the edgewise CliqueRank kernel visits per edge and step.
pub fn wedges(n: usize, edges: &[(u32, u32)]) -> u64 {
    let adj = adjacency(n, edges);
    edges
        .iter()
        .map(|&(a, b)| {
            let (x, y) = (&adj[a as usize], &adj[b as usize]);
            let (mut i, mut j, mut common) = (0, 0, 0u64);
            while i < x.len() && j < y.len() {
                match x[i].cmp(&y[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        common += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
            common
        })
        .sum()
}

/// Size of the largest connected component (isolated nodes count 1).
pub fn largest_component(n: usize, edges: &[(u32, u32)]) -> usize {
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    let mut parent: Vec<u32> = (0..n as u32).collect();
    for &(a, b) in edges {
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra != rb {
            parent[ra.max(rb) as usize] = ra.min(rb);
        }
    }
    let mut size = vec![0usize; n];
    for x in 0..n as u32 {
        size[find(&mut parent, x) as usize] += 1;
    }
    size.into_iter().max().unwrap_or(0)
}

/// FNV-1a over everything a workload generator produced: each record's
/// text, source and ground-truth entity, in id order.
pub fn fingerprint<'a>(records: impl IntoIterator<Item = (&'a str, u8, u32)>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (text, source, entity) in records {
        eat(text.as_bytes());
        eat(&[0xFF, source]);
        eat(&entity.to_le_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use unsupervised_er::text::CorpusBuilder;

    /// Deterministic xorshift edge lists over `n` nodes.
    fn random_edges(n: u32, m: usize, mut state: u64) -> Vec<(u32, u32)> {
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % u64::from(n)) as u32
        };
        let mut edges: Vec<(u32, u32)> = (0..m)
            .map(|_| (next(), next()))
            .filter(|(a, b)| a != b)
            .map(|(a, b)| (a.min(b), a.max(b)))
            .collect();
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    #[test]
    fn wedges_match_brute_force_common_neighbours() {
        for (n, m, seed) in [(6, 10, 1), (12, 40, 7), (25, 150, 99), (40, 30, 3)] {
            let edges = random_edges(n, m, seed);
            let mut adj = vec![vec![false; n as usize]; n as usize];
            for &(a, b) in &edges {
                adj[a as usize][b as usize] = true;
                adj[b as usize][a as usize] = true;
            }
            let brute: u64 = edges
                .iter()
                .map(|&(a, b)| {
                    (0..n as usize)
                        .filter(|&v| adj[a as usize][v] && adj[b as usize][v])
                        .count() as u64
                })
                .sum();
            assert_eq!(wedges(n as usize, &edges), brute, "n={n} m={m}");
        }
        // A 4-clique: 6 edges, each with 2 common neighbours.
        let k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        assert_eq!(wedges(4, &k4), 12);
    }

    #[test]
    fn largest_component_counts_nodes() {
        assert_eq!(largest_component(5, &[(0, 1), (3, 4), (1, 2)]), 3);
        assert_eq!(largest_component(3, &[]), 1);
    }

    #[test]
    fn enumerated_pairs_match_brute_force_pair_enumeration() {
        let texts = [
            "alpha beta gamma",
            "alpha beta delta",
            "beta gamma delta epsilon",
            "alpha epsilon",
            "zeta eta",
            "gamma zeta alpha",
        ];
        let corpus = CorpusBuilder::new().extend_texts(texts).build();
        // Every record pair contributes one enumerated pair per shared
        // term: Σ_{i<j} |T_i ∩ T_j| = Σ_t C(df_t, 2).
        let n = corpus.len();
        let brute: u64 = (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .map(|(i, j)| corpus.shared_term_count(i, j) as u64)
            .sum();
        assert_eq!(enumerated_pairs(&corpus), brute);
        assert!(brute > 0);
    }

    #[test]
    fn fingerprint_sees_text_source_and_entity() {
        let base = fingerprint([("a b", 0, 1), ("c", 1, 2)]);
        assert_eq!(base, fingerprint([("a b", 0, 1), ("c", 1, 2)]));
        assert_ne!(base, fingerprint([("a b", 0, 1), ("c", 1, 3)]));
        assert_ne!(base, fingerprint([("a b", 0, 1), ("c", 0, 2)]));
        assert_ne!(base, fingerprint([("a", 0, 1), ("b c", 1, 2)]));
    }
}
