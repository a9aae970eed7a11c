//! Disjoint-set forest with path halving and union by size.
//!
//! Used to turn matched pairs into entity clusters (records matched
//! transitively form one entity, mirroring the clique semantics of
//! `G_r^opt` in §VI-A) and by the connected-component decomposition.

/// Disjoint-set forest over `0..len`.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    n_sets: usize,
}

impl UnionFind {
    /// Creates `len` singleton sets.
    pub fn new(len: usize) -> Self {
        assert!(
            len <= u32::MAX as usize,
            "UnionFind supports up to u32::MAX elements"
        );
        Self {
            parent: (0..len as u32).collect(),
            size: vec![1; len],
            n_sets: len,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets remaining.
    pub fn set_count(&self) -> usize {
        self.n_sets
    }

    /// Finds the representative of `x` (path halving).
    pub fn find(&mut self, x: u32) -> u32 {
        let mut x = x;
        while self.parent[x as usize] != x {
            let grandparent = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grandparent;
            x = grandparent;
        }
        x
    }

    /// Unions the sets of `a` and `b`; returns `true` if they were
    /// previously disjoint.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        self.n_sets -= 1;
        true
    }

    /// True when `a` and `b` are in the same set.
    pub fn connected(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Size of the set containing `x`.
    pub fn set_size(&mut self, x: u32) -> u32 {
        let r = self.find(x);
        self.size[r as usize]
    }

    /// Consumes the forest and returns all sets as sorted member lists,
    /// ordered by smallest member.
    ///
    /// One walk over the elements in ascending order numbers each set by
    /// the first time its root is seen (its smallest member, so the sets
    /// come out in the promised order) and appends every element to its
    /// set, which keeps each set sorted. Every set is allocated once at
    /// its exact size.
    pub fn into_sets(mut self) -> Vec<Vec<u32>> {
        const UNSEEN: u32 = u32::MAX;
        let n = self.len();
        let mut set_of_root = vec![UNSEEN; n];
        let mut sets: Vec<Vec<u32>> = Vec::with_capacity(self.n_sets);
        for x in 0..n as u32 {
            let root = self.find(x) as usize;
            if set_of_root[root] == UNSEEN {
                set_of_root[root] = sets.len() as u32;
                sets.push(Vec::with_capacity(self.size[root] as usize));
            }
            sets[set_of_root[root] as usize].push(x);
        }
        sets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The grouping `into_sets` replaced, kept as its oracle: a `HashMap`
    /// from root to members, then every set sorted and the sets ordered
    /// by smallest member.
    fn into_sets_by_map(mut uf: UnionFind) -> Vec<Vec<u32>> {
        let mut by_root: std::collections::HashMap<u32, Vec<u32>> =
            std::collections::HashMap::new();
        for x in 0..uf.len() as u32 {
            by_root.entry(uf.find(x)).or_default().push(x);
        }
        let mut sets: Vec<Vec<u32>> = by_root.into_values().collect(); // er-lint: allow(unordered_iteration) -- members and sets are both sorted below
        for s in &mut sets {
            s.sort_unstable();
        }
        sets.sort_by_key(|s| s[0]);
        sets
    }

    proptest! {
        #[test]
        fn into_sets_equals_the_map_oracle(
            n in 0usize..60,
            ops in proptest::collection::vec((0u32..60, 0u32..60), 0..80),
        ) {
            let mut uf = UnionFind::new(n);
            for (a, b) in ops {
                if n > 0 {
                    uf.union(a % n as u32, b % n as u32);
                }
            }
            let want = into_sets_by_map(uf.clone());
            let sets = uf.into_sets();
            prop_assert_eq!(sets.len(), want.len());
            prop_assert_eq!(sets, want);
        }
    }

    #[test]
    fn singletons_then_unions() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.set_count(), 5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2), "already connected");
        assert_eq!(uf.set_count(), 3);
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 3));
        assert_eq!(uf.set_size(2), 3);
    }

    #[test]
    fn into_sets_sorted() {
        let mut uf = UnionFind::new(6);
        uf.union(4, 2);
        uf.union(5, 3);
        let sets = uf.into_sets();
        assert_eq!(sets, vec![vec![0], vec![1], vec![2, 4], vec![3, 5]]);
    }

    #[test]
    fn empty_and_single() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert!(uf.into_sets().is_empty());
        let mut uf = UnionFind::new(1);
        assert_eq!(uf.find(0), 0);
        assert_eq!(uf.set_count(), 1);
    }

    #[test]
    fn chain_union_produces_one_set() {
        let mut uf = UnionFind::new(100);
        for i in 0..99 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.set_count(), 1);
        assert_eq!(uf.set_size(50), 100);
    }
}
