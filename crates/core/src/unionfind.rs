//! Disjoint-set union (union–find) with path halving and union by size.
//!
//! The workhorse behind property-clique computation (Definition 5) and the
//! streaming node-merging of Algorithms 1–3: "merging data nodes that are
//! attached to common properties gradually builds property cliques" (§6.2).

/// A disjoint-set forest over `0..len` with near-constant-time operations.
#[derive(Clone, Debug, Default)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    components: usize,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            components: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets.
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// Adds a fresh singleton, returning its index.
    pub fn push(&mut self) -> usize {
        let i = self.parent.len();
        self.parent.push(i as u32);
        self.size.push(1);
        self.components += 1;
        i
    }

    /// Representative of `x`'s set (with path halving).
    pub fn find(&mut self, mut x: usize) -> usize {
        loop {
            let p = self.parent[x] as usize;
            if p == x {
                return x;
            }
            let gp = self.parent[p] as usize;
            self.parent[x] = gp as u32;
            x = gp;
        }
    }

    /// Representative without path compression (for `&self` contexts).
    pub fn find_const(&self, mut x: usize) -> usize {
        while self.parent[x] as usize != x {
            x = self.parent[x] as usize;
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns the surviving representative.
    pub fn union(&mut self, a: usize, b: usize) -> usize {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return ra;
        }
        self.components -= 1;
        let (big, small) = if self.size[ra] >= self.size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big as u32;
        self.size[big] += self.size[small];
        big
    }

    /// Are `a` and `b` in the same set?
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Maps every element to a dense component index `0..k` (in order of
    /// first appearance by element index) and returns `(assignment, k)`.
    pub fn dense_components(&mut self) -> (Vec<usize>, usize) {
        let n = self.len();
        let mut dense = vec![usize::MAX; n];
        let mut next = 0usize;
        let mut assignment = vec![0usize; n];
        for (x, slot) in assignment.iter_mut().enumerate() {
            let r = {
                // Inline find: cannot borrow self mutably while iterating.
                let mut y = x;
                loop {
                    let p = self.parent[y] as usize;
                    if p == y {
                        break y;
                    }
                    let gp = self.parent[p] as usize;
                    self.parent[y] = gp as u32;
                    y = gp;
                }
            };
            if dense[r] == usize::MAX {
                dense[r] = next;
                next += 1;
            }
            *slot = dense[r];
        }
        (assignment, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_then_unions() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.component_count(), 5);
        assert!(!uf.same(0, 1));
        uf.union(0, 1);
        assert!(uf.same(0, 1));
        assert_eq!(uf.component_count(), 4);
        uf.union(1, 2);
        assert!(uf.same(0, 2));
        assert_eq!(uf.component_count(), 3);
        // Re-union is a no-op.
        uf.union(2, 0);
        assert_eq!(uf.component_count(), 3);
    }

    #[test]
    fn push_grows() {
        let mut uf = UnionFind::new(1);
        let i = uf.push();
        assert_eq!(i, 1);
        assert_eq!(uf.component_count(), 2);
        uf.union(0, 1);
        assert_eq!(uf.component_count(), 1);
    }

    #[test]
    fn dense_components_cover_all() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 3);
        uf.union(4, 5);
        let (assign, k) = uf.dense_components();
        assert_eq!(k, 4); // {0,3} {1} {2} {4,5}
        assert_eq!(assign[0], assign[3]);
        assert_eq!(assign[4], assign[5]);
        assert_ne!(assign[0], assign[1]);
        // Dense: indices 0..k all used.
        let mut seen: Vec<bool> = vec![false; k];
        for &a in &assign {
            seen[a] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn find_const_agrees_with_find() {
        let mut uf = UnionFind::new(8);
        uf.union(1, 2);
        uf.union(2, 3);
        uf.union(5, 6);
        for i in 0..8 {
            assert_eq!(uf.find_const(i), uf.clone().find(i));
        }
    }

    #[test]
    fn long_chain_compresses() {
        let mut uf = UnionFind::new(1000);
        for i in 0..999 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.component_count(), 1);
        for i in 0..1000 {
            assert_eq!(uf.find(i), uf.find(0));
        }
    }

    #[test]
    fn empty() {
        let mut uf = UnionFind::new(0);
        assert!(uf.is_empty());
        let (assign, k) = uf.dense_components();
        assert!(assign.is_empty());
        assert_eq!(k, 0);
    }
}
