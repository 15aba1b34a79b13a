//! Approximate minimum degree (AMD) fill-reducing ordering.
//!
//! The column ordering of the LU in [`crate::lu`]. Eliminating a node of
//! low degree first creates little fill, and repeating that greedily is the
//! minimum-degree heuristic. Recomputing exact degrees after every
//! elimination is what makes a naive implementation slow; AMD (Amestoy,
//! Davis and Duff, 1996) instead works on a *quotient graph* whose size never
//! exceeds the input's, and keeps it cheap with four devices:
//!
//! - **Elements.** Eliminating node `k` does not add the clique of its
//!   neighbours to the graph: `k` becomes an *element* that stands for that
//!   clique, and the elements `k` was adjacent to are absorbed into it.
//! - **Approximate degrees.** A node's degree is bounded from above by the
//!   sizes of its elements minus their overlap with the newest one, which
//!   costs one pass over the new element's neighbourhood.
//! - **Aggressive absorption.** An element wholly inside the new one is
//!   absorbed as soon as that is seen.
//! - **Supervariables.** Nodes with identical adjacency are merged, found by
//!   hashing their lists, and eliminated together.
//!
//! The graph is the pattern of `A + Aᵀ` without the diagonal, so a
//! structurally zero diagonal (an MNA voltage-source row) is ordered like
//! any other node. Nodes adjacent to more than `max(16, 10·√n)` others —
//! supply rails, a global clock — are *dense*: they are taken out of the
//! graph up front and ordered last, as in `cs_amd` (Davis, *Direct Methods
//! for Sparse Linear Systems*, §7.1). The result is postordered along the
//! elimination tree. It is a pure function of the pattern: every tie is
//! broken by node index, so equal patterns get equal orderings.

use crate::Pattern;

/// Sentinel for an empty link, list or parent.
const NONE: usize = usize::MAX;
/// Below this degree a node is never dense.
const DENSE_MIN: usize = 16;
/// A node is dense above `DENSE_SCALE · √n` neighbours (and `DENSE_MIN`).
const DENSE_SCALE: f64 = 10.0;

/// Computes an approximate-minimum-degree ordering of `pattern`'s rows and
/// columns, for use as the column permutation `Q` of an LU.
///
/// Returns `perm` with `perm[new_index] = old_index`. Columns at or beyond
/// `rows()` are ignored, so the result always has `rows()` entries.
pub fn amd_order(pattern: &Pattern) -> Vec<usize> {
    if pattern.rows() == 0 {
        return Vec::new();
    }
    let mut g = QuotientGraph::new(pattern);
    while g.eliminated < g.n {
        let Some(k) = g.pop_min_degree() else {
            break;
        };
        g.eliminate(k);
    }
    g.postorder()
}

/// The working state of one AMD run over `n` nodes plus a placeholder `n`,
/// the root that dense nodes hang from.
///
/// Every live node or element `j` owns the list `iw[pe[j]..pe[j] + len[j]]`.
/// A variable's list holds its `elen[j]` elements first, then its
/// variables; an element's list holds its variables.
struct QuotientGraph {
    n: usize,
    /// Adjacency storage: the live lists plus elbow room for new elements.
    iw: Vec<usize>,
    /// First free slot of `iw`.
    free: usize,
    /// Start of `j`'s list in `iw`, or `NONE` once `j` has none.
    pe: Vec<usize>,
    len: Vec<usize>,
    /// Elements at the front of variable `j`'s list; `-1` for a variable
    /// absorbed into another node, `-2` for an element.
    elen: Vec<isize>,
    /// Size of supervariable `j` (0 if not principal). Negative while `j`
    /// is in the element being built.
    nv: Vec<isize>,
    /// Approximate external degree of a variable; size of an element.
    degree: Vec<usize>,
    /// Element marks for the set differences; 0 for a dead element.
    w: Vec<isize>,
    mark: isize,
    /// Largest element built so far.
    lemax: isize,
    /// Degree lists: `head[d]` starts a doubly linked list over
    /// `next`/`last`, which also chain the supervariable hash buckets.
    head: Vec<usize>,
    next: Vec<usize>,
    last: Vec<usize>,
    hhead: Vec<usize>,
    /// The node or element `j` was absorbed into: the assembly tree.
    parent: Vec<usize>,
    /// Nodes eliminated or ordered so far (dense ones included).
    eliminated: usize,
    /// Lower bound on the smallest non-empty degree list.
    mindeg: usize,
}

impl QuotientGraph {
    /// Builds the graph of `A + Aᵀ` without the diagonal and fills the
    /// degree lists.
    #[expect(
        clippy::disallowed_methods,
        reason = "sized by `rows()` and `nnz()` of the held pattern"
    )]
    fn new(pattern: &Pattern) -> Self {
        let n = pattern.rows();
        let rp = pattern.row_ptr();
        let ci = pattern.col_idx();
        let off_diagonal = |r: usize| {
            ci[rp[r]..rp[r + 1]]
                .iter()
                .copied()
                .filter(move |&c| c != r && c < n)
        };

        // Both directions of every off-diagonal entry, duplicates included.
        let mut start = vec![0usize; n + 1];
        for r in 0..n {
            for c in off_diagonal(r) {
                start[r + 1] += 1;
                start[c + 1] += 1;
            }
        }
        for j in 0..n {
            start[j + 1] += start[j];
        }
        let mut raw = vec![0usize; start[n]];
        let mut fill = start.clone();
        for r in 0..n {
            for c in off_diagonal(r) {
                raw[fill[r]] = c;
                fill[r] += 1;
                raw[fill[c]] = r;
                fill[c] += 1;
            }
        }

        // Deduplicated lists, packed, with elbow room behind them.
        let mut seen = vec![NONE; n];
        let mut pe = vec![NONE; n + 1];
        let mut len = vec![0usize; n + 1];
        let mut iw = Vec::with_capacity(start[n] + start[n] / 5 + 2 * n);
        for j in 0..n {
            pe[j] = iw.len();
            for &i in &raw[start[j]..start[j + 1]] {
                if seen[i] != j {
                    seen[i] = j;
                    iw.push(i);
                }
            }
            len[j] = iw.len() - pe[j];
        }
        let free = iw.len();
        iw.resize(free + free / 5 + 2 * n, 0);

        let mut g = QuotientGraph {
            n,
            iw,
            free,
            pe,
            degree: len.clone(),
            len,
            elen: vec![0; n + 1],
            nv: vec![1; n + 1],
            w: vec![1; n + 1],
            mark: 2,
            lemax: 0,
            head: vec![NONE; n + 1],
            next: vec![NONE; n + 1],
            last: vec![NONE; n + 1],
            hhead: vec![NONE; n + 1],
            parent: vec![NONE; n + 1],
            eliminated: 0,
            mindeg: 0,
        };
        // The placeholder is a dead element from the start.
        g.elen[n] = -2;
        g.w[n] = 0;
        let dense = ((DENSE_SCALE * (n as f64).sqrt()) as usize)
            .max(DENSE_MIN)
            .min(n.saturating_sub(2));
        for i in 0..n {
            let d = g.degree[i];
            if d == 0 {
                // An isolated node is an element with nothing to eliminate.
                g.elen[i] = -2;
                g.pe[i] = NONE;
                g.w[i] = 0;
                g.eliminated += 1;
            } else if d > dense {
                g.nv[i] = 0;
                g.elen[i] = -1;
                g.pe[i] = NONE;
                g.parent[i] = n;
                g.nv[n] += 1;
                g.eliminated += 1;
            } else {
                g.push_degree(i, d);
            }
        }
        g
    }

    fn push_degree(&mut self, i: usize, d: usize) {
        let h = self.head[d];
        if h != NONE {
            self.last[h] = i;
        }
        self.next[i] = h;
        self.last[i] = NONE;
        self.head[d] = i;
    }

    fn unlink_degree(&mut self, i: usize) {
        let (next, last) = (self.next[i], self.last[i]);
        if next != NONE {
            self.last[next] = last;
        }
        if last != NONE {
            self.next[last] = next;
        } else {
            self.head[self.degree[i]] = next;
        }
    }

    /// Removes and returns the first node of the lowest non-empty degree
    /// list.
    fn pop_min_degree(&mut self) -> Option<usize> {
        while self.mindeg < self.n && self.head[self.mindeg] == NONE {
            self.mindeg += 1;
        }
        let k = self.head[self.mindeg];
        if k == NONE {
            return None;
        }
        let next = self.next[k];
        if next != NONE {
            self.last[next] = NONE;
        }
        self.head[self.mindeg] = next;
        Some(k)
    }

    /// Returns `mark`, unless it is below 2 or `mark + lemax` would
    /// overflow: then every live element's mark is reset to 1 and the
    /// counter restarts at 2.
    fn clear_marks(&mut self, mark: isize) -> isize {
        if mark < 2 || mark.checked_add(self.lemax).is_none() {
            for w in &mut self.w[..self.n] {
                if *w != 0 {
                    *w = 1;
                }
            }
            2
        } else {
            mark
        }
    }

    /// Packs the live lists to the front of `iw`, dropping the space of
    /// absorbed lists.
    fn compact(&mut self) {
        let mut live: Vec<usize> = (0..self.n).filter(|&j| self.pe[j] != NONE).collect();
        live.sort_unstable_by_key(|&j| self.pe[j]);
        let mut to = 0;
        for j in live {
            let from = self.pe[j];
            self.iw.copy_within(from..from + self.len[j], to);
            self.pe[j] = to;
            to += self.len[j];
        }
        self.free = to;
    }

    /// Marks `j` absorbed into `into`: it keeps no list of its own.
    fn absorb(&mut self, j: usize, into: usize) {
        self.parent[j] = into;
        self.pe[j] = NONE;
    }

    /// Eliminates supervariable `k`: it becomes an element, and the degrees
    /// of its neighbours are updated.
    fn eliminate(&mut self, k: usize) {
        let elenk = self.elen[k];
        let mut nvk = self.nv[k];
        self.eliminated += nvk as usize;
        // A new element is built behind the free mark, which needs room for
        // up to `degree[k]` entries, unless `k` has no elements: then it
        // overwrites `k`'s own list.
        if elenk > 0 && self.free + self.mindeg >= self.iw.len() {
            self.compact();
        }

        // --- The new element: every live variable reachable from `k`.
        let mut dk: isize = 0;
        self.nv[k] = -nvk;
        let mut p = self.pe[k];
        let pk1 = if elenk == 0 { p } else { self.free };
        let mut pk2 = pk1;
        for k1 in 0..=elenk {
            let (e, mut pj, ln) = if k1 == elenk {
                (k, p, self.len[k] - elenk as usize)
            } else {
                let e = self.iw[p];
                p += 1;
                (e, self.pe[e], self.len[e])
            };
            for _ in 0..ln {
                let i = self.iw[pj];
                pj += 1;
                let nvi = self.nv[i];
                if nvi <= 0 {
                    continue; // dead, or already in the element
                }
                dk += nvi;
                self.nv[i] = -nvi;
                self.iw[pk2] = i;
                pk2 += 1;
                self.unlink_degree(i);
            }
            if e != k {
                self.absorb(e, k);
                self.w[e] = 0;
            }
        }
        if elenk != 0 {
            self.free = pk2;
        }
        self.pe[k] = pk1;
        self.len[k] = pk2 - pk1;
        self.elen[k] = -2;

        // --- |Le \ Lk| for every element e adjacent to a variable of Lk,
        // kept as w[e] - mark.
        self.mark = self.clear_marks(self.mark);
        for pk in pk1..pk2 {
            let i = self.iw[pk];
            let eln = self.elen[i];
            if eln <= 0 {
                continue;
            }
            let nvi = -self.nv[i];
            let wnvi = self.mark - nvi;
            for p in self.pe[i]..self.pe[i] + eln as usize {
                let e = self.iw[p];
                if self.w[e] >= self.mark {
                    self.w[e] -= nvi;
                } else if self.w[e] != 0 {
                    self.w[e] = self.degree[e] as isize + wnvi;
                }
            }
        }

        // --- Approximate degrees; prune absorbed elements and dead
        // variables from each list, and hash the lists for the
        // supervariable search.
        for pk in pk1..pk2 {
            let i = self.iw[pk];
            let p1 = self.pe[i];
            let p2 = p1 + self.elen[i] as usize;
            let mut pn = p1;
            let mut hash = 0usize;
            let mut d: isize = 0;
            for p in p1..p2 {
                let e = self.iw[p];
                if self.w[e] == 0 {
                    continue;
                }
                let dext = self.w[e] - self.mark;
                if dext > 0 {
                    d += dext;
                    self.iw[pn] = e;
                    pn += 1;
                    hash = hash.wrapping_add(e);
                } else {
                    // Le ⊆ Lk: aggressive absorption.
                    self.absorb(e, k);
                    self.w[e] = 0;
                }
            }
            self.elen[i] = (pn - p1 + 1) as isize;
            let p3 = pn;
            for p in p2..p1 + self.len[i] {
                let j = self.iw[p];
                let nvj = self.nv[j];
                if nvj <= 0 {
                    continue;
                }
                d += nvj;
                self.iw[pn] = j;
                pn += 1;
                hash = hash.wrapping_add(j);
            }
            if d == 0 {
                // Only `k` is left around i: eliminate it along with k.
                self.absorb(i, k);
                let nvi = -self.nv[i];
                dk -= nvi;
                nvk += nvi;
                self.eliminated += nvi as usize;
                self.nv[i] = 0;
                self.elen[i] = -1;
            } else {
                self.degree[i] = self.degree[i].min(d as usize);
                // k goes first in i's list. The list lost at least one
                // entry (k itself, or an element absorbed into k), so the
                // displaced first entry fits at the end.
                self.iw[pn] = self.iw[p3];
                self.iw[p3] = self.iw[p1];
                self.iw[p1] = k;
                self.len[i] = pn - p1 + 1;
                let h = hash % self.n;
                self.next[i] = self.hhead[h];
                self.hhead[h] = i;
                self.last[i] = h;
            }
        }
        self.degree[k] = dk as usize;
        self.lemax = self.lemax.max(dk);
        self.mark = self.clear_marks(self.mark + self.lemax);

        // --- Supervariables: merge variables of Lk with identical lists.
        for pk in pk1..pk2 {
            let i = self.iw[pk];
            if self.nv[i] >= 0 {
                continue;
            }
            let h = self.last[i];
            let mut i = self.hhead[h];
            self.hhead[h] = NONE;
            while i != NONE && self.next[i] != NONE {
                let ln = self.len[i];
                let eln = self.elen[i];
                for p in self.pe[i] + 1..self.pe[i] + ln {
                    self.w[self.iw[p]] = self.mark;
                }
                let mut jlast = i;
                let mut j = self.next[i];
                while j != NONE {
                    let same = self.len[j] == ln
                        && self.elen[j] == eln
                        && (self.pe[j] + 1..self.pe[j] + ln)
                            .all(|p| self.w[self.iw[p]] == self.mark);
                    if same {
                        self.absorb(j, i);
                        self.nv[i] += self.nv[j];
                        self.nv[j] = 0;
                        self.elen[j] = -1;
                        j = self.next[j];
                        self.next[jlast] = j;
                    } else {
                        jlast = j;
                        j = self.next[j];
                    }
                }
                i = self.next[i];
                self.mark += 1;
            }
        }

        // --- Finalize: put the principal variables of Lk back in the
        // degree lists and drop the others from the element.
        let mut p = pk1;
        for pk in pk1..pk2 {
            let i = self.iw[pk];
            let nvi = -self.nv[i];
            if nvi <= 0 {
                continue;
            }
            self.nv[i] = nvi;
            let outside = self.n.saturating_sub(self.eliminated + nvi as usize);
            let d = (self.degree[i] + (dk - nvi) as usize).min(outside);
            self.push_degree(i, d);
            self.mindeg = self.mindeg.min(d);
            self.degree[i] = d;
            self.iw[p] = i;
            p += 1;
        }
        self.nv[k] = nvk;
        self.len[k] = p - pk1;
        if self.len[k] == 0 {
            self.pe[k] = NONE;
            self.w[k] = 0;
        }
        if elenk != 0 {
            self.free = p;
        }
    }

    /// Orders the nodes by a depth-first postorder of the assembly tree:
    /// every subtree is numbered contiguously, children before parents, and
    /// the dense nodes, children of the placeholder root `n`, come last.
    #[expect(
        clippy::disallowed_methods,
        reason = "sized by `n` of the held pattern"
    )]
    fn postorder(&mut self) -> Vec<usize> {
        let n = self.n;
        // Children lists: elements first, then absorbed variables, each in
        // index order.
        let mut child = vec![NONE; n + 1];
        let mut sibling = vec![NONE; n + 1];
        for pass_elements in [false, true] {
            for j in (0..=n).rev() {
                let p = self.parent[j];
                if (self.nv[j] > 0) == pass_elements && p != NONE {
                    sibling[j] = child[p];
                    child[p] = j;
                }
            }
        }
        let mut order = Vec::with_capacity(n + 1);
        let mut stack = Vec::new();
        for root in 0..=n {
            if self.parent[root] != NONE {
                continue;
            }
            stack.push(root);
            while let Some(&top) = stack.last() {
                let c = child[top];
                if c == NONE {
                    stack.pop();
                    order.push(top);
                } else {
                    child[top] = sibling[c];
                    stack.push(c);
                }
            }
        }
        order.retain(|&j| j != n);
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CsrMatrix, LuWorkspace, TripletMatrix};
    use std::sync::Arc;

    /// A matrix with `diag` on the listed diagonal entries and `-1` at
    /// `(a, b)` and, where `symmetric`, at `(b, a)`.
    fn matrix(n: usize, diag: &[usize], edges: &[(usize, usize)], symmetric: bool) -> CsrMatrix {
        let mut t = TripletMatrix::new(n, n);
        for &i in diag {
            t.add(i, i, 4.0);
        }
        for &(a, b) in edges {
            t.add(a, b, -1.0);
            if symmetric {
                t.add(b, a, -1.0);
            }
        }
        t.to_csr()
    }

    fn full_diag(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    fn assert_permutation(perm: &[usize], n: usize) {
        let mut sorted = perm.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    fn lu_nnz(a: &CsrMatrix) -> usize {
        let mut ws = LuWorkspace::new();
        let f = ws.factor(a).expect("nonsingular");
        f.l_nnz() + f.u_nnz()
    }

    #[test]
    fn empty_and_single_node() {
        let empty = Pattern::new(0, 0, vec![0], vec![]).unwrap();
        assert!(amd_order(&empty).is_empty());
        let one = matrix(1, &[0], &[], true);
        assert_eq!(amd_order(one.pattern()), vec![0]);
        // A 1×1 pattern with no entries at all.
        let bare = Pattern::new(1, 1, vec![0, 0], vec![]).unwrap();
        assert_eq!(amd_order(&bare), vec![0]);
    }

    #[test]
    fn isolated_nodes_and_disconnected_components() {
        // Three pairs, a triangle and two isolated nodes (6 and 10).
        let a = matrix(
            11,
            &full_diag(11),
            &[(0, 1), (2, 3), (4, 5), (7, 8), (8, 9), (9, 7)],
            true,
        );
        assert_permutation(&amd_order(a.pattern()), 11);
        assert_eq!(lu_nnz(&a), a.nnz());
    }

    #[test]
    fn dense_star_center_is_ordered_last() {
        // The hub touches every other node, above max(16, 10·√n) capped
        // at n − 2.
        let n = 40;
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (0, i)).collect();
        let a = matrix(n, &full_diag(n), &edges, true);
        let perm = amd_order(a.pattern());
        assert_permutation(&perm, n);
        assert_eq!(perm.last(), Some(&0));
        assert_eq!(lu_nnz(&a), a.nnz());
    }

    #[test]
    fn unsymmetric_pattern_is_ordered_on_its_symmetrization() {
        // Only the upper half of a shuffled chain, and one lone lower entry.
        let n = 12;
        let edges: Vec<(usize, usize)> = (0..n - 1)
            .map(|i| ((i * 5) % n, ((i + 1) * 5) % n))
            .collect();
        let mut upper: Vec<(usize, usize)> =
            edges.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
        upper.push((11, 3));
        let a = matrix(n, &full_diag(n), &upper, false);
        assert!(!a.pattern().is_structurally_symmetric());
        let perm = amd_order(a.pattern());
        assert_permutation(&perm, n);
        let sym = matrix(n, &full_diag(n), &upper, true);
        assert_eq!(perm, amd_order(sym.pattern()));
    }

    /// An MNA RC ladder: node 0 is driven by a voltage source whose branch
    /// unknown `m + 1` has a structurally zero diagonal.
    fn rc_ladder(m: usize) -> CsrMatrix {
        let n = m + 2;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..m {
            let g = 1.0 / (100.0 + i as f64);
            t.add(i, i, g);
            t.add(i + 1, i + 1, g + 1e-3);
            t.add(i, i + 1, -g);
            t.add(i + 1, i, -g);
        }
        t.add(0, m + 1, 1.0);
        t.add(m + 1, 0, 1.0);
        t.to_csr()
    }

    #[test]
    fn structurally_zero_diagonal_is_ordered_and_factors() {
        let a = rc_ladder(9);
        assert!(a.pattern().diag_of(10).is_none());
        assert_permutation(&amd_order(a.pattern()), 11);
        let b: Vec<f64> = (0..11).map(|i| i as f64 - 3.0).collect();
        let x = LuWorkspace::new().factor(&a).unwrap().solve(&b);
        for (l, r) in a.mul_vec(&x).iter().zip(&b) {
            assert!((l - r).abs() < 1e-9, "{l} vs {r}");
        }
    }

    #[test]
    fn equal_patterns_get_equal_orderings() {
        let edges: Vec<(usize, usize)> = (0..30).map(|i| (i, (i * 7 + 3) % 31)).collect();
        let a = matrix(31, &full_diag(31), &edges, true);
        let b = matrix(31, &full_diag(31), &edges, true);
        assert!(!Arc::ptr_eq(a.pattern(), b.pattern()));
        assert_eq!(amd_order(a.pattern()), amd_order(b.pattern()));
    }

    #[test]
    fn path_tree_and_rc_ladder_have_no_fill() {
        // A path under a scrambled labelling.
        let n = 50;
        let label = |i: usize| (i * 17) % n;
        let path: Vec<(usize, usize)> = (0..n - 1).map(|i| (label(i), label(i + 1))).collect();
        let a = matrix(n, &full_diag(n), &path, true);
        assert_eq!(lu_nnz(&a), a.nnz());
        // A complete binary tree.
        let tree: Vec<(usize, usize)> = (1..63).map(|i| ((i - 1) / 2, i)).collect();
        let a = matrix(63, &full_diag(63), &tree, true);
        assert_eq!(lu_nnz(&a), a.nnz());
        let a = rc_ladder(200);
        assert_eq!(lu_nnz(&a), a.nnz());
    }

    #[test]
    fn grid_fill_is_at_most_half_of_the_bandwidth_ordering() {
        // The 60×60 5-point grid of `rc_mesh`. Under the bandwidth-reducing
        // breadth-first ordering this crate used before, L+U held 295 060
        // non-zeros (nnz(A) = 17 760).
        const BANDWIDTH_LU_NNZ: usize = 295_060;
        let w = 60;
        let mut edges = Vec::new();
        for r in 0..w {
            for c in 0..w {
                let i = r * w + c;
                if c + 1 < w {
                    edges.push((i, i + 1));
                }
                if r + 1 < w {
                    edges.push((i, i + w));
                }
            }
        }
        let a = matrix(w * w, &full_diag(w * w), &edges, true);
        assert_eq!(a.nnz(), 17_760);
        let nnz = lu_nnz(&a);
        assert!(2 * nnz <= BANDWIDTH_LU_NNZ, "L+U nnz {nnz}");
    }
}
