//! Reverse Cuthill–McKee (RCM) fill-reducing ordering.
//!
//! Circuit MNA matrices are nearly symmetric and often have locality
//! (ladders, meshes, chains); RCM shrinks their bandwidth, which directly
//! reduces fill-in for the Gilbert–Peierls LU in [`crate::lu`].

use crate::Pattern;

/// Computes an RCM permutation of the symmetrized adjacency of `pattern`.
///
/// Returns `perm` with `perm[new_index] = old_index`. Applying the
/// permutation symmetrically (`A(perm, perm)`) clusters non-zeros near the
/// diagonal.
#[expect(
    clippy::disallowed_methods,
    reason = "sized by `rows()` of the held pattern"
)]
pub fn rcm_order(pattern: &Pattern) -> Vec<usize> {
    let n = pattern.rows();
    // Build symmetrized adjacency lists (excluding self-loops).
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let rp = pattern.row_ptr();
    let ci = pattern.col_idx();
    for r in 0..n {
        for &c in &ci[rp[r]..rp[r + 1]] {
            if c == r || c >= n {
                continue;
            }
            adj[r].push(c);
            adj[c].push(r);
        }
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }
    let degree: Vec<usize> = adj.iter().map(Vec::len).collect();

    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    // Process components, starting each from a minimum-degree node.
    let mut nodes_by_degree: Vec<usize> = (0..n).collect();
    nodes_by_degree.sort_by_key(|&v| degree[v]);
    for &start in &nodes_by_degree {
        if visited[start] {
            continue;
        }
        visited[start] = true;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut neighbors: Vec<usize> =
                adj[v].iter().copied().filter(|&u| !visited[u]).collect();
            neighbors.sort_by_key(|&u| degree[u]);
            for u in neighbors {
                visited[u] = true;
                queue.push_back(u);
            }
        }
    }
    order.reverse();
    order
}

/// Bandwidth of `pattern` under permutation `perm` (`perm[new] = old`).
///
/// Useful for asserting that RCM actually helped.
#[expect(
    clippy::disallowed_methods,
    reason = "sized by `rows()` of the held pattern"
)]
pub fn bandwidth(pattern: &Pattern, perm: &[usize]) -> usize {
    let n = pattern.rows();
    let mut inv = vec![0usize; n];
    for (new, &old) in perm.iter().enumerate() {
        inv[old] = new;
    }
    let rp = pattern.row_ptr();
    let ci = pattern.col_idx();
    let mut bw = 0usize;
    for r in 0..n {
        for &c in &ci[rp[r]..rp[r + 1]] {
            if c < n {
                bw = bw.max(inv[r].abs_diff(inv[c]));
            }
        }
    }
    bw
}

/// The identity permutation (natural ordering).
pub fn natural_order(n: usize) -> Vec<usize> {
    (0..n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletMatrix;

    fn pattern_of(edges: &[(usize, usize)], n: usize) -> Pattern {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.add(i, i, 1.0);
        }
        for &(a, b) in edges {
            t.add(a, b, 1.0);
            t.add(b, a, 1.0);
        }
        t.to_csr().pattern().as_ref().clone()
    }

    #[test]
    fn permutation_is_valid() {
        let p = pattern_of(&[(0, 5), (5, 2), (2, 7), (1, 4)], 8);
        let perm = rcm_order(&p);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn rcm_reduces_bandwidth_of_shuffled_chain() {
        // A chain 0-1-2-...-19 relabelled by a stride permutation has huge
        // bandwidth; RCM should recover ~1.
        let n = 20usize;
        let relabel: Vec<usize> = (0..n).map(|i| (i * 7) % n).collect();
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (relabel[i], relabel[i + 1])).collect();
        let p = pattern_of(&edges, n);
        let natural_bw = bandwidth(&p, &natural_order(n));
        let rcm_bw = bandwidth(&p, &rcm_order(&p));
        assert!(rcm_bw <= 2, "rcm bandwidth {rcm_bw}");
        assert!(rcm_bw < natural_bw);
    }

    #[test]
    fn disconnected_components_all_ordered() {
        let p = pattern_of(&[(0, 1), (2, 3), (4, 5)], 7); // node 6 isolated
        let perm = rcm_order(&p);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn empty_pattern() {
        let p = Pattern::new(0, 0, vec![0], vec![]).unwrap();
        assert!(rcm_order(&p).is_empty());
    }

    #[test]
    fn star_graph_center_last_in_cm() {
        // RCM on a star: center has max degree; leaves cluster around it.
        let edges: Vec<(usize, usize)> = (1..10).map(|i| (0, i)).collect();
        let p = pattern_of(&edges, 10);
        let perm = rcm_order(&p);
        let bw = bandwidth(&p, &perm);
        assert!(bw <= 9);
    }
}
