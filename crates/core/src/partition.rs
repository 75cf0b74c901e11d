//! Result-graph partitioning for divide-and-conquer (Section 4.3).
//!
//! Results are nodes; two results are connected with weight equal to the
//! number of base tuples they share (the prose and Figure 8 semantics —
//! the pseudocode's `|Gi ∪ Gj|` is a typo for the intersection). Clusters
//! are grown by repeatedly merging the pair connected by the maximum
//! weight, until that maximum drops to the threshold γ; after a merge, the
//! edge weight between a cluster and a neighbour is the *sum* of the
//! weights of the edges it absorbed, exactly as in the paper's Figure 9
//! walk-through.

use crate::problem::ProblemInstance;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// The merge threshold γ: clusters merge while the maximum inter-cluster
/// weight exceeds it, so results sharing one base tuple stay apart and
/// results sharing two merge.
const GAMMA: usize = 1;

/// No merge may put more than this many base tuples in one group (the
/// paper's first requirement: keep each sub-problem solvable in
/// reasonable time).
const MAX_GROUP_BASES: usize = 4096;

/// Partition the problem's results into groups of result indexes.
///
/// Results sharing no base tuple with anything else come out as singleton
/// groups. The output is deterministic: groups are sorted by their
/// smallest result index, members ascending.
pub fn partition(problem: &ProblemInstance) -> Vec<Vec<usize>> {
    merge_clusters(problem, GAMMA, MAX_GROUP_BASES)
}

/// One cluster while clusters merge: what it shares with each live
/// neighbour, and its base set (for the size cap).
#[derive(Debug, Default, Clone)]
struct Cluster {
    /// Neighbouring cluster root → summed edge weight. Ordered maps
    /// throughout: the absorbed-neighbour loop below iterates one, and
    /// with a hash map that order — hence the heap's insertion order and
    /// any weight-tied merge sequence — would vary run to run.
    adj: BTreeMap<usize, usize>,
    bases: BTreeSet<usize>,
}

/// [`partition`] at threshold `gamma` and group cap `max_group_bases`.
fn merge_clusters(
    problem: &ProblemInstance,
    gamma: usize,
    max_group_bases: usize,
) -> Vec<Vec<usize>> {
    let n = problem.results.len();
    let mut uf = UnionFind::new(n);

    // Edge weights: number of shared base tuples per result pair, found by
    // walking each base's result list.
    let mut weights: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for b in 0..problem.bases.len() {
        let mut rs = problem.results_of_base(b);
        while let Some((&i, rest)) = rs.split_first() {
            for &j in rest {
                let key = if i < j { (i, j) } else { (j, i) };
                *weights.entry(key).or_insert(0) += 1;
            }
            rs = rest;
        }
    }

    let mut clusters: Vec<Cluster> = (problem.results.iter())
        .map(|r| Cluster {
            adj: BTreeMap::new(),
            bases: r.bases.iter().copied().collect(),
        })
        .collect();
    for (&(i, j), &w) in &weights {
        if let Ok([ci, cj]) = clusters.get_disjoint_mut([i, j]) {
            ci.adj.insert(j, w);
            cj.adj.insert(i, w);
        }
    }

    // Max-weight merge loop with a lazy heap. Heap entries carry the weight
    // at push time and the two cluster roots; stale entries are skipped.
    // The highest weight pops first, and weight ties break towards the
    // *lower* index pair (hence the `Reverse`d roots) for determinism.
    let mut heap: BinaryHeap<(usize, Reverse<usize>, Reverse<usize>)> = weights
        .iter()
        .map(|(&(i, j), &w)| (w, Reverse(i), Reverse(j)))
        .collect();

    while let Some((w, Reverse(a), Reverse(b))) = heap.pop() {
        if w <= gamma {
            break;
        }
        // Two distinct roots, or the pair is one cluster already.
        let (ra, rb) = (uf.find(a), uf.find(b));
        let Ok([ca, cb]) = clusters.get_disjoint_mut([ra, rb]) else {
            continue;
        };
        // Stale check: the entry must match the current weight between the
        // two live clusters.
        if ca.adj.get(&rb) != Some(&w) {
            continue;
        }
        // (Upper bound: shared bases counted twice, still fine as cap.)
        if ca.bases.len() + cb.bases.len() > max_group_bases {
            // Drop the edge so it is not retried forever.
            ca.adj.remove(&rb);
            cb.adj.remove(&ra);
            continue;
        }
        // Merge rb into ra (union-find decides the surviving root).
        let root = uf.union(ra, rb);
        let (keep, gone, kept, absorbed) = if root == ra {
            (ra, rb, ca, cb)
        } else {
            (rb, ra, cb, ca)
        };
        let absorbed = std::mem::take(absorbed);
        kept.bases.extend(absorbed.bases);
        kept.adj.remove(&gone);
        for (nb, w2) in absorbed.adj {
            // A neighbour that is `keep` itself is the edge just merged.
            let nb = uf.find(nb);
            let Ok([kept, neighbour]) = clusters.get_disjoint_mut([keep, nb]) else {
                continue;
            };
            let entry = kept.adj.entry(nb).or_insert(0);
            *entry += w2;
            let merged_w = *entry;
            // Mirror on the neighbour side: remove the old key, add the new.
            neighbour.adj.remove(&gone);
            neighbour.adj.insert(keep, merged_w);
            heap.push((merged_w, Reverse(keep), Reverse(nb)));
        }
    }

    // Collect groups.
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for ri in 0..n {
        groups.entry(uf.find(ri)).or_default().push(ri);
    }
    let mut out: Vec<Vec<usize>> = groups.into_values().collect();
    for g in &mut out {
        g.sort_unstable();
    }
    out.sort_by_key(|g| g.first().copied());
    out
}

/// Disjoint sets over `0..n`, united by size, so a root is at most
/// `log2 n` parents up.
struct UnionFind {
    nodes: Vec<Node>,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    /// `None` at a root.
    parent: Option<usize>,
    size: usize,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        let root = Node {
            parent: None,
            size: 1,
        };
        UnionFind {
            nodes: vec![root; n],
        }
    }

    /// The root of `x`'s set.
    fn find(&self, mut x: usize) -> usize {
        while let Some(parent) = self.nodes.get(x).and_then(|node| node.parent) {
            x = parent;
        }
        x
    }

    /// Union by size; returns the surviving root.
    fn union(&mut self, a: usize, b: usize) -> usize {
        let (ra, rb) = (self.find(a), self.find(b));
        // Distinct roots, or `a` and `b` share a set already.
        let Ok([na, nb]) = self.nodes.get_disjoint_mut([ra, rb]) else {
            return ra;
        };
        let (big, root, child) = if na.size >= nb.size {
            (ra, na, nb)
        } else {
            (rb, nb, na)
        };
        child.parent = Some(big);
        root.size += child.size;
        big
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ProblemBuilder;
    use pcqe_cost::CostFn;
    use pcqe_lineage::Lineage;

    fn linear() -> CostFn {
        CostFn::linear(10.0).unwrap()
    }

    /// Build a problem where result i is the conjunction of the base ids
    /// given.
    fn problem_with(results: &[&[u64]]) -> ProblemInstance {
        let mut b = ProblemBuilder::new(0.5, 0.1);
        let mut seen = std::collections::BTreeSet::new();
        for r in results {
            for &id in *r {
                if seen.insert(id) {
                    b.base(id, 0.1, linear());
                }
            }
        }
        for r in results {
            let conjuncts = r.iter().map(|&id| Lineage::var(id)).collect();
            b.result_from_lineage(&Lineage::and(conjuncts)).unwrap();
        }
        b.require(0).build().unwrap()
    }

    #[test]
    fn independent_results_stay_separate() {
        let p = problem_with(&[&[0, 1], &[2, 3], &[4]]);
        assert_eq!(partition(&p), vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn heavily_shared_results_merge() {
        // r0 and r1 share bases {0,1,2} (weight 3); r2 is linked to r1 by
        // one shared base (weight 1 ≤ γ).
        let p = problem_with(&[&[0, 1, 2, 3], &[0, 1, 2, 4], &[4, 5, 6]]);
        assert_eq!(partition(&p), vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn gamma_zero_merges_any_sharing() {
        let p = problem_with(&[&[0, 1, 2, 3], &[0, 1, 2, 4], &[4, 5, 6]]);
        let groups = merge_clusters(&p, 0, MAX_GROUP_BASES);
        assert_eq!(groups, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn merged_edge_weights_accumulate() {
        // Figure 9 flavour: r0-r1 weight 2; r0-r2 weight 1, r1-r2 weight 1.
        // Alone, neither weight-1 edge exceeds γ = 1, but after merging
        // {r0,r1} the cluster-r2 weight is their sum, 2 > γ, so everything
        // merges.
        let p = problem_with(&[&[0, 1, 2], &[0, 1, 3], &[2, 3]]);
        assert_eq!(partition(&p), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn size_cap_blocks_merges() {
        let p = problem_with(&[&[0, 1, 2, 3], &[0, 1, 2, 4]]);
        let groups = merge_clusters(&p, GAMMA, 4);
        assert_eq!(groups.len(), 2, "cap of 4 bases forbids the merge");
    }

    #[test]
    fn empty_problem_yields_no_groups() {
        let p = ProblemBuilder::new(0.5, 0.1).build().unwrap();
        assert!(partition(&p).is_empty());
    }
}
