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
        let rs = problem.results_of_base(b);
        for (x, &i) in rs.iter().enumerate() {
            for &j in &rs[x + 1..] {
                let key = if i < j { (i, j) } else { (j, i) };
                *weights.entry(key).or_insert(0) += 1;
            }
        }
    }

    // Per-cluster adjacency and base sets (for the size cap). Ordered maps
    // throughout: the absorbed-neighbour loop below iterates `gone_adj`,
    // and with a hash map that order — hence the heap's insertion order and
    // any weight-tied merge sequence — would vary run to run.
    let mut adj: Vec<BTreeMap<usize, usize>> = vec![BTreeMap::new(); n];
    for (&(i, j), &w) in &weights {
        adj[i].insert(j, w);
        adj[j].insert(i, w);
    }
    let mut bases: Vec<BTreeSet<usize>> = (0..n)
        .map(|ri| problem.results[ri].bases.iter().copied().collect())
        .collect();

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
        let (ra, rb) = (uf.find(a), uf.find(b));
        if ra == rb {
            continue;
        }
        // Stale check: the entry must match the current weight between the
        // two live clusters.
        if adj[ra].get(&rb) != Some(&w) {
            continue;
        }
        // (Upper bound: shared bases counted twice, still fine as cap.)
        if bases[ra].len() + bases[rb].len() > max_group_bases {
            // Drop the edge so it is not retried forever.
            adj[ra].remove(&rb);
            adj[rb].remove(&ra);
            continue;
        }
        // Merge rb into ra (union-find decides the surviving root).
        let root = uf.union(ra, rb);
        let (keep, gone) = if root == ra { (ra, rb) } else { (rb, ra) };
        let gone_adj = std::mem::take(&mut adj[gone]);
        let gone_bases = std::mem::take(&mut bases[gone]);
        bases[keep].extend(gone_bases);
        adj[keep].remove(&gone);
        for (nb, w2) in gone_adj {
            let nb = uf.find(nb);
            if nb == keep {
                continue;
            }
            let entry = adj[keep].entry(nb).or_insert(0);
            *entry += w2;
            let merged_w = *entry;
            // Mirror on the neighbour side: remove the old key, add the new.
            adj[nb].remove(&gone);
            adj[nb].insert(keep, merged_w);
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
    out.sort_by_key(|g| g[0]);
    out
}

struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Union by size; returns the surviving root.
    fn union(&mut self, a: usize, b: usize) -> usize {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return ra;
        }
        let (big, small) = if self.size[ra] >= self.size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big;
        self.size[big] += self.size[small];
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
