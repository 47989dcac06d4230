//! SYNC_MST (§4): a synchronous MST construction that is simultaneously
//! `O(n)`-time and `O(log n)`-memory.
//!
//! The algorithm proceeds in phases. At the start of phase `i` every fragment
//! root counts its fragment (Procedure `Count_Size`, budgeted `2^{i+2} − 1`
//! rounds); a root is **active** in phase `i` iff the count finishes, i.e.
//! `|F| ≤ 2^{i+1} − 1` (Definition 4.1), in which case its level is `i`.
//! Active fragments then search for their minimum outgoing edge
//! (`Find_Min_Out_Edge`, a Wave&Echo), re-orient their edges towards its
//! endpoint and hook onto the other endpoint; a mutual pair of fragments
//! selecting the same edge merges with the higher-identity endpoint becoming
//! the root (the "handshake"/pivot rule). Phase `i` occupies rounds
//! `[11·2^i, 22·2^i)`, so the total time is `O(n)` (Lemma 4.1, Theorem 4.4).
//!
//! This module executes the algorithm at fragment granularity while keeping
//! the paper's phase timing for the ideal-time accounting, and records the
//! *active fragments* and their selected (candidate) edges — exactly the
//! hierarchy `H_M` and candidate function `χ_M` that the marker of §5.1 uses.

use smst_graph::weight::bits_for;
use smst_graph::{EdgeId, Fragment, Hierarchy, NodeId, RootedTree, WeightedGraph};
use std::collections::{BTreeMap, BTreeSet};

/// One active fragment recorded during the execution: its node set, level
/// (= the phase at which it was active) and selected candidate edge.
#[derive(Debug, Clone)]
pub struct ActiveFragment {
    /// The nodes of the fragment.
    pub nodes: BTreeSet<NodeId>,
    /// The phase at which the fragment was active (its level).
    pub level: u32,
    /// The fragment's minimum outgoing edge, selected during the phase
    /// (`None` only for the final spanning fragment).
    pub candidate: Option<EdgeId>,
}

/// The outcome of running SYNC_MST.
#[derive(Debug, Clone)]
pub struct SyncMstOutcome {
    /// The constructed MST, rooted at the final surviving root.
    pub tree: RootedTree,
    /// The hierarchy of active fragments (including the final spanning
    /// fragment), with candidate edges attached.
    pub hierarchy: Hierarchy,
    /// The number of phases executed (the height of the hierarchy).
    pub phases: u32,
    /// Ideal-time rounds charged according to the paper's phase schedule
    /// (phase `i` spans rounds `[11·2^i, 22·2^i)`).
    pub rounds: u64,
    /// Memory bits per node used by the construction (Observation 4.3).
    pub memory_bits_per_node: u64,
}

/// The SYNC_MST construction algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct SyncMst;

impl SyncMst {
    /// Creates the algorithm.
    pub fn new() -> Self {
        SyncMst
    }

    /// Runs the construction on a connected weighted graph.
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty or disconnected (the paper assumes a
    /// connected network).
    pub fn run(&self, g: &WeightedGraph) -> SyncMstOutcome {
        self.run_with(g, |e| g.composite_weight(e, false), None)
    }

    /// Runs the construction using the composite weights ω′ with the
    /// candidate-tree indicator of the given tree, re-rooting the outcome at
    /// that tree's root.
    ///
    /// This is what the marker uses (§5.1): when the candidate tree `T` is an
    /// MST of `G` under ω, it is the unique MST under ω′ with `T`'s indicator,
    /// so SYNC_MST reconstructs exactly `T` and the hierarchy / candidate
    /// function it records is a hierarchy *for `T`*.
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty or disconnected.
    pub fn run_for_candidate(&self, g: &WeightedGraph, tree: &RootedTree) -> SyncMstOutcome {
        let mut in_tree = vec![false; g.edge_count()];
        for e in tree.edges() {
            in_tree[e.0] = true;
        }
        self.run_with(
            g,
            |e| g.composite_weight(e, in_tree[e.0]),
            Some(tree.root()),
        )
    }

    fn run_with<W>(
        &self,
        g: &WeightedGraph,
        weight: W,
        root_override: Option<NodeId>,
    ) -> SyncMstOutcome
    where
        W: Fn(EdgeId) -> smst_graph::CompositeWeight,
    {
        let n = g.node_count();
        assert!(n > 0, "SYNC_MST requires a non-empty graph");
        assert!(g.is_connected(), "SYNC_MST requires a connected graph");

        // fragment state: component representative per node, fragment root,
        // fragment level, member sets. Ordered maps keyed by representative:
        // their iteration order decides the order of `tree_edges` and
        // `active_fragments`, and so the marker's labels.
        let mut comp: Vec<usize> = (0..n).collect();
        let mut members: BTreeMap<usize, BTreeSet<NodeId>> =
            (0..n).map(|v| (v, BTreeSet::from([NodeId(v)]))).collect();
        let mut root_of: BTreeMap<usize, NodeId> = (0..n).map(|v| (v, NodeId(v))).collect();
        let mut level_of: BTreeMap<usize, u32> = (0..n).map(|v| (v, 0)).collect();

        let mut active_fragments: Vec<ActiveFragment> = Vec::new();
        let mut tree_edges: Vec<EdgeId> = Vec::new();
        let mut phase: u32 = 0;
        let final_root;

        loop {
            // Count_Size: a fragment is active in this phase iff its size fits
            // the budget and its level equals the phase.
            let frags: Vec<usize> = members.keys().copied().collect();
            let mut active: Vec<usize> = Vec::new();
            for &f in &frags {
                let size = members[&f].len() as u64;
                if size < (1u64 << (phase + 1)) {
                    // count succeeded: the root keeps level = phase and is active
                    level_of.insert(f, phase);
                    active.push(f);
                } else {
                    // count overflowed: level is bumped, fragment sits this phase out
                    level_of.insert(f, phase + 1);
                }
            }

            // termination: a single fragment spanning the graph whose count
            // succeeded ends the algorithm at the end of Count_Size
            if members.len() == 1 {
                let f = frags[0];
                if (members[&f].len() as u64) < (1u64 << (phase + 1)) {
                    // record the spanning fragment as the top of the hierarchy
                    active_fragments.push(ActiveFragment {
                        nodes: members[&f].clone(),
                        level: phase,
                        candidate: None,
                    });
                    final_root = root_of[&f];
                    break;
                }
                // otherwise keep doubling the budget (still O(n) total)
                phase += 1;
                continue;
            }

            // Find_Min_Out_Edge for every active fragment
            let mut selected: BTreeMap<usize, EdgeId> = BTreeMap::new();
            for &f in &active {
                let min_edge = members[&f]
                    .iter()
                    .flat_map(|&v| g.incident_edges(v).iter().copied())
                    .filter(|&e| {
                        let edge = g.edge(e);
                        comp[edge.u.index()] != comp[edge.v.index()]
                            && (comp[edge.u.index()] == f || comp[edge.v.index()] == f)
                    })
                    .min_by_key(|&e| weight(e));
                if let Some(e) = min_edge {
                    selected.insert(f, e);
                    active_fragments.push(ActiveFragment {
                        nodes: members[&f].clone(),
                        level: phase,
                        candidate: Some(e),
                    });
                }
            }

            // Merging: every active fragment hooks onto the other endpoint of
            // its selected edge. The connected components of the "selected
            // edge" relation merge into one fragment each.
            // union-find over representatives (node indices)
            let mut new_rep: Vec<usize> = (0..n).collect();
            let find = |rep: &[usize], mut x: usize| {
                while rep[x] != x {
                    x = rep[x];
                }
                x
            };
            for (&f, &e) in &selected {
                let edge = g.edge(e);
                let other = if comp[edge.u.index()] == f {
                    comp[edge.v.index()]
                } else {
                    comp[edge.u.index()]
                };
                let (ra, rb) = (find(&new_rep, f), find(&new_rep, other));
                if ra != rb {
                    new_rep[ra] = rb;
                    tree_edges.push(e);
                }
            }

            // compute the new fragment groups
            let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for &f in &frags {
                groups.entry(find(&new_rep, f)).or_default().push(f);
            }

            // new root per merged group: if the group contains a fragment
            // that selected no edge this phase (it was passive), its root
            // survives; otherwise the mutual pair of the minimum selected
            // edge in the group decides — the higher-identity endpoint of
            // that edge becomes the new root (the handshake/pivot rule).
            let mut new_members: BTreeMap<usize, BTreeSet<NodeId>> = BTreeMap::new();
            let mut new_roots: BTreeMap<usize, NodeId> = BTreeMap::new();
            let mut new_levels: BTreeMap<usize, u32> = BTreeMap::new();
            for (rep, group) in &groups {
                let mut set = BTreeSet::new();
                let mut max_level = 0;
                for &f in group {
                    set.extend(members[&f].iter().copied());
                    max_level = max_level.max(level_of[&f]);
                }
                let passive_root = group
                    .iter()
                    .find(|f| !selected.contains_key(f))
                    .map(|f| root_of[f]);
                let root = match passive_root {
                    Some(r) => r,
                    None => {
                        // all fragments in the group were active; the group's
                        // minimum selected edge is shared by a mutual pair
                        let min_edge = group
                            .iter()
                            .filter_map(|f| selected.get(f))
                            .copied()
                            .min_by_key(|&e| weight(e))
                            .expect("active group selects at least one edge");
                        let edge = g.edge(min_edge);
                        if g.id(edge.u) > g.id(edge.v) {
                            edge.u
                        } else {
                            edge.v
                        }
                    }
                };
                new_members.insert(*rep, set);
                new_roots.insert(*rep, root);
                new_levels.insert(*rep, max_level.max(phase + 1));
            }
            for c in comp.iter_mut() {
                *c = find(&new_rep, *c);
            }
            members = new_members;
            root_of = new_roots;
            level_of = new_levels;
            phase += 1;
        }

        let tree = RootedTree::from_edges(g, &tree_edges, root_override.unwrap_or(final_root))
            .expect("SYNC_MST produces a spanning tree of a connected graph");

        // build the hierarchy (active fragments + singletons are already the
        // level-0 active fragments)
        let mut hierarchy_fragments: Vec<Fragment> = Vec::new();
        let mut candidates: Vec<Option<EdgeId>> = Vec::new();
        for af in &active_fragments {
            hierarchy_fragments.push(Fragment::new(&tree, af.nodes.iter().copied(), af.level));
            candidates.push(af.candidate);
        }
        let mut hierarchy = Hierarchy::from_fragments(hierarchy_fragments);
        for (i, cand) in candidates.into_iter().enumerate() {
            if let Some(e) = cand {
                hierarchy.set_candidate(i, e);
            }
        }

        // ideal-time accounting: phases 0..=phase each occupy [11·2^i, 22·2^i)
        let rounds: u64 = 22u64 << phase;
        // memory: level + root-ID estimate + parent ID + candidate port +
        // stage flags + echo variable (Observation 4.3)
        let max_id = g.nodes().map(|v| g.id(v)).max().unwrap_or(1);
        let memory_bits_per_node = 3 * u64::from(bits_for(max_id))
            + u64::from(bits_for(n as u64)) * 2
            + u64::from(bits_for(g.max_degree() as u64))
            + 8;

        SyncMstOutcome {
            tree,
            hierarchy,
            phases: phase,
            rounds,
            memory_bits_per_node,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use smst_graph::generators::{complete_graph, path_graph, random_connected_graph};
    use smst_graph::mst::{is_mst, kruskal};

    #[test]
    fn builds_the_unique_mst() {
        for seed in 0..6 {
            let g = random_connected_graph(30, 80, seed);
            let outcome = SyncMst.run(&g);
            let mut edges = outcome.tree.edges();
            edges.sort_unstable();
            assert_eq!(edges, kruskal(&g).edges(), "seed {seed}");
        }
    }

    #[test]
    fn hierarchy_is_valid_and_minimal() {
        let g = random_connected_graph(24, 60, 7);
        let outcome = SyncMst.run(&g);
        outcome
            .hierarchy
            .validate(&g, &outcome.tree)
            .expect("hierarchy satisfies Definition 5.1");
        outcome
            .hierarchy
            .validate_candidate_function(&g, &outcome.tree)
            .expect("candidates form a candidate function");
        outcome
            .hierarchy
            .validate_minimality(&g, &outcome.tree)
            .expect("candidates are minimum outgoing edges");
    }

    #[test]
    fn hierarchy_height_is_logarithmic() {
        for n in [4usize, 16, 64, 200] {
            let g = random_connected_graph(n, 3 * n, 3);
            let outcome = SyncMst.run(&g);
            let bound = (n as f64).log2().ceil() as u32 + 1;
            assert!(
                outcome.hierarchy.height() <= bound,
                "n={n}: height {} exceeds {bound}",
                outcome.hierarchy.height()
            );
        }
    }

    #[test]
    fn rounds_are_linear_in_n() {
        // the phase schedule charges 22·2^phases rounds; fragment sizes double
        // per phase so this is O(n)
        for n in [8usize, 32, 128, 512] {
            let g = path_graph(n, 5);
            let outcome = SyncMst.run(&g);
            assert!(
                outcome.rounds <= 100 * n as u64,
                "n={n}: {} rounds is not O(n)",
                outcome.rounds
            );
            assert!(outcome.rounds >= n as u64 / 2);
        }
    }

    #[test]
    fn memory_is_logarithmic() {
        let g = random_connected_graph(256, 600, 1);
        let outcome = SyncMst.run(&g);
        assert!(outcome.memory_bits_per_node <= 8 * 8 + 40);
    }

    #[test]
    fn works_on_complete_and_path_graphs() {
        let g = complete_graph(12, 2);
        let outcome = SyncMst.run(&g);
        assert!(is_mst(&g, &outcome.tree.edges()));
        let p = path_graph(17, 3);
        let outcome = SyncMst.run(&p);
        assert_eq!(outcome.tree.edges().len(), 16);
    }

    #[test]
    fn single_node_graph() {
        let g = WeightedGraph::with_nodes(1);
        let outcome = SyncMst.run(&g);
        assert_eq!(outcome.tree.node_count(), 1);
        assert_eq!(outcome.hierarchy.height(), 0);
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn rejects_disconnected_graph() {
        let mut g = WeightedGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        let _ = SyncMst.run(&g);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn matches_kruskal_and_valid_hierarchy(n in 2usize..40, seed in 0u64..200) {
            let g = random_connected_graph(n, 3 * n, seed);
            let outcome = SyncMst.run(&g);
            let mut edges = outcome.tree.edges();
            edges.sort_unstable();
            let expected = kruskal(&g);
            prop_assert_eq!(edges, expected.edges());
            prop_assert!(outcome.hierarchy.validate(&g, &outcome.tree).is_ok());
            prop_assert!(outcome.hierarchy.validate_minimality(&g, &outcome.tree).is_ok());
        }
    }
}
