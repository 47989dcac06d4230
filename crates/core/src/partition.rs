//! The `Top` and `Bottom` partitions of §6.1 and the placement of the pieces
//! of information `I(F)` (§6.2).
//!
//! * **Top fragments** are the fragments with at least `⌈log n⌉` nodes; the
//!   others are **bottom** fragments.
//! * A top fragment that is a leaf of the subtree `T_Top` of the hierarchy is
//!   **red**; an internal one is **large**; a bottom fragment whose hierarchy
//!   parent is large is **blue**; one whose parent is red is **green**.
//! * Partition `P′` = red ∪ blue fragments; Procedure `Merge` coarsens it to
//!   `P′′` (each part contains exactly one red fragment plus blue fragments of
//!   ancestor large fragments); each `P′′` part is then split into **Top
//!   parts** of size ≥ `⌈log n⌉` and diameter `O(log n)`.
//! * The **Bottom parts** are the blue and green fragments themselves.
//!
//! Every node belongs to exactly one Top part and one Bottom part. The Top
//! part of a node stores (spread two-per-node in DFS order) the pieces `I(F)`
//! of all top fragments that are hierarchy ancestors of the part's red
//! fragment; the Bottom part stores the pieces of all bottom fragments it
//! contains. Together these cover `I(F_j(v))` for every level `j` at which
//! `v` has a fragment.

use crate::labels::{PieceInfo, StoredPiece};
use smst_graph::{Hierarchy, NodeId, RootedTree, WeightedGraph};
use std::collections::{BTreeMap, BTreeSet};

/// One part of one of the two partitions.
#[derive(Debug, Clone)]
pub struct Part {
    /// The part's root (its node closest to the root of the candidate tree).
    pub root: NodeId,
    /// The part's nodes.
    pub nodes: Vec<NodeId>,
    /// The hop depth of each part node inside the part (aligned with
    /// [`Self::nodes`]).
    pub depth: Vec<usize>,
    /// The part's diameter (as a subtree of the candidate tree).
    pub diameter: usize,
    /// The pieces circulating in this part, in slot order.
    pub pieces: Vec<PieceInfo>,
    /// For each slot, the node permanently storing the piece.
    pub holders: Vec<NodeId>,
}

impl Part {
    /// The permanently stored pieces of a given member node.
    pub fn stored_at(&self, v: NodeId) -> Vec<StoredPiece> {
        self.holders
            .iter()
            .enumerate()
            .filter(|&(_, &h)| h == v)
            .map(|(slot, _)| StoredPiece {
                slot: slot as u8,
                piece: self.pieces[slot],
            })
            .collect()
    }

    /// The depth of a member node inside the part.
    pub fn depth_of(&self, v: NodeId) -> usize {
        self.nodes
            .iter()
            .position(|&x| x == v)
            .map(|i| self.depth[i])
            .expect("node belongs to the part")
    }
}

/// The two partitions plus the per-node assignment.
#[derive(Debug, Clone)]
pub struct Partitions {
    /// The size threshold separating top from bottom fragments (`⌈log n⌉`).
    pub threshold: usize,
    /// The parts of partition `Top`.
    pub top_parts: Vec<Part>,
    /// The parts of partition `Bottom`.
    pub bottom_parts: Vec<Part>,
    /// For each node, the index of its `Top` part.
    pub top_part_of: Vec<usize>,
    /// For each node, the index of its `Bottom` part.
    pub bottom_part_of: Vec<usize>,
}

/// Builds both partitions and the piece placement from a hierarchy with
/// candidates (as produced by SYNC_MST).
///
/// # Panics
///
/// Panics if the hierarchy is inconsistent with the tree (these structures
/// come from the marker, which validated them).
pub fn build_partitions(g: &WeightedGraph, tree: &RootedTree, hierarchy: &Hierarchy) -> Partitions {
    let n = g.node_count();
    let threshold = ((n.max(2) as f64).log2().ceil() as usize).max(1);

    let is_top: Vec<bool> = (0..hierarchy.len())
        .map(|i| hierarchy.fragment(i).len() >= threshold)
        .collect();
    let is_red: Vec<bool> = (0..hierarchy.len())
        .map(|i| is_top[i] && hierarchy.children_of(i).iter().all(|&c| !is_top[c]))
        .collect();
    let is_large: Vec<bool> = (0..hierarchy.len())
        .map(|i| is_top[i] && !is_red[i])
        .collect();
    let is_blue: Vec<bool> = (0..hierarchy.len())
        .map(|i| !is_top[i] && hierarchy.parent_of(i).map(|p| is_large[p]).unwrap_or(false))
        .collect();
    let is_green: Vec<bool> = (0..hierarchy.len())
        .map(|i| !is_top[i] && hierarchy.parent_of(i).map(|p| is_red[p]).unwrap_or(false))
        .collect();

    // ---- partition P'' : red-centred parts --------------------------------
    // part id -> (node set, red fragment index)
    let mut pp_nodes: Vec<BTreeSet<NodeId>> = Vec::new();
    let mut pp_red: Vec<usize> = Vec::new();
    let mut pp_of: Vec<Option<usize>> = vec![None; n];
    for (i, &red) in is_red.iter().enumerate() {
        if red {
            let set = hierarchy.fragment(i).nodes.clone();
            for &v in &set {
                pp_of[v.index()] = Some(pp_nodes.len());
            }
            pp_nodes.push(set);
            pp_red.push(i);
        }
    }
    // merge blue fragments, processing large fragments bottom-up
    let mut larges: Vec<usize> = (0..hierarchy.len()).filter(|&i| is_large[i]).collect();
    larges.sort_by_key(|&i| hierarchy.fragment(i).level);
    for &flarge in &larges {
        let mut pending: Vec<usize> = hierarchy
            .children_of(flarge)
            .iter()
            .copied()
            .filter(|&c| is_blue[c])
            .collect();
        let mut guard = 0;
        while !pending.is_empty() {
            guard += 1;
            assert!(
                guard <= 2 * n + 2,
                "Procedure Merge failed to converge (hierarchy inconsistent)"
            );
            let mut progressed = false;
            let flarge_nodes = hierarchy.fragment(flarge).nodes.clone();
            pending.retain(|&b| {
                let frag = hierarchy.fragment(b);
                // a part touching the blue fragment through a tree edge that
                // stays inside the enclosing large fragment (so that every
                // part keeps the Claim 6.3 property: its nodes all belong to
                // ancestor fragments of its red fragment)
                let touching = frag.nodes.iter().find_map(|&v| {
                    let mut cands = Vec::new();
                    if let Some(p) = tree.parent(v) {
                        cands.push(p);
                    }
                    cands.extend(tree.children(v).iter().copied());
                    cands
                        .into_iter()
                        .filter(|u| !frag.contains(*u) && flarge_nodes.contains(u))
                        .find_map(|u| pp_of[u.index()])
                });
                match touching {
                    Some(part) => {
                        for &v in &frag.nodes {
                            pp_of[v.index()] = Some(part);
                        }
                        pp_nodes[part].extend(frag.nodes.iter().copied());
                        progressed = true;
                        false
                    }
                    None => true,
                }
            });
            assert!(
                progressed || pending.is_empty(),
                "Procedure Merge is stuck: some blue fragment touches no part"
            );
        }
    }
    // any node still unassigned (only possible in degenerate tiny hierarchies)
    // becomes its own red-centred part anchored at the top fragment
    let top_idx = (0..hierarchy.len())
        .find(|&i| hierarchy.fragment(i).len() == n)
        .expect("the hierarchy contains the whole tree");
    for (v, slot) in pp_of.iter_mut().enumerate() {
        if slot.is_none() {
            *slot = Some(pp_nodes.len());
            pp_nodes.push(BTreeSet::from([NodeId(v)]));
            pp_red.push(top_idx);
        }
    }

    // ---- partition Top: split each P'' part into small-diameter subtrees --
    let mut top_parts: Vec<Part> = Vec::new();
    let mut top_part_of: Vec<usize> = vec![usize::MAX; n];
    for (pp_idx, nodes) in pp_nodes.iter().enumerate() {
        // pieces shared by all sub-parts: the top ancestors (and self) of the
        // red fragment
        let mut anc = Vec::new();
        let mut cur = Some(pp_red[pp_idx]);
        while let Some(i) = cur {
            if is_top[i] {
                anc.push(i);
            }
            cur = hierarchy.parent_of(i);
        }
        let pieces = pieces_for(g, tree, hierarchy, &anc);
        let min_size = threshold.max(pieces.len().div_ceil(2)).max(1);
        for cluster in split_subtree(tree, nodes, min_size) {
            let part = make_part(tree, cluster, pieces.clone());
            for &v in &part.nodes {
                top_part_of[v.index()] = top_parts.len();
            }
            top_parts.push(part);
        }
    }

    // ---- partition Bottom: blue and green fragments -----------------------
    let mut bottom_parts: Vec<Part> = Vec::new();
    let mut bottom_part_of: Vec<usize> = vec![usize::MAX; n];
    for i in 0..hierarchy.len() {
        if is_blue[i] || is_green[i] {
            let frag = hierarchy.fragment(i);
            // all bottom fragments contained in this fragment
            let inner: Vec<usize> = (0..hierarchy.len())
                .filter(|&j| !is_top[j] && hierarchy.fragment(j).nodes.is_subset(&frag.nodes))
                .collect();
            let pieces = pieces_for(g, tree, hierarchy, &inner);
            let part = make_part(tree, frag.nodes.iter().copied().collect(), pieces);
            for &v in &part.nodes {
                bottom_part_of[v.index()] = bottom_parts.len();
            }
            bottom_parts.push(part);
        }
    }
    // fallback for nodes not covered by any blue/green fragment (happens only
    // when their singleton fragment is itself top, i.e. for very small n)
    for (v, slot) in bottom_part_of.iter_mut().enumerate() {
        if *slot == usize::MAX {
            let singleton = hierarchy
                .fragment_at_level(NodeId(v), 0)
                .expect("every node has a level-0 fragment");
            let pieces = pieces_for(g, tree, hierarchy, &[singleton]);
            let part = make_part(tree, vec![NodeId(v)], pieces);
            *slot = bottom_parts.len();
            bottom_parts.push(part);
        }
    }

    Partitions {
        threshold,
        top_parts,
        bottom_parts,
        top_part_of,
        bottom_part_of,
    }
}

/// Builds the `I(F)` pieces of the given fragments, sorted by (level, root
/// identity) — the slot order of the part's cycle.
fn pieces_for(
    g: &WeightedGraph,
    tree: &RootedTree,
    hierarchy: &Hierarchy,
    fragment_indices: &[usize],
) -> Vec<PieceInfo> {
    let mut pieces: Vec<PieceInfo> = fragment_indices
        .iter()
        .map(|&i| {
            let frag = hierarchy.fragment(i);
            let min_out = hierarchy
                .candidate(i)
                .map(|e| g.composite_weight(e, tree.contains_edge(e)));
            PieceInfo {
                root_id: g.id(frag.root),
                level: frag.level,
                min_out,
            }
        })
        .collect();
    pieces.sort_by_key(|p| (p.level, p.root_id));
    pieces.dedup();
    pieces
}

/// Splits the subtree induced by `nodes` into connected clusters of size at
/// least `min_size` (except that the final cluster absorbs the remainder),
/// each of diameter `O(min_size)`.
fn split_subtree(tree: &RootedTree, nodes: &BTreeSet<NodeId>, min_size: usize) -> Vec<Vec<NodeId>> {
    // the induced subtree's root and parent/children restricted to `nodes`
    let root = *nodes
        .iter()
        .min_by_key(|&&v| tree.depth(v))
        .expect("parts are non-empty");
    let in_set = |v: NodeId| nodes.contains(&v);
    // DFS order over the induced subtree
    let mut order = Vec::new();
    let mut stack = vec![root];
    while let Some(v) = stack.pop() {
        order.push(v);
        for &c in tree.children(v) {
            if in_set(c) {
                stack.push(c);
            }
        }
    }
    let mut closed: Vec<Vec<NodeId>> = Vec::new();
    // pending cluster accumulated at each node
    let mut pending: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
    for &v in order.iter().rev() {
        let mut cluster = vec![v];
        for &c in tree.children(v) {
            if in_set(c) {
                if let Some(p) = pending.remove(&c) {
                    cluster.extend(p);
                }
            }
        }
        if cluster.len() >= min_size && v != root {
            closed.push(cluster);
        } else {
            pending.insert(v, cluster);
        }
    }
    // the remainder containing the root
    let remainder = pending.remove(&root).unwrap_or_default();
    if remainder.len() >= min_size || closed.is_empty() {
        if !remainder.is_empty() {
            closed.push(remainder);
        }
    } else {
        // merge the remainder into a closed cluster whose root's parent lies
        // in the remainder, preserving connectivity
        let rem_set: BTreeSet<NodeId> = remainder.iter().copied().collect();
        let target = closed
            .iter()
            .position(|cluster| {
                cluster.iter().any(|&x| {
                    tree.parent(x)
                        .map(|p| rem_set.contains(&p))
                        .unwrap_or(false)
                })
            })
            .expect("some closed cluster hangs off the remainder");
        closed[target].extend(remainder);
    }
    closed
}

/// Assembles a [`Part`] from its node set and pieces: computes the part root,
/// per-node depths, the diameter and the DFS piece placement (two slots per
/// node).
fn make_part(tree: &RootedTree, mut nodes: Vec<NodeId>, pieces: Vec<PieceInfo>) -> Part {
    nodes.sort_unstable();
    nodes.dedup();
    let set: BTreeSet<NodeId> = nodes.iter().copied().collect();
    let root = *set
        .iter()
        .min_by_key(|&&v| tree.depth(v))
        .expect("parts are non-empty");
    // DFS preorder of the induced subtree, used both for depths and holders
    let mut order = Vec::new();
    let mut depth_map: BTreeMap<NodeId, usize> = BTreeMap::new();
    let mut stack = vec![(root, 0usize)];
    while let Some((v, d)) = stack.pop() {
        order.push(v);
        depth_map.insert(v, d);
        for &c in tree.children(v) {
            if set.contains(&c) {
                stack.push((c, d + 1));
            }
        }
    }
    assert_eq!(
        order.len(),
        set.len(),
        "a part must induce a connected subtree"
    );
    assert!(
        pieces.len() <= 2 * order.len(),
        "a part must have room for its pieces (two per node)"
    );
    let holders: Vec<NodeId> = (0..pieces.len()).map(|slot| order[slot / 2]).collect();
    let max_depth = depth_map.values().copied().max().unwrap_or(0);
    let nodes_ordered: Vec<NodeId> = order.clone();
    let depth: Vec<usize> = nodes_ordered.iter().map(|v| depth_map[v]).collect();
    Part {
        root,
        nodes: nodes_ordered,
        depth,
        diameter: 2 * max_depth,
        pieces,
        holders,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync_mst::SyncMst;
    use proptest::prelude::*;
    use smst_graph::generators::{path_graph, random_connected_graph};

    fn build(n: usize, seed: u64) -> (WeightedGraph, RootedTree, Hierarchy, Partitions) {
        let g = random_connected_graph(n, 3 * n, seed);
        let outcome = SyncMst.run(&g);
        let parts = build_partitions(&g, &outcome.tree, &outcome.hierarchy);
        (g, outcome.tree, outcome.hierarchy, parts)
    }

    fn check_invariants(g: &WeightedGraph, tree: &RootedTree, h: &Hierarchy, parts: &Partitions) {
        let n = g.node_count();
        // every node in exactly one part of each partition
        for v in 0..n {
            assert!(parts.top_part_of[v] < parts.top_parts.len());
            assert!(parts.bottom_part_of[v] < parts.bottom_parts.len());
            assert!(parts.top_parts[parts.top_part_of[v]]
                .nodes
                .contains(&NodeId(v)));
            assert!(parts.bottom_parts[parts.bottom_part_of[v]]
                .nodes
                .contains(&NodeId(v)));
        }
        let covered: usize = parts.top_parts.iter().map(|p| p.nodes.len()).sum();
        assert_eq!(covered, n, "Top parts partition the nodes");
        let covered: usize = parts.bottom_parts.iter().map(|p| p.nodes.len()).sum();
        assert_eq!(covered, n, "Bottom parts partition the nodes");

        let log_n = (n.max(2) as f64).log2().ceil() as usize;
        for p in parts.top_parts.iter().chain(parts.bottom_parts.iter()) {
            assert!(
                p.diameter <= 6 * log_n + 4,
                "part diameter {} is not O(log n)",
                p.diameter
            );
            assert!(p.pieces.len() <= 2 * p.nodes.len());
            assert_eq!(p.holders.len(), p.pieces.len());
            for (slot, &h) in p.holders.iter().enumerate() {
                assert!(p.nodes.contains(&h), "slot {slot} holder is in the part");
            }
            // per node at most two stored pieces
            for &v in &p.nodes {
                assert!(p.stored_at(v).len() <= 2);
            }
        }

        // coverage: for every node and every level at which it has a
        // fragment, the piece of that fragment is carried by one of its two
        // parts
        for v in g.nodes() {
            for idx in h.fragments_containing(v) {
                let frag = h.fragment(idx);
                let id = (g.id(frag.root), frag.level);
                let tp = &parts.top_parts[parts.top_part_of[v.index()]];
                let bp = &parts.bottom_parts[parts.bottom_part_of[v.index()]];
                let found = tp
                    .pieces
                    .iter()
                    .chain(bp.pieces.iter())
                    .any(|p| (p.root_id, p.level) == id);
                assert!(
                    found,
                    "node {v} misses the piece of its level-{} fragment",
                    frag.level
                );
            }
        }
        let _ = tree;
    }

    #[test]
    fn invariants_on_random_graphs() {
        for seed in 0..6 {
            let (g, tree, h, parts) = build(40, seed);
            check_invariants(&g, &tree, &h, &parts);
        }
    }

    #[test]
    fn invariants_on_a_path() {
        let g = path_graph(64, 9);
        let outcome = SyncMst.run(&g);
        let parts = build_partitions(&g, &outcome.tree, &outcome.hierarchy);
        check_invariants(&g, &outcome.tree, &outcome.hierarchy, &parts);
    }

    #[test]
    fn invariants_on_small_graphs() {
        for n in 1..8usize {
            let g = random_connected_graph(n, 3 * n, 11);
            let outcome = SyncMst.run(&g);
            let parts = build_partitions(&g, &outcome.tree, &outcome.hierarchy);
            check_invariants(&g, &outcome.tree, &outcome.hierarchy, &parts);
        }
    }

    #[test]
    fn top_parts_are_reasonably_large() {
        let (g, _, _, parts) = build(120, 3);
        let threshold = parts.threshold;
        for p in &parts.top_parts {
            assert!(
                p.nodes.len() >= threshold.min(g.node_count()),
                "top part of {} nodes is below the threshold {threshold}",
                p.nodes.len()
            );
        }
    }

    #[test]
    fn top_parts_intersect_one_top_fragment_per_level() {
        let (g, _, h, parts) = build(100, 4);
        let threshold = parts.threshold;
        for p in &parts.top_parts {
            let mut seen_levels = BTreeSet::new();
            for i in 0..h.len() {
                let frag = h.fragment(i);
                if frag.len() >= threshold && p.nodes.iter().any(|v| frag.contains(*v)) {
                    assert!(
                        seen_levels.insert(frag.level),
                        "part intersects two top fragments of level {}",
                        frag.level
                    );
                }
            }
        }
        let _ = g;
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        #[test]
        fn partitions_cover_all_needed_pieces(n in 2usize..50, seed in 0u64..100) {
            let g = random_connected_graph(n, 3 * n, seed);
            let outcome = SyncMst.run(&g);
            let parts = build_partitions(&g, &outcome.tree, &outcome.hierarchy);
            check_invariants(&g, &outcome.tree, &outcome.hierarchy, &parts);
        }
    }
}
