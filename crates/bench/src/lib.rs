//! Shared experiment drivers for the benchmark harness.
//!
//! Each public function regenerates one of the paper's evaluation
//! artifacts: Table 1 and the lower-bound figure here, the detection,
//! locality, memory and construction figures in [`engine_metrics`] (one
//! driver per figure, run on any [`EngineConfig`](smst_engine::EngineConfig);
//! `EngineConfig::reference()` is the sequential case). The `bin` targets
//! print the tables; the `benches/` targets time the underlying primitives
//! with the in-repo [`harness`] (Criterion is unavailable in the offline
//! build environment).

#![forbid(unsafe_code)]

pub mod engine_metrics;
pub mod harness;

use smst_graph::generators::random_connected_graph;
use smst_graph::mst::kruskal;
use smst_graph::NodeId;
use smst_labeling::Instance;
use smst_selfstab::{SelfStabilizingMst, Variant};

/// Builds a correct MST instance on a random connected graph.
pub fn mst_instance(n: usize, m: usize, seed: u64) -> Instance {
    let g = random_connected_graph(n, m, seed);
    let tree = kruskal(&g).rooted_at(&g, NodeId(0)).expect("connected");
    Instance::from_tree(g, &tree)
}

/// One row of Table 1: a self-stabilizing MST construction variant with its
/// measured stabilization time and memory.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// The variant (paper / 1-round labels / recompute checker).
    pub variant: Variant,
    /// Number of nodes.
    pub n: usize,
    /// Number of edges.
    pub m: usize,
    /// Measured stabilization rounds from an adversarial configuration.
    pub stabilization_rounds: u64,
    /// Maximum bits per node.
    pub memory_bits: u64,
}

/// Regenerates Table 1: stabilization time and memory of the three
/// self-stabilizing MST constructions, for each graph size.
pub fn table1(sizes: &[usize], seed: u64) -> Vec<Table1Row> {
    let mut rows = Vec::new();
    for &n in sizes {
        let g = random_connected_graph(n, 3 * n, seed);
        for variant in Variant::all() {
            let outcome = SelfStabilizingMst::new(variant).stabilize_from_garbage(&g, seed);
            assert!(outcome.output_correct, "{variant:?} failed to stabilize");
            rows.push(Table1Row {
                variant,
                n,
                m: g.edge_count(),
                stabilization_rounds: outcome.total_rounds(),
                memory_bits: outcome.memory_bits_per_node,
            });
        }
    }
    rows
}

/// The lower-bound demonstration (§9, Lemma 9.1): build two blow-up instances
/// `G′(τ)` that share the same topology, the same candidate components and
/// the same labels-visible structure, and differ **only** in one edge weight
/// placed on the heavy middle edge of a blown-up path — in one instance the
/// candidate tree is the MST, in the other it is not. A verifier whose
/// detection radius around the original nodes is `k ≤ τ` sees identical
/// views in both instances and therefore cannot reject the bad one, while the
/// paper's (Θ(log n)-round, O(log n)-bit) verifier does; this is the
/// mechanism behind the Ω(log n)-time lower bound at O(log n) bits.
#[derive(Debug, Clone)]
pub struct LowerBoundPoint {
    /// The blow-up parameter τ.
    pub tau: usize,
    /// The probe radius `k`.
    pub radius: usize,
    /// Whether radius-`k` views at the original nodes distinguish the non-MST
    /// instance from the MST instance.
    pub distinguishable: bool,
}

/// Regenerates the lower-bound figure.
pub fn lower_bound_sweep(tau: usize, seed: u64) -> Vec<LowerBoundPoint> {
    use smst_graph::blowup::blowup;
    use smst_graph::WeightedGraph;
    let g = random_connected_graph(8, 16, seed);
    let mst = kruskal(&g);
    let tree = mst.rooted_at(&g, NodeId(0)).expect("connected");
    // second weight assignment: raise one tree edge above every other weight,
    // so the *same* candidate tree is no longer minimal
    let heavy_edge = tree.edges()[0];
    let max_w = g.edges().iter().map(|e| e.weight).max().unwrap_or(1);
    let mut g_bad = WeightedGraph::new();
    for v in g.nodes() {
        g_bad.add_node_with_id(g.id(v));
    }
    for (eid, e) in g.edge_entries() {
        let w = if eid == heavy_edge {
            max_w + 1000
        } else {
            e.weight
        };
        g_bad.add_edge(e.u, e.v, w).expect("copying edges");
    }
    let tree_bad = smst_graph::RootedTree::from_edges(&g_bad, &tree.edges(), tree.root())
        .expect("same edge set");
    assert!(!smst_graph::mst::is_mst(&g_bad, &tree_bad.edges()));

    let correct = blowup(&g, &tree, tau);
    let tampered = blowup(&g_bad, &tree_bad, tau);

    // radius-k view of a node: distances, incident-edge weights visible within
    // the radius, and component-pointer orientation — everything a k-round
    // verifier anchored at that node can learn
    let view = |b: &smst_graph::blowup::BlowupResult, v: NodeId, k: usize| {
        let d = b.graph.bfs_distances(v);
        let mut sig: Vec<(usize, u64, bool)> = b
            .graph
            .nodes()
            .filter(|u| d[u.index()] <= k)
            .map(|u| {
                let w: u64 = b
                    .graph
                    .incident_edges(u)
                    .iter()
                    .filter(|&&e| d[b.graph.edge(e).other(u).index()] <= k)
                    .map(|&e| b.graph.weight(e))
                    .sum();
                (d[u.index()], w, b.components.pointer(u).is_some())
            })
            .collect();
        sig.sort_unstable();
        sig
    };

    let originals: Vec<NodeId> = g.nodes().collect();
    (0..=2 * tau + 1)
        .map(|radius| {
            let distinguishable = originals
                .iter()
                .any(|&v| view(&correct, v, radius) != view(&tampered, v, radius));
            LowerBoundPoint {
                tau,
                radius,
                distinguishable,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine_metrics::{engine_construction_sweep, engine_detection_sweep, engine_memory_sweep};
    use smst_engine::EngineConfig;

    #[test]
    fn table1_orders_variants() {
        let rows = table1(&[24], 1);
        assert_eq!(rows.len(), 3);
        let get = |v: Variant| rows.iter().find(|r| r.variant == v).unwrap().clone();
        let paper = get(Variant::Paper);
        let recompute = get(Variant::Recompute);
        assert!(recompute.stabilization_rounds > paper.stabilization_rounds);
    }

    #[test]
    fn detection_is_polylogarithmic_in_practice() {
        for p in engine_detection_sweep(&[16, 32], 2, &EngineConfig::reference()) {
            let steps = p.detection_steps.expect("the fault is detected");
            assert!(steps < p.n * p.n, "detection should beat Θ(n²)");
        }
    }

    #[test]
    fn memory_sweep_shows_the_gap_in_words() {
        let points = engine_memory_sweep(&[32, 256], 3, &EngineConfig::reference(), 0);
        // the baseline's words-per-log-n grows; the paper's stays bounded
        assert!(points[1].one_round_words > points[0].one_round_words * 1.05);
        assert!(points[1].words < points[0].words * 1.5);
    }

    #[test]
    fn construction_is_linear() {
        for p in engine_construction_sweep(&[32, 128], 4, &EngineConfig::reference()) {
            assert!(p.rounds_per_node < 120.0);
        }
    }

    #[test]
    fn lower_bound_views_are_identical_up_to_tau() {
        let tau = 3;
        let points = lower_bound_sweep(tau, 5);
        for p in &points {
            if p.radius <= tau {
                assert!(
                    !p.distinguishable,
                    "radius {} must not distinguish",
                    p.radius
                );
            }
        }
        assert!(
            points.last().unwrap().distinguishable,
            "the full radius must distinguish"
        );
        let first = points.iter().position(|p| p.distinguishable).unwrap();
        assert_eq!(first, tau + 1, "the threshold radius is exactly τ + 1");
    }
}
