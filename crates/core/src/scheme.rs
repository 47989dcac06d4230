//! A facade tying the marker and the verifier together, with the
//! detection-time budgets the experiments use as their time-outs.
//!
//! The experiments themselves (fault detection, rejection of a non-MST
//! candidate) run through `smst_engine::adapters`, on whatever execution
//! path an `EngineConfig` describes; `EngineConfig::reference()` is the
//! sequential [`SyncRunner`](smst_sim::SyncRunner) /
//! [`AsyncRunner`](smst_sim::AsyncRunner) case.

use crate::labels::CoreLabel;
use crate::marker::{ConstructionReport, Marker};
use crate::verifier::CoreVerifier;
use smst_labeling::scheme::{Instance, MarkError};

/// The paper's MST proof labeling scheme: `O(log n)` bits per node,
/// polylogarithmic detection time, `O(n)`-time marker.
#[derive(Debug, Clone, Copy, Default)]
pub struct MstVerificationScheme;

impl MstVerificationScheme {
    /// Creates the scheme.
    pub fn new() -> Self {
        MstVerificationScheme
    }

    /// Runs the marker on a correct instance.
    ///
    /// # Errors
    ///
    /// Returns a [`MarkError`] if the instance's candidate subgraph is not an
    /// MST.
    pub fn mark(
        &self,
        instance: &Instance,
    ) -> Result<(Vec<CoreLabel>, ConstructionReport), MarkError> {
        Marker.label(instance)
    }

    /// Builds the verifier program for an instance and a label assignment
    /// (the labels may come from the marker or from an adversary).
    pub fn verifier(&self, instance: &Instance, labels: Vec<CoreLabel>) -> CoreVerifier {
        CoreVerifier::new(instance.graph.clone(), instance.components.clone(), labels)
    }

    /// A generous synchronous detection-time budget, polylogarithmic in `n`
    /// (used as the time-out of the experiment drivers).
    pub fn sync_budget(n: usize) -> usize {
        let log_n = (n.max(2) as f64).log2().ceil() as usize;
        800 * log_n.pow(3) + 800
    }

    /// An asynchronous detection-time budget (time units).
    pub fn async_budget(n: usize, max_degree: usize) -> usize {
        Self::sync_budget(n) * (max_degree.max(1)) / 2 + 200
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{corrupt, FaultKind};
    use smst_graph::generators::random_connected_graph;
    use smst_graph::mst::kruskal;
    use smst_graph::NodeId;
    use smst_sim::{DetectionReport, FaultPlan, SyncRunner};

    fn mst_instance(n: usize, m: usize, seed: u64) -> Instance {
        let g = random_connected_graph(n, m, seed);
        let tree = kruskal(&g).rooted_at(&g, NodeId(0)).unwrap();
        Instance::from_tree(g, &tree)
    }

    /// Marks `inst`, warms the sequential verifier for one budget, corrupts
    /// the planned nodes with `kind` and runs until the first alarm (at most
    /// four budgets).
    fn detect_injected_faults(
        inst: &Instance,
        plan: &FaultPlan,
        kind: FaultKind,
        seed: u64,
    ) -> DetectionReport {
        let scheme = MstVerificationScheme::new();
        let (labels, _) = scheme.mark(inst).unwrap();
        let verifier = scheme.verifier(inst, labels);
        let budget = MstVerificationScheme::sync_budget(inst.node_count());
        let mut runner = SyncRunner::new(&verifier, verifier.network());
        runner.run_rounds(budget);
        assert!(runner.network().alarming_nodes(&verifier).is_empty());
        let mut i = 0u64;
        plan.apply(runner.network_mut(), |_v, s| {
            corrupt(s, kind, seed.wrapping_add(i));
            i += 1;
        });
        match runner.run_until_alarm(4 * budget) {
            Some(t) => DetectionReport::from_alarms(
                &inst.graph,
                t,
                runner.network().alarming_nodes(&verifier),
                plan.nodes(),
            ),
            None => DetectionReport::not_detected(),
        }
    }

    #[test]
    fn sp_distance_fault_is_detected_quickly_and_locally() {
        let inst = mst_instance(20, 50, 3);
        let plan = FaultPlan::single(NodeId(7));
        let report = detect_injected_faults(&inst, &plan, FaultKind::SpDistance, 1);
        assert!(report.detected);
        // a structural (1-round checkable) fault is caught within one round
        // at distance at most 1
        assert!(report.detection_time.unwrap() <= 2);
        assert!(report.max_detection_distance <= 1);
    }

    #[test]
    fn stored_piece_fault_is_detected() {
        let inst = mst_instance(24, 60, 4);
        let plan = FaultPlan::single(NodeId(5));
        let report = detect_injected_faults(&inst, &plan, FaultKind::StoredPieceWeight, 2);
        assert!(report.detected, "a corrupted piece weight must be detected");
    }

    #[test]
    fn train_buffer_scrambling_is_tolerated() {
        // the dynamic train state is self-healing: scrambling it must not
        // produce a *permanent* rejection, and the network must return to
        // all-accept
        let inst = mst_instance(16, 40, 5);
        let scheme = MstVerificationScheme::new();
        let (labels, _) = scheme.mark(&inst).unwrap();
        let verifier = scheme.verifier(&inst, labels);
        let budget = MstVerificationScheme::sync_budget(16);
        let net = verifier.network();
        let mut runner = SyncRunner::new(&verifier, net);
        runner.run_rounds(budget);
        let plan = FaultPlan::random(16, 3, 9);
        let mut i = 0;
        plan.apply(runner.network_mut(), |_v, s| {
            corrupt(s, FaultKind::TrainBuffers, 100 + i);
            i += 1;
        });
        runner.run_rounds(2 * budget);
        assert!(
            runner.network().alarming_nodes(&verifier).is_empty(),
            "scrambled train buffers must heal without a permanent alarm"
        );
    }
}
