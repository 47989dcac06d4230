//! Adapters: the paper's verifier and the self-stabilizing transformer on
//! the engine.
//!
//! [`smst_core::CoreVerifier`] already implements
//! [`NodeProgram`], so the engine runs it *unchanged*
//! — these are **the** verifier experiment drivers, run on whatever
//! execution path an [`EngineConfig`] describes.
//! [`EngineConfig::reference()`] is the sequential case: it drives the
//! simulator's `SyncRunner` / `AsyncRunner`, which stay the oracle every
//! sharded envelope is pinned against.
//!
//! There is a **single** fault-experiment driver,
//! [`run_engine_fault_experiment`]: the synchronous and asynchronous
//! variants differ only in the envelope's [`Mode`](crate::config::Mode)
//! (and hence in the warm-up budget), not in code path.
//!
//! Because the engine's rounds are bit-for-bit identical to the sequential
//! ones, every number these functions return (warm-up rounds, detection
//! times, alarming nodes, memory) is the same on every envelope; the
//! adapter tests pin each sharded envelope to `reference()`.

use crate::config::{ConfigError, EngineConfig};
use crate::runner::{Runner, StopCondition};
use smst_core::faults::{corrupt, FaultKind};
use smst_core::{CoreLabel, CoreVerifier, MstVerificationScheme};
use smst_graph::{ComponentMap, NodeId, WeightedGraph};
use smst_labeling::Instance;
use smst_selfstab::baselines::{stale_labels_detection, DetectionCost};
use smst_selfstab::{SelfStabilizingMst, StabilizationOutcome, Variant};
use smst_sim::{DetectionReport, FaultPlan, MemoryUsage, NodeProgram};

/// The outcome of one fault-detection experiment.
#[derive(Debug, Clone)]
pub struct FaultExperimentOutcome {
    /// Rounds (time units, for asynchronous envelopes) the verifier ran
    /// before the faults were injected.
    pub warmup_rounds: usize,
    /// The detection report (time, alarming nodes, distances).
    pub report: DetectionReport,
    /// Memory usage of the verifier's registers at injection time.
    pub memory: MemoryUsage,
}

/// Per-node register sizes of a run, as reported by the program.
fn memory_bits(runner: &dyn Runner<CoreVerifier>, verifier: &CoreVerifier, n: usize) -> Vec<u64> {
    (0..n)
        .map(|v| verifier.state_bits(&runner.context(NodeId(v)), runner.state(NodeId(v))))
        .collect()
}

/// **The** engine fault experiment: warm the paper's verifier up on a
/// correct, marker-labelled instance, inject the planned faults, and
/// measure detection — on whatever execution path `engine` describes
/// (sequential reference, sharded synchronous with any layout/halo/pinning,
/// or any batch daemon). The warm-up budget is the scheme's synchronous
/// budget for synchronous envelopes and its asynchronous budget otherwise.
///
/// # Panics
///
/// Panics if the instance is not a correct MST instance (the experiment's
/// precondition); invalid envelopes return [`ConfigError`] instead.
pub fn run_engine_fault_experiment(
    instance: &Instance,
    plan: &FaultPlan,
    kind: FaultKind,
    seed: u64,
    engine: &EngineConfig,
) -> Result<FaultExperimentOutcome, ConfigError> {
    engine.validate()?;
    let scheme = MstVerificationScheme::new();
    let (labels, _) = scheme
        .mark(instance)
        .expect("fault experiments start from a correct instance");
    let verifier = scheme.verifier(instance, labels);
    let n = instance.node_count();
    let budget = if engine.mode.is_async() {
        MstVerificationScheme::async_budget(n, instance.graph.max_degree())
    } else {
        MstVerificationScheme::sync_budget(n)
    };

    let mut runner = engine.instantiate(&verifier, instance.graph.clone())?;
    runner.run_until(StopCondition::Steps, budget);
    let warmup_rounds = runner.steps();
    assert!(
        !runner.any_alarm(),
        "a correct instance must not raise alarms during warm-up"
    );
    let memory = MemoryUsage::from_bits(memory_bits(runner.as_ref(), &verifier, n));

    let mut i = 0u64;
    runner.apply_faults(plan, &mut |_v, state| {
        corrupt(state, kind, seed.wrapping_add(i));
        i += 1;
    });

    let report = match runner.run_until(StopCondition::FirstAlarm, 4 * budget) {
        Some(t) => {
            DetectionReport::from_alarms(&instance.graph, t, runner.alarming_nodes(), plan.nodes())
        }
        None => DetectionReport::not_detected(),
    };
    Ok(FaultExperimentOutcome {
        warmup_rounds,
        report,
        memory,
    })
}

/// Runs the verifier on a (non-MST) instance with the given labels (from an
/// adversary or a stale marker) until the first alarm, on whatever
/// execution path `engine` describes, and returns the number of rounds
/// until that alarm (`None`: none within `max_rounds`).
pub fn rounds_until_rejection_engine(
    instance: &Instance,
    labels: Vec<CoreLabel>,
    max_rounds: usize,
    engine: &EngineConfig,
) -> Result<Option<usize>, ConfigError> {
    let verifier = MstVerificationScheme::new().verifier(instance, labels);
    let mut runner = engine.instantiate(&verifier, instance.graph.clone())?;
    Ok(runner.run_until(StopCondition::FirstAlarm, max_rounds))
}

/// One stabilization episode of the transformer with its **detection phase
/// executed on the engine** (the construction and marking phases are the
/// centralized reference algorithms, exactly as in
/// [`smst_selfstab::SelfStabilizingMst::stabilize`]).
///
/// Only [`Variant::Paper`] has a per-round distributed verifier to
/// parallelize; the baseline variants fall back to the sequential
/// transformer unchanged.
pub fn stabilize_with_engine(
    variant: Variant,
    graph: &WeightedGraph,
    initial_components: &ComponentMap,
    engine: &EngineConfig,
) -> Result<StabilizationOutcome, ConfigError> {
    engine.validate()?;
    let transformer = SelfStabilizingMst::new(variant);
    if variant != Variant::Paper {
        return Ok(transformer.stabilize(graph, initial_components));
    }
    let instance = Instance::new(graph.clone(), initial_components.clone());
    let already_correct = instance.satisfies_mst();

    // 1. detection: the transformer's stale-labels protocol, executed by
    //    whatever runner the envelope describes
    let detection = if already_correct {
        DetectionCost {
            rounds: 0,
            detected: false,
        }
    } else {
        stale_labels_detection(&instance, |labels, budget| {
            rounds_until_rejection_engine(&instance, labels, budget, engine)
        })?
    };

    // 2.–4. reset, reconstruction, memory and correctness accounting: the
    // transformer's own episode completion, shared with the sequential path
    Ok(transformer.complete_episode(graph, initial_components, already_correct, detection))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LayoutPolicy;
    use smst_graph::generators::random_connected_graph;
    use smst_graph::mst::kruskal;
    use smst_selfstab::transformer::garbage_components;
    use smst_selfstab::SelfStabilizingMst;
    use smst_sim::Daemon;

    fn mst_instance(n: usize, m: usize, seed: u64) -> Instance {
        let g = random_connected_graph(n, m, seed);
        let tree = kruskal(&g).rooted_at(&g, NodeId(0)).unwrap();
        Instance::from_tree(g, &tree)
    }

    /// The sharded envelopes every reference run is pinned against.
    fn sharded_envelopes() -> [EngineConfig; 3] {
        [
            EngineConfig::new().threads(4),
            EngineConfig::new().threads(4).layout(LayoutPolicy::Rcm),
            EngineConfig::new()
                .threads(4)
                .layout(LayoutPolicy::Rcm)
                .halo(true),
        ]
    }

    #[test]
    fn engine_fault_experiment_equals_sequential_on_every_path() {
        // (graph, faulty node, fault kind, corruption seed); the first case
        // is pinned on every sharded envelope, the others (debug-mode
        // warm-ups are slow) on the fullest one
        let cases = [
            ((16, 40, 3), 7, FaultKind::SpDistance, 1),
            ((20, 50, 3), 7, FaultKind::SpDistance, 1),
            ((24, 60, 4), 5, FaultKind::StoredPieceWeight, 2),
        ];
        let envelopes = sharded_envelopes();
        for (i, ((n, m, graph_seed), node, kind, seed)) in cases.into_iter().enumerate() {
            let inst = mst_instance(n, m, graph_seed);
            let plan = FaultPlan::single(NodeId(node));
            let reference =
                run_engine_fault_experiment(&inst, &plan, kind, seed, &EngineConfig::reference())
                    .expect("valid envelope");
            assert!(reference.report.detected, "{kind:?} on n = {n}");
            if kind == FaultKind::SpDistance {
                // a structural (1-round checkable) fault is caught within
                // two rounds, at distance at most 1
                assert!(reference.report.detection_time.unwrap() <= 2, "n = {n}");
                assert!(reference.report.max_detection_distance <= 1, "n = {n}");
            }
            let pinned = if i == 0 {
                &envelopes[..]
            } else {
                &envelopes[2..]
            };
            for engine in pinned {
                let label = format!("{kind:?} on n = {n}, {}", engine.describe());
                let par = run_engine_fault_experiment(&inst, &plan, kind, seed, engine)
                    .expect("valid envelope");
                assert_eq!(par.warmup_rounds, reference.warmup_rounds, "{label}");
                assert_eq!(par.report.detected, reference.report.detected, "{label}");
                assert_eq!(
                    par.report.detection_time, reference.report.detection_time,
                    "{label}"
                );
                assert_eq!(
                    par.report.alarm_nodes, reference.report.alarm_nodes,
                    "{label}"
                );
                assert_eq!(
                    par.memory.max_bits(),
                    reference.memory.max_bits(),
                    "{label}"
                );
            }
        }
    }

    #[test]
    fn non_mst_candidate_is_rejected_on_every_path() {
        // swap a tree edge for a heavier non-tree edge and keep the stale
        // labels of the correct MST
        let g = random_connected_graph(14, 40, 6);
        let mst = kruskal(&g);
        let mst_edges = mst.edges();
        let correct = mst_instance(14, 40, 6);
        let (labels, _) = MstVerificationScheme::new().mark(&correct).unwrap();
        let bad = g
            .edge_entries()
            .map(|(e, _)| e)
            .filter(|e| !mst.contains(*e))
            .flat_map(|extra| {
                (0..mst_edges.len()).map(move |i| {
                    let mut edges = mst_edges.to_vec();
                    edges[i] = extra;
                    edges
                })
            })
            .filter_map(|edges| smst_graph::RootedTree::from_edges(&g, &edges, NodeId(0)).ok())
            .map(|t| Instance::from_tree(g.clone(), &t))
            .find(|candidate| !candidate.satisfies_mst())
            .expect("a spanning non-MST tree exists");
        let budget = 8 * MstVerificationScheme::sync_budget(14);
        let reference =
            rounds_until_rejection_engine(&bad, labels.clone(), budget, &EngineConfig::reference())
                .expect("valid envelope");
        assert!(reference.is_some(), "a non-MST candidate must be rejected");
        for engine in sharded_envelopes() {
            let par = rounds_until_rejection_engine(&bad, labels.clone(), budget, &engine)
                .expect("valid envelope");
            assert_eq!(par, reference, "{}", engine.describe());
        }
    }

    #[test]
    fn invalid_envelope_is_an_error_not_a_panic() {
        let inst = mst_instance(12, 30, 2);
        let plan = FaultPlan::single(NodeId(3));
        let err = run_engine_fault_experiment(
            &inst,
            &plan,
            FaultKind::SpDistance,
            1,
            &EngineConfig::new().threads(0),
        )
        .expect_err("zero threads must be rejected");
        assert_eq!(err, ConfigError::ZeroThreads);
    }

    #[test]
    fn transformer_stabilizes_on_the_engine_and_matches_sequential() {
        let g = random_connected_graph(18, 45, 5);
        let components = garbage_components(&g, 7);
        let seq = SelfStabilizingMst::new(Variant::Paper).stabilize(&g, &components);
        let par = stabilize_with_engine(
            Variant::Paper,
            &g,
            &components,
            &EngineConfig::new().threads(3),
        )
        .expect("valid envelope");
        assert!(par.output_correct);
        assert_eq!(par.detection_rounds, seq.detection_rounds);
        assert_eq!(par.construction_rounds, seq.construction_rounds);
        assert_eq!(par.memory_bits_per_node, seq.memory_bits_per_node);
    }

    #[test]
    fn baseline_variants_fall_back_to_the_sequential_transformer() {
        let g = random_connected_graph(14, 35, 2);
        let components = garbage_components(&g, 4);
        let outcome = stabilize_with_engine(
            Variant::Recompute,
            &g,
            &components,
            &EngineConfig::new().threads(2),
        )
        .expect("valid envelope");
        assert!(outcome.output_correct);
    }

    #[test]
    fn async_envelope_detects_injected_faults() {
        // path graph: Δ = 2 keeps the async warm-up budget small
        let g = smst_graph::generators::path_graph(8, 9);
        let tree = kruskal(&g).rooted_at(&g, NodeId(0)).unwrap();
        let inst = Instance::from_tree(g, &tree);
        let plan = FaultPlan::single(NodeId(5));
        let outcome = run_engine_fault_experiment(
            &inst,
            &plan,
            FaultKind::SpDistance,
            2,
            &EngineConfig::new()
                .threads(2)
                .asynchronous(Daemon::RoundRobin, 4),
        )
        .expect("valid envelope");
        assert!(outcome.report.detected);
    }
}
