//! The paper's detection-time, detection-locality, construction and memory
//! figures, one driver each, driven through [`ScenarioSpec`].
//!
//! Each sweep describes its experiment declaratively (graph family × fault
//! burst × stop condition) and executes it on whatever path its
//! [`EngineConfig`] describes: [`EngineConfig::reference()`] runs the
//! sequential simulator, the sharded envelopes regenerate the figures at
//! 100k+ nodes on a multi-core host. Every point is a pure function of
//! `(n, seed)`; backend, thread count and layout never change the numbers
//! — the tests below pin each sharded envelope to `reference()`.

use smst_core::faults::{corrupt, FaultKind};
use smst_core::{CoreVerifier, Marker, MstVerificationScheme};
use smst_engine::{EngineConfig, GraphFamily, PoolHandle, ScenarioSpec, StopCondition};
use smst_graph::mst::kruskal;
use smst_graph::{NodeId, WeightedGraph};
use smst_labeling::kkp::KkpMstScheme;
use smst_labeling::scheme::max_label_bits;
use smst_labeling::{Instance, OneRoundScheme};
use smst_sim::DetectionReport;

/// The figure bins' env-gated size escape hatch: `$SMST_FIG_N` (a node
/// count) extends the engine-native figures beyond their small defaults —
/// the sweeps double from 128 up to the requested size, so a multi-core
/// host regenerates the figures at 100k+ nodes while CI and the default
/// invocation stay fast.
pub fn fig_size_override() -> Option<usize> {
    std::env::var("SMST_FIG_N").ok()?.parse().ok()
}

/// The sizes a figure bin should sweep: its small defaults, extended by
/// doubling up to [`fig_size_override`] when `$SMST_FIG_N` is set.
pub fn fig_sizes(defaults: &[usize]) -> Vec<usize> {
    let mut sizes: Vec<usize> = defaults.to_vec();
    if let Some(target) = fig_size_override() {
        let mut n = 128usize;
        while n < target {
            if !sizes.contains(&n) {
                sizes.push(n);
            }
            n *= 2;
        }
        if !sizes.contains(&target) {
            sizes.push(target);
        }
    }
    sizes.sort_unstable();
    sizes
}

/// The graph family the sweeps run on: the random connected family with
/// the throughput-relevant density `m = 3n` (the graph of
/// [`mst_instance`](crate::mst_instance)`(n, 3n, seed)`).
fn sweep_family(n: usize) -> GraphFamily {
    GraphFamily::RandomConnected { n, m: 3 * n }
}

/// The correct MST instance of a scenario graph (Kruskal's tree, rooted at
/// node 0).
fn kruskal_instance(graph: &WeightedGraph) -> Instance {
    let tree = kruskal(graph)
        .rooted_at(graph, NodeId(0))
        .expect("scenario graphs are connected");
    Instance::from_tree(graph.clone(), &tree)
}

/// Builds the paper's verifier for the scenario's graph: MST via Kruskal,
/// marker labels, verifier over the labelled instance. Public because the
/// adversary campaign engine builds the same workload for its trials.
pub fn mst_verifier_for(graph: &WeightedGraph) -> CoreVerifier {
    let instance = kruskal_instance(graph);
    let scheme = MstVerificationScheme::new();
    let (labels, _) = scheme
        .mark(&instance)
        .expect("a Kruskal tree is a correct MST instance");
    scheme.verifier(&instance, labels)
}

/// The fault experiment behind the detection and locality figures: warm
/// the verifier up on the sweep graph of `n` nodes for the synchronous
/// budget, corrupt `faults` registers chosen by `burst_seed` with `kind`
/// (corruption seeds `seed`, `seed + 1`, …), and run to the first alarm.
/// Returns the graph's maximum degree and the detection report.
fn burst_detection(
    n: usize,
    seed: u64,
    engine: &EngineConfig,
    faults: usize,
    burst_seed: u64,
    kind: FaultKind,
) -> (usize, DetectionReport) {
    let warmup = MstVerificationScheme::sync_budget(n);
    let budget = warmup + 4 * MstVerificationScheme::sync_budget(n) + 1;
    let spec = ScenarioSpec::new(sweep_family(n))
        .engine(engine.clone())
        .seed(seed)
        .fault_burst(warmup, faults, burst_seed)
        .until(StopCondition::FirstAlarm);
    let mut i = 0u64;
    let (outcome, _verifier) = spec.run_with(
        mst_verifier_for,
        |_v, state| {
            corrupt(state, kind, seed.wrapping_add(i));
            i += 1;
        },
        budget,
    );
    let graph = outcome.network.graph();
    let report = match outcome.report.first_alarm {
        Some(t) => DetectionReport::from_alarms(
            graph,
            t,
            outcome.report.alarm_nodes,
            &outcome.report.injected_nodes,
        ),
        None => DetectionReport::not_detected(),
    };
    (graph.max_degree(), report)
}

/// One point of the detection figure.
#[derive(Debug, Clone)]
pub struct EngineDetectionPoint {
    /// Number of nodes.
    pub n: usize,
    /// Maximum degree of the graph.
    pub max_degree: usize,
    /// Steps from fault injection to the first alarm (`None`: not detected
    /// within the budget).
    pub detection_steps: Option<usize>,
    /// Hop distance from the fault to the closest alarming node.
    pub detection_distance: usize,
    /// Worker threads the sweep ran with.
    pub threads: usize,
}

/// The detection sweep: warm the verifier up on a correct,
/// marker-labelled instance, hit one random register with a stored-piece
/// fault (a [`FaultBurst`](smst_engine::FaultBurst) at the warm-up
/// boundary), and measure synchronous detection time and distance — all
/// through one declarative [`ScenarioSpec`] per size, executed on
/// whatever path the [`EngineConfig`] envelope describes.
pub fn engine_detection_sweep(
    sizes: &[usize],
    seed: u64,
    engine: &EngineConfig,
) -> Vec<EngineDetectionPoint> {
    let threads = engine.threads;
    sizes
        .iter()
        .map(|&n| {
            let (max_degree, report) =
                burst_detection(n, seed, engine, 1, seed, FaultKind::StoredPieceWeight);
            EngineDetectionPoint {
                n,
                max_degree,
                detection_steps: report.detection_time,
                detection_distance: report.max_detection_distance,
                threads,
            }
        })
        .collect()
}

/// One point of the detection-locality figure.
#[derive(Debug, Clone)]
pub struct EngineLocalityPoint {
    /// Number of injected faults `f`.
    pub faults: usize,
    /// Number of nodes.
    pub n: usize,
    /// Maximum hop distance from a fault to the closest alarming node.
    pub max_detection_distance: usize,
    /// Steps from injection to the first alarm (`None`: not detected).
    pub detection_steps: Option<usize>,
    /// Worker threads the sweep ran with.
    pub threads: usize,
}

/// The detection-locality sweep (`O(f log n)` detection distance): inject
/// `f` SP-distance faults (plan seed `seed + f`) at the warm-up boundary
/// and measure the maximum distance from a fault to the closest alarming
/// node, on whatever path the [`EngineConfig`] envelope describes.
pub fn engine_locality_sweep(
    n: usize,
    fault_counts: &[usize],
    seed: u64,
    engine: &EngineConfig,
) -> Vec<EngineLocalityPoint> {
    let threads = engine.threads;
    fault_counts
        .iter()
        .map(|&f| {
            let (_, report) = burst_detection(
                n,
                seed,
                engine,
                f.min(n),
                seed + f as u64,
                FaultKind::SpDistance,
            );
            EngineLocalityPoint {
                faults: f,
                n,
                max_detection_distance: report.max_detection_distance,
                detection_steps: report.detection_time,
                threads,
            }
        })
        .collect()
}

/// One point of the construction figure.
#[derive(Debug, Clone)]
pub struct EngineConstructionPoint {
    /// Number of nodes.
    pub n: usize,
    /// SYNC_MST rounds (Theorem 4.4: `O(n)`).
    pub sync_mst_rounds: u64,
    /// Marker rounds (label assignment, `O(n)`).
    pub marker_rounds: u64,
    /// `total / n` — roughly constant when the construction is linear.
    pub rounds_per_node: f64,
}

/// The construction sweep: SYNC_MST + marker rounds per size, instances
/// built through the [`GraphFamily`] scheme the scenario engine uses and
/// the sizes fanned out across the persistent worker pool — the
/// construction itself is the centralized reference algorithm, so the pool
/// parallelism is across instances, not rounds (only the envelope's thread
/// count is consulted).
pub fn engine_construction_sweep(
    sizes: &[usize],
    seed: u64,
    engine: &EngineConfig,
) -> Vec<EngineConstructionPoint> {
    let threads = engine.threads;
    let measure = |n: usize| {
        let graph = ScenarioSpec::new(sweep_family(n)).seed(seed).build_graph();
        let instance = kruskal_instance(&graph);
        let (_, report) = Marker.label(&instance).expect("correct instance");
        EngineConstructionPoint {
            n,
            sync_mst_rounds: report.construction_rounds,
            marker_rounds: report.marker_rounds,
            rounds_per_node: report.total_rounds() as f64 / n as f64,
        }
    };
    PoolHandle::for_threads(threads.max(1)).map_indexed(sizes, |_i, &n| measure(n))
}

/// One point of the memory figure.
#[derive(Debug, Clone)]
pub struct EngineMemoryPoint {
    /// Number of nodes.
    pub n: usize,
    /// Steps executed before measuring (0 = the freshly marked
    /// configuration).
    pub steps: usize,
    /// Maximum register bits of the paper's scheme (label + verifier
    /// state).
    pub max_bits: u64,
    /// Mean register bits across the network.
    pub mean_bits: f64,
    /// `max_bits / log₂ n` — bounded for the paper's scheme.
    pub words: f64,
    /// Maximum label bits of the `O(log² n)` 1-round (KKP) baseline on the
    /// same graph.
    pub one_round_bits: u64,
    /// `one_round_bits / log₂ n` — grows like `log n` for the baseline.
    pub one_round_words: f64,
}

/// The memory sweep: run the verifier fault-free for `steps` synchronous
/// steps and measure its per-node register bits, next to the label bits of
/// the 1-round baseline on the same graph. With `steps == 0` it measures
/// the freshly marked configuration; with a warm-up budget, the registers
/// the verifier actually carries in steady state (trains, comparison
/// machinery included).
pub fn engine_memory_sweep(
    sizes: &[usize],
    seed: u64,
    engine: &EngineConfig,
    steps: usize,
) -> Vec<EngineMemoryPoint> {
    sizes
        .iter()
        .map(|&n| {
            let spec = ScenarioSpec::new(sweep_family(n))
                .engine(engine.clone())
                .seed(seed)
                .until(StopCondition::Steps);
            let (outcome, verifier) = spec.run_with(mst_verifier_for, |_v, _s| {}, steps);
            assert!(
                outcome.report.alarm_nodes.is_empty(),
                "a correct instance must not raise alarms"
            );
            let bits = outcome.network.memory_bits(&verifier);
            let max_bits = bits.iter().copied().max().unwrap_or(0);
            let mean_bits = if bits.is_empty() {
                0.0
            } else {
                bits.iter().copied().sum::<u64>() as f64 / bits.len() as f64
            };
            let instance = kruskal_instance(outcome.network.graph());
            let kkp_labels = KkpMstScheme.mark(&instance).expect("correct instance");
            let one_round_bits = max_label_bits(&KkpMstScheme, &instance, &kkp_labels);
            let log_n = (n.max(2) as f64).log2();
            EngineMemoryPoint {
                n,
                steps,
                max_bits,
                mean_bits,
                words: max_bits as f64 / log_n,
                one_round_bits,
                one_round_words: one_round_bits as f64 / log_n,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smst_engine::adapters::run_engine_fault_experiment;
    use smst_engine::LayoutPolicy;
    use smst_sim::FaultPlan;

    #[test]
    fn engine_detection_sweep_equals_the_sequential_experiment() {
        // same graph (family + seed), same fault plan, same per-fault
        // corruption seeds: the sharded sweep point must equal the fault
        // experiment on the sequential reference runner exactly
        let (n, seed) = (16usize, 3u64);
        let engine = EngineConfig::new().threads(2).layout(LayoutPolicy::Rcm);
        let point = engine_detection_sweep(&[n], seed, &engine).pop().unwrap();
        let inst = crate::mst_instance(n, 3 * n, seed);
        let plan = FaultPlan::random(n, 1, seed);
        let seq = run_engine_fault_experiment(
            &inst,
            &plan,
            FaultKind::StoredPieceWeight,
            seed,
            &EngineConfig::reference(),
        )
        .expect("valid envelope");
        assert_eq!(point.detection_steps, seq.report.detection_time);
        assert_eq!(point.detection_distance, seq.report.max_detection_distance);
        assert_eq!(point.max_degree, inst.graph.max_degree());
    }

    #[test]
    fn engine_detection_sweep_is_envelope_invariant() {
        let (n, seed) = (16usize, 5u64);
        let a = engine_detection_sweep(&[n], seed, &EngineConfig::new());
        let b = engine_detection_sweep(
            &[n],
            seed,
            &EngineConfig::new()
                .threads(4)
                .layout(LayoutPolicy::Rcm)
                .halo(true),
        );
        let c = engine_detection_sweep(&[n], seed, &EngineConfig::reference());
        assert_eq!(a[0].detection_steps, b[0].detection_steps);
        assert_eq!(a[0].detection_distance, b[0].detection_distance);
        assert_eq!(a[0].detection_steps, c[0].detection_steps);
        assert_eq!(a[0].detection_distance, c[0].detection_distance);
    }

    #[test]
    fn engine_locality_sweep_equals_the_sequential_driver() {
        // same graph, plan seed (seed + f) and corruption seeds: the
        // sharded locality point must equal the sequential reference
        // runner's, for every f
        let (n, seed) = (16usize, 7u64);
        let engine = EngineConfig::new().threads(2).layout(LayoutPolicy::Rcm);
        for f in [1usize, 3] {
            let point = engine_locality_sweep(n, &[f], seed, &engine).pop().unwrap();
            let seq = engine_locality_sweep(n, &[f], seed, &EngineConfig::reference())
                .pop()
                .unwrap();
            assert_eq!(point.max_detection_distance, seq.max_detection_distance);
            assert_eq!(point.detection_steps, seq.detection_steps);
            assert_eq!(point.faults, seq.faults);
        }
    }

    #[test]
    fn engine_locality_sweep_is_envelope_invariant() {
        let (n, seed) = (16usize, 9u64);
        let a = engine_locality_sweep(n, &[2], seed, &EngineConfig::new());
        let b = engine_locality_sweep(
            n,
            &[2],
            seed,
            &EngineConfig::new().threads(4).layout(LayoutPolicy::Rcm),
        );
        assert_eq!(a[0].max_detection_distance, b[0].max_detection_distance);
        assert_eq!(a[0].detection_steps, b[0].detection_steps);
    }

    #[test]
    fn engine_construction_sweep_equals_the_sequential_driver() {
        // the scenario family builds the graph of `mst_instance(n, 3n,
        // seed)`, and the thread fan-out never changes a point
        let sizes = [24usize, 40];
        for threads in [1usize, 3] {
            let engine =
                engine_construction_sweep(&sizes, 4, &EngineConfig::new().threads(threads));
            assert_eq!(engine.len(), sizes.len());
            for (e, &n) in engine.iter().zip(&sizes) {
                let (_, report) = Marker.label(&crate::mst_instance(n, 3 * n, 4)).unwrap();
                assert_eq!(e.n, n, "threads {threads}");
                assert_eq!(
                    e.sync_mst_rounds, report.construction_rounds,
                    "threads {threads}"
                );
                assert_eq!(e.marker_rounds, report.marker_rounds, "threads {threads}");
            }
        }
    }

    #[test]
    fn fig_sizes_honours_defaults_without_the_env_gate() {
        // the env var is absent in the test environment; the defaults pass
        // through unchanged (sorted)
        if std::env::var_os("SMST_FIG_N").is_none() {
            assert_eq!(fig_sizes(&[16, 24, 32]), vec![16, 24, 32]);
        }
    }

    #[test]
    fn engine_memory_sweep_matches_the_sequential_figure() {
        // steps == 0 measures the freshly marked configuration: the
        // sharded point must equal the sequential reference runner's, and
        // the paper's bits must be the verifier's registers on the marker
        // labels of `mst_instance(n, 3n, seed)`
        let seq = engine_memory_sweep(&[32], 3, &EngineConfig::reference(), 0);
        let engine = engine_memory_sweep(&[32], 3, &EngineConfig::new().threads(2), 0);
        assert_eq!(engine[0].max_bits, seq[0].max_bits);
        assert_eq!(engine[0].one_round_bits, seq[0].one_round_bits);
        let inst = crate::mst_instance(32, 96, 3);
        let verifier = mst_verifier_for(&inst.graph);
        let bits = verifier.network().memory_bits(&verifier);
        assert_eq!(seq[0].max_bits, bits.into_iter().max().unwrap());
    }
}
