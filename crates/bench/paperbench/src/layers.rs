//! What every workload shares: the seeded inputs, the construction pass,
//! the warm-up, and the probes and per-layer metrics of the traced run.

use crate::report::{metric, Metric, Outcome};
use crate::trace::Tracer;
use smst_core::faults::{corrupt, FaultKind};
use smst_core::partition::build_partitions;
use smst_core::strings::build_strings;
use smst_core::{CoreLabel, CoreState, CoreVerifier, Marker, MstVerificationScheme, SyncMst};
use smst_engine::adapters::rounds_until_rejection_engine;
use smst_engine::{EngineConfig, LayoutPolicy, Runner};
use smst_graph::generators::random_connected_graph;
use smst_graph::mst::kruskal;
use smst_graph::{NodeId, WeightedGraph};
use smst_labeling::Instance;
use smst_rng::{Rng, SeedableRng, StdRng};
use smst_selfstab::baselines::{verification_memory_bits, DetectionCost};
use smst_selfstab::transformer::garbage_components;
use smst_selfstab::{SelfStabilizingMst, Variant};
use smst_sim::observer::RecordingObserver;
use smst_sim::{DetectionReport, FaultPlan, NodeContext, NodeProgram};
use std::hint::black_box;
use std::time::Instant;

/// The verifier runner every workload drives.
pub type VerifierRunner<'v> = Box<dyn Runner<CoreVerifier> + 'v>;

/// The run's settings, as parsed from the command line.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub threads: usize,
    /// Smoke sizes: small graphs and few ops, for the benchmark's tests.
    pub smoke: bool,
    pub tr: Tracer,
}

impl Ctx {
    /// The synchronous sharded envelope: `threads` workers, RCM layout,
    /// no halo exchange.
    pub fn engine(&self) -> EngineConfig {
        EngineConfig::new()
            .threads(self.threads)
            .layout(LayoutPolicy::Rcm)
    }

    /// `full` nodes, or `smoke` nodes in a smoke run.
    pub fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// The workload's inputs, all drawn from `smst-rng` streams of the seed
/// argument: the graph seed, and a stream for per-op choices (fault nodes,
/// fault seeds, garbage configurations).
pub struct Streams {
    pub graph_seed: u64,
    pub ops: StdRng,
    pub probes: StdRng,
}

impl Streams {
    pub fn new(seed: u64) -> Self {
        let mut root = StdRng::seed_from_u64(seed);
        Streams {
            graph_seed: root.gen(),
            ops: StdRng::seed_from_u64(root.gen()),
            probes: StdRng::seed_from_u64(root.gen()),
        }
    }
}

/// The graph of every workload: `random_connected_graph(n, 1.5n)`.
pub fn graph(n: usize, seed: u64, tr: &mut Tracer) -> WeightedGraph {
    tr.time("graph.generate", || {
        random_connected_graph(n, n * 3 / 2, seed)
    })
}

/// A correct instance, its labels and its verifier.
pub struct Built {
    pub instance: Instance,
    pub verifier: CoreVerifier,
    /// The marker's labels, kept for the probes of the traced run only.
    pub labels: Option<Vec<CoreLabel>>,
}

/// Kruskal's MST rooted at node 0, as the candidate of a correct instance.
pub fn mst_instance(graph: &WeightedGraph, tr: &mut Tracer) -> Instance {
    let tree = tr
        .time("graph.kruskal", || {
            kruskal(graph).rooted_at(graph, NodeId(0))
        })
        .expect("random_connected_graph is connected");
    Instance::from_tree(graph.clone(), &tree)
}

/// Graph, MST, marker and verifier. When tracing, the marker's four main
/// calls are also made one by one, so that the marker's own share (the
/// per-node label assembly) is its time minus theirs.
pub fn build(n: usize, graph_seed: u64, tr: &mut Tracer) -> Built {
    let g = graph(n, graph_seed, tr);
    let instance = mst_instance(&g, tr);
    if tr.is_on() {
        let ok = tr.time("labeling.satisfies_mst", || instance.satisfies_mst());
        assert!(ok, "kruskal's tree is an MST");
        let tree = instance.candidate_tree().expect("a spanning tree");
        let outcome = tr.time("sync_mst.run", || SyncMst.run_for_candidate(&g, &tree));
        tr.count("sync_mst.rounds", outcome.rounds);
        tr.time("strings.build", || {
            black_box(build_strings(&g, &outcome.tree, &outcome.hierarchy))
        });
        tr.time("partition.build", || {
            black_box(build_partitions(&g, &outcome.tree, &outcome.hierarchy))
        });
    }
    let (labels, _) = tr
        .time("marker.label", || Marker.label(&instance))
        .expect("kruskal's tree is an MST");
    let kept = tr.is_on().then(|| labels.clone());
    let verifier = CoreVerifier::new(instance.graph.clone(), instance.components.clone(), labels);
    Built {
        instance,
        verifier,
        labels: kept,
    }
}

pub fn instantiate<'v>(ctx: &mut Ctx, built: &'v Built) -> VerifierRunner<'v> {
    let engine = ctx.engine();
    ctx.tr
        .time("engine.instantiate", || {
            engine.instantiate(&built.verifier, built.instance.graph.clone())
        })
        .expect("the benchmark's engine envelope is valid")
}

/// Steps a correct instance until the completeness check of §8 has fired
/// at every node, and returns the rounds it took. The check resets a
/// node's train `wraps` counters when it fires, which is the only way they
/// go down, so a drop in their sum marks it. Fails on an alarm, or when
/// `cap` rounds pass first.
pub fn warm_up(runner: &mut dyn Runner<CoreVerifier>, cap: usize) -> Result<usize, String> {
    let n = runner.graph().node_count();
    let wraps = |r: &dyn Runner<CoreVerifier>, v: usize| {
        let s = r.state(NodeId(v));
        u32::from(s.trains[0].wraps) + u32::from(s.trains[1].wraps)
    };
    let mut last: Vec<u32> = (0..n).map(|v| wraps(runner, v)).collect();
    let mut fired = vec![false; n];
    let mut pending = n;
    for round in 1..=cap {
        runner.step();
        if runner.any_alarm() {
            return Err(format!(
                "alarm on a correct instance in warm-up round {round}"
            ));
        }
        for v in 0..n {
            let w = wraps(runner, v);
            if w < last[v] && !fired[v] {
                fired[v] = true;
                pending -= 1;
            }
            last[v] = w;
        }
        if pending == 0 {
            return Ok(round);
        }
    }
    Err(format!(
        "completeness check not fired at {pending} of {n} nodes after {cap} rounds"
    ))
}

/// The largest `state_bits` over all nodes.
pub fn max_state_bits(verifier: &CoreVerifier, runner: &dyn Runner<CoreVerifier>) -> u64 {
    (0..runner.graph().node_count())
        .map(|v| verifier.state_bits(&runner.context(NodeId(v)), runner.state(NodeId(v))))
        .max()
        .unwrap_or(0)
}

/// The KMW study's detection budget: `16·⌈log₂ n⌉² + 64` rounds.
pub fn detection_budget(n: usize) -> usize {
    let lg = (n.max(2) as f64).log2().ceil() as usize;
    16 * lg * lg + 64
}

/// Puts every register back to `snapshot`, then corrupts one stored piece
/// at `node`.
pub fn restore_and_corrupt(
    runner: &mut dyn Runner<CoreVerifier>,
    snapshot: &[CoreState],
    node: NodeId,
    fault_seed: u64,
) {
    for (v, s) in snapshot.iter().enumerate() {
        *runner.state_mut(NodeId(v)) = s.clone();
    }
    runner.apply_faults(&FaultPlan::single(node), &mut |_, s| {
        corrupt(s, FaultKind::StoredPieceWeight, fault_seed)
    });
}

/// Runs `op` until it ran at least `min_ops` times and `seconds` passed.
pub fn run_for(seconds: f64, min_ops: usize, mut op: impl FnMut(usize)) {
    let start = Instant::now();
    let mut i = 0;
    while i < min_ops || start.elapsed().as_secs_f64() < seconds {
        op(i);
        i += 1;
    }
}

pub fn elapsed_ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Full sweeps of `NodeProgram::step` over one register snapshot, on one
/// thread, in the traced run.
const STEP_SWEEPS: usize = 3;
/// Rounds, stop scans and restores the traced run makes of a layer the
/// workload's own loop did not reach.
const PROBE_REPS: usize = 10;

/// Gives every layer of the per-layer table at least one span: layers the
/// workload's own loop called already have theirs; the others are called
/// here, on the workload's correct instance, outside the timed loop.
pub fn probe_layers(
    ctx: &mut Ctx,
    built: &Built,
    runner: &mut dyn Runner<CoreVerifier>,
    observer: &RecordingObserver,
    rng: &mut StdRng,
    out: &mut Outcome,
) {
    let g = &built.instance.graph;
    let n = g.node_count();
    let snapshot = runner.states_snapshot();
    let tr = &mut ctx.tr;

    // the verifier alone: NodeProgram::step over the snapshot
    let contexts: Vec<NodeContext> = g.nodes().map(|v| NodeContext::for_node(g, v)).collect();
    let neighbors: Vec<Vec<&CoreState>> = g
        .nodes()
        .map(|v| g.neighbors(v).map(|u| &snapshot[u.index()]).collect())
        .collect();
    for _ in 0..STEP_SWEEPS {
        tr.time("verifier.step", || {
            for v in 0..n {
                black_box(
                    built
                        .verifier
                        .step(&contexts[v], &snapshot[v], &neighbors[v]),
                );
            }
        });
    }
    if !tr.has("verifier.state_bits") {
        let bits = tr.time("verifier.state_bits", || {
            max_state_bits(&built.verifier, &*runner)
        });
        out.check(bits > 0, || "state_bits is 0".into());
    }
    if !tr.has("engine.step") {
        runner.set_observer(Box::new(observer.clone()));
        for _ in 0..PROBE_REPS {
            tr.time("engine.step", || runner.step());
        }
    }
    if !tr.has("engine.any_alarm") {
        for _ in 0..PROBE_REPS {
            let alarm = tr.time("engine.any_alarm", || runner.any_alarm());
            out.check(!alarm, || "alarm on a correct instance".into());
        }
    }
    if !tr.has("sim.detection_report") {
        for _ in 0..PROBE_REPS {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            let report = tr.time("sim.detection_report", || {
                DetectionReport::from_alarms(g, 1, vec![NodeId(a)], &[NodeId(b)])
            });
            out.check(report.max_detection_distance < n, || {
                "detection distance in a connected graph is below n".into()
            });
        }
    }
    if !tr.has("engine.restore") {
        for _ in 0..PROBE_REPS {
            let (v, seed) = (NodeId(rng.gen_range(0..n)), rng.gen());
            tr.time("engine.restore", || {
                restore_and_corrupt(runner, &snapshot, v, seed)
            });
        }
    }

    // the self-stabilizing transformer's three phases, from garbage
    let garbage = garbage_components(g, rng.gen());
    let garbage_instance = Instance::new(g.clone(), garbage.clone());
    let engine = ctx.engine();
    let tr = &mut ctx.tr;
    if !tr.has("selfstab.detect") {
        let labels = built
            .labels
            .clone()
            .expect("the traced run keeps the labels");
        let budget = MstVerificationScheme::sync_budget(n) * 4;
        let rounds = tr
            .time("selfstab.detect", || {
                rounds_until_rejection_engine(&garbage_instance, labels, budget, &engine)
            })
            .expect("the benchmark's engine envelope is valid");
        out.check(rounds.is_some(), || {
            "stale labels on garbage not rejected".into()
        });
    }
    if !tr.has("selfstab.complete_episode") {
        let detection = DetectionCost {
            rounds: 1,
            detected: true,
        };
        let outcome = tr.time("selfstab.complete_episode", || {
            SelfStabilizingMst::new(Variant::Paper).complete_episode(g, &garbage, false, detection)
        });
        out.check(outcome.output_correct, || {
            "episode output is not the MST".into()
        });
    }
    let bits = tr.time("selfstab.memory_bits", || {
        verification_memory_bits(Variant::Paper, g)
    });
    out.check(bits > 0, || "verification_memory_bits is 0".into());
}

/// The per-layer metrics, from the spans' self times and the observer's
/// per-round phase split. `overhead` is the traced ÷ untraced ratio of the
/// workload's main timing.
pub fn layer_metrics(
    tr: &Tracer,
    n: usize,
    threads: usize,
    observer: &RecordingObserver,
    overhead: f64,
) -> Vec<Metric> {
    let st = tr.self_times();
    let mean_ns = |name: &str| st.get(name).map_or(0.0, |s| s.mean_ns());
    let ms = |name: &str| mean_ns(name) / 1e6;
    let marker_parts = [
        "labeling.satisfies_mst",
        "sync_mst.run",
        "strings.build",
        "partition.build",
    ];
    let residual = ms("marker.label") - marker_parts.iter().map(|p| ms(p)).sum::<f64>();
    let verifier_step_ns = mean_ns("verifier.step") / n as f64;
    let engine_step_ns = mean_ns("engine.step") / n as f64;
    let rounds = observer.stats();
    let phase = |f: fn(&smst_sim::observer::RoundStats) -> u64| {
        rounds.iter().map(|s| f(s) as f64).sum::<f64>() / rounds.len().max(1) as f64
    };
    let sync_rounds = tr.counts().get("sync_mst.rounds").copied().unwrap_or(0);
    vec![
        metric("graph.generate_ms", ms("graph.generate"), "ms"),
        metric("graph.kruskal_ms", ms("graph.kruskal"), "ms"),
        metric(
            "labeling.satisfies_mst_ms",
            ms("labeling.satisfies_mst"),
            "ms",
        ),
        metric("sync_mst.run_ms", ms("sync_mst.run"), "ms"),
        metric("sync_mst.rounds", sync_rounds as f64, "rounds"),
        metric("strings.build_ms", ms("strings.build"), "ms"),
        metric("partition.build_ms", ms("partition.build"), "ms"),
        metric("marker.label_ms", ms("marker.label"), "ms"),
        metric("marker.residual_ms", residual, "ms"),
        metric("verifier.step_ns", verifier_step_ns, "ns"),
        metric("verifier.state_bits_ms", ms("verifier.state_bits"), "ms"),
        metric("engine.instantiate_ms", ms("engine.instantiate"), "ms"),
        metric("engine.step_ns_per_node", engine_step_ns, "ns"),
        metric(
            "engine.overhead_ns_per_node",
            engine_step_ns * threads as f64 - verifier_step_ns,
            "ns",
        ),
        metric("engine.dispatch_ns", phase(|s| s.dispatch_ns), "ns"),
        metric("engine.compute_ns", phase(|s| s.compute_ns), "ns"),
        metric("engine.barrier_ns", phase(|s| s.barrier_ns), "ns"),
        metric("engine.exchange_ns", phase(|s| s.exchange_ns), "ns"),
        metric(
            "engine.any_alarm_us",
            mean_ns("engine.any_alarm") / 1e3,
            "us",
        ),
        metric("engine.restore_ms", ms("engine.restore"), "ms"),
        metric("sim.detection_report_ms", ms("sim.detection_report"), "ms"),
        metric("selfstab.detect_ms", ms("selfstab.detect"), "ms"),
        metric(
            "selfstab.complete_episode_ms",
            ms("selfstab.complete_episode"),
            "ms",
        ),
        metric("selfstab.memory_bits_ms", ms("selfstab.memory_bits"), "ms"),
        metric("trace.overhead", overhead, "ratio"),
    ]
}
