//! `stabilize`: self-stabilizing MST construction from garbage (n = 1024).
//!
//! Set-up generates the graphs. Each op draws a garbage configuration with
//! `garbage_components` and runs one `stabilize_with_engine(Variant::Paper,
//! …)` episode on the synchronous engine envelope. An episode whose output
//! is not the MST is a failed op.
//!
//! An episode costs up to a quarter more on some graphs than on others, so
//! an untraced run takes its episodes in turn on `GRAPHS` graphs: the
//! seed's graph, and others whose seeds come from it. Its episode latency
//! is the mean over the graphs of each one's median.

use crate::layers::{self, elapsed_ms, Ctx, Streams};
use crate::report::{median, metric, Outcome};
use crate::trace::Tracer;
use smst_core::{Marker, MstVerificationScheme};
use smst_engine::adapters::{rounds_until_rejection_engine, stabilize_with_engine};
use smst_engine::EngineConfig;
use smst_graph::WeightedGraph;
use smst_labeling::Instance;
use smst_rng::{Rng, SeedableRng, StdRng};
use smst_selfstab::baselines::DetectionCost;
use smst_selfstab::transformer::garbage_components;
use smst_selfstab::{SelfStabilizingMst, StabilizationOutcome, Variant};
use smst_sim::observer::RecordingObserver;
use std::hint::black_box;
use std::time::Instant;

/// Graphs per untraced run.
const GRAPHS: usize = 8;
/// Set-up is generating the graphs, which takes about a millisecond. An
/// untraced run sets up `SETUP_REPS` times before its first episode, then
/// once more before every episode, so that its set-ups span the run as its
/// episodes do; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The episodes that give the deterministic metrics (the first ones of a
/// run; a run makes at least this many).
fn det_episodes(ctx: &Ctx) -> usize {
    ctx.size(5, 2)
}

struct Episode {
    /// Index of the episode's graph.
    graph: usize,
    ms: f64,
    outcome: StabilizationOutcome,
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let n = ctx.size(1024, 128);
    let mut streams = Streams::new(ctx.seed);
    let mut out = Outcome::default();

    // the first graph is the run's; the others draw their seeds from it
    let graph_count = if ctx.tr.is_on() { 1 } else { GRAPHS };
    let mut graph_seeds = vec![streams.graph_seed];
    let mut seed_stream = StdRng::seed_from_u64(streams.graph_seed);
    graph_seeds.extend((1..graph_count).map(|_| seed_stream.gen::<u64>()));
    let setup = |tr: &mut Tracer, setup_s: &mut Vec<f64>| -> Vec<WeightedGraph> {
        let start = Instant::now();
        let graphs = graph_seeds.iter().map(|&s| layers::graph(n, s, tr)).collect();
        setup_s.push(start.elapsed().as_secs_f64());
        graphs
    };
    let mut setup_s = Vec::new();
    let mut graphs = setup(&mut ctx.tr, &mut setup_s);

    let engine = ctx.engine();
    if ctx.tr.is_on() {
        let half = ctx.seconds / 2.0;
        ctx.tr.set_enabled(false);
        let (rng, none) = (&mut streams.ops, &mut |_: &mut Tracer| {});
        let plain = episodes(ctx, &graphs, &engine, rng, half, &mut out, none);
        ctx.tr.set_enabled(true);
        let traced = episodes(ctx, &graphs, &engine, rng, half, &mut out, none);
        let p50 = |e: &[Episode]| median(&e.iter().map(|e| e.ms).collect::<Vec<_>>());
        let overhead = p50(&traced) / p50(&plain);
        // the layers below the episode, on the same graph's correct instance
        let built = layers::build(n, streams.graph_seed, &mut ctx.tr);
        let mut runner = layers::instantiate(ctx, &built);
        let observer = RecordingObserver::new();
        let mut rng = streams.probes;
        layers::probe_layers(ctx, &built, runner.as_mut(), &observer, &mut rng, &mut out);
        out.report = layers::layer_metrics(&ctx.tr, n, ctx.threads, &observer, overhead);
        return out;
    }

    while setup_s.len() < SETUP_REPS {
        graphs = setup(&mut ctx.tr, &mut setup_s);
    }
    let seconds = ctx.seconds;
    let mut set_up_again = |tr: &mut Tracer| {
        black_box(setup(tr, &mut setup_s));
    };
    let all = episodes(
        ctx,
        &graphs,
        &engine,
        &mut streams.ops,
        seconds,
        &mut out,
        &mut set_up_again,
    );
    let det = &all[..det_episodes(ctx)];
    let per_graph: Vec<f64> = (0..graphs.len())
        .map(|g| {
            let ms: Vec<f64> = all.iter().filter(|e| e.graph == g).map(|e| e.ms).collect();
            median(&ms)
        })
        .collect();
    let p50 = per_graph.iter().sum::<f64>() / per_graph.len() as f64;
    let failed_det = det.iter().filter(|e| !e.outcome.output_correct).count();
    let max_of = |f: fn(&StabilizationOutcome) -> u64| {
        det.iter().map(|e| f(&e.outcome)).max().unwrap_or(0) as f64
    };
    out.report = vec![
        metric("n", n as f64, "nodes"),
        metric("threads", ctx.threads as f64, "threads"),
        metric("graphs", graphs.len() as f64, "graphs"),
        metric("episodes", all.len() as f64, "episodes"),
        metric("setup_s", median(&setup_s), "s"),
        metric("fail_share", failed_det as f64 / det.len() as f64, "ratio"),
        metric("stabilize_ms_p50", p50, "ms"),
        metric(
            "stabilize_rounds",
            max_of(StabilizationOutcome::total_rounds),
            "rounds",
        ),
        metric("detection_rounds", max_of(|o| o.detection_rounds), "rounds"),
        metric(
            "bits_per_node_max",
            max_of(|o| o.memory_bits_per_node),
            "bits",
        ),
    ];
    out.result = vec![
        metric("setup_s", median(&setup_s), "s"),
        metric("op_ms_p50", p50, "ms"),
    ];
    out
}

/// Episodes on `graphs` in turn, each after a call to `before` (outside
/// the episode's time).
fn episodes(
    ctx: &mut Ctx,
    graphs: &[WeightedGraph],
    engine: &EngineConfig,
    rng: &mut StdRng,
    seconds: f64,
    out: &mut Outcome,
    before: &mut dyn FnMut(&mut Tracer),
) -> Vec<Episode> {
    let mut all = Vec::new();
    let offset = out.attempted;
    // at least one episode per graph
    let min_episodes = det_episodes(ctx).max(graphs.len());
    layers::run_for(seconds, min_episodes, |i| {
        before(&mut ctx.tr);
        let g = i % graphs.len();
        let graph = &graphs[g];
        let garbage_seed: u64 = rng.gen();
        let tr = &mut ctx.tr;
        tr.set_trial(offset + i as u64);
        let start = Instant::now();
        let components = garbage_components(graph, garbage_seed);
        let outcome = if tr.is_on() {
            episode_traced(tr, graph, &components, engine)
        } else {
            stabilize_with_engine(Variant::Paper, graph, &components, engine)
                .expect("the benchmark's engine envelope is valid")
        };
        let ms = elapsed_ms(start);
        if tr.is_on() && i == 0 {
            let plain = stabilize_with_engine(Variant::Paper, graph, &components, engine)
                .expect("the benchmark's engine envelope is valid");
            out.check(same_outcome(&plain, &outcome), || {
                "the traced episode differs from stabilize_with_engine".into()
            });
        }
        out.attempted += 1;
        if !outcome.output_correct {
            out.failed += 1;
            out.violations
                .push(format!("episode {i}: output is not the MST"));
        }
        all.push(Episode {
            graph: g,
            ms,
            outcome,
        });
    });
    all
}

/// `stabilize_with_engine(Variant::Paper, …)` made call by call, so that
/// each phase gets its span: the stale labels of the graph's MST, their
/// rejection on the engine, and the transformer's episode completion.
fn episode_traced(
    tr: &mut Tracer,
    graph: &WeightedGraph,
    components: &smst_graph::ComponentMap,
    engine: &EngineConfig,
) -> StabilizationOutcome {
    let episode = tr.enter("stabilize.episode");
    let instance = Instance::new(graph.clone(), components.clone());
    let already_correct = instance.satisfies_mst();
    let detection = if already_correct {
        DetectionCost {
            rounds: 0,
            detected: false,
        }
    } else {
        let budget = MstVerificationScheme::sync_budget(graph.node_count()) * 4;
        let correct = layers::mst_instance(graph, tr);
        let (labels, _) = tr
            .time("marker.label", || Marker.label(&correct))
            .expect("kruskal's tree is an MST");
        let rounds = tr
            .time("selfstab.detect", || {
                rounds_until_rejection_engine(&instance, labels, budget, engine)
            })
            .expect("the benchmark's engine envelope is valid");
        DetectionCost {
            rounds: rounds.unwrap_or(budget) as u64,
            detected: rounds.is_some(),
        }
    };
    let outcome = tr.time("selfstab.complete_episode", || {
        SelfStabilizingMst::new(Variant::Paper).complete_episode(
            graph,
            components,
            already_correct,
            detection,
        )
    });
    tr.exit(episode);
    outcome
}

fn same_outcome(a: &StabilizationOutcome, b: &StabilizationOutcome) -> bool {
    (a.detection_rounds, a.reset_rounds, a.construction_rounds)
        == (b.detection_rounds, b.reset_rounds, b.construction_rounds)
        && a.memory_bits_per_node == b.memory_bits_per_node
        && a.components == b.components
        && a.output_correct == b.output_correct
}
