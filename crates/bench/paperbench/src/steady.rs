//! `steady`: verify-forever on correct instances (n = 4096).
//!
//! Set-up marks a graph and runs the verifier until the completeness
//! check of §8 has fired at every node. The timed op is one
//! `Runner::step`; no faults are injected, so any alarm is a false alarm.
//!
//! The cost of a round differs by up to a quarter from one graph to the
//! next, and, on the same warm registers, from one runner to the next: it
//! settles at one of a few levels for a runner's whole life, set by where
//! its buffers and worker threads land. So an untraced run sets up
//! `INSTANCES` graphs, one after the other, and times each on `RUNNERS`
//! runners: the one it warmed up, then fresh ones loaded with its warm
//! registers. The timed rounds are split evenly among the runners, and the
//! round latencies are the mean over the runners of each one's quantiles.
//! Its peak resident memory is read when the first instance's timed rounds
//! end: later set-ups in the same process only add heap fragmentation,
//! which a process running one instance does not have.

use crate::layers::{self, elapsed_ms, Built, Ctx, Streams, VerifierRunner};
use crate::report::{median, metric, peak_rss_mib, quantile, Outcome};
use smst_core::{CoreState, CoreVerifier};
use smst_engine::Runner;
use smst_graph::NodeId;
use smst_rng::{Rng, SeedableRng, StdRng};
use smst_sim::observer::RecordingObserver;
use std::time::Instant;

/// Fewest timed rounds per runner.
const MIN_ROUNDS: usize = 100;
/// Instances per untraced run; each is one set-up, and `setup_s` is their
/// median.
const INSTANCES: usize = 4;
/// Runners each instance is timed on, in an untraced run.
const RUNNERS: usize = 4;
/// The first `DET_ROUNDS` timed rounds of each runner give the
/// deterministic metrics.
const DET_ROUNDS: usize = 100;

pub fn run(ctx: &mut Ctx) -> Outcome {
    let n = ctx.size(4096, 256);
    let streams = Streams::new(ctx.seed);
    let mut out = Outcome::default();
    let instances = if ctx.tr.is_on() { 1 } else { INSTANCES };
    let warm_cap = 20 * n;
    // the first instance is the run's graph; the others draw their seeds
    // from it
    let mut graph_seeds = StdRng::seed_from_u64(streams.graph_seed);

    let mut setup_s = Vec::new();
    let (mut p50s, mut p90s) = (Vec::new(), Vec::new());
    let (mut timed_rounds, mut timed_s) = (0, 0.0);
    let (mut det_alarms, mut bits, mut warm_rounds) = (0, 0, 0);
    for i in 0..instances {
        let graph_seed = if i == 0 {
            streams.graph_seed
        } else {
            graph_seeds.gen()
        };
        let start = Instant::now();
        let built = layers::build(n, graph_seed, &mut ctx.tr);
        let mut runner = layers::instantiate(ctx, &built);
        let warm = layers::warm_up(runner.as_mut(), warm_cap);
        let instance_bits = ctx.tr.time("verifier.state_bits", || {
            layers::max_state_bits(&built.verifier, runner.as_ref())
        });
        setup_s.push(start.elapsed().as_secs_f64());
        bits = bits.max(instance_bits);
        match warm {
            Ok(r) => warm_rounds = warm_rounds.max(r),
            Err(e) => {
                out.violations.push(format!("warm-up: {e}"));
                warm_rounds = warm_cap;
            }
        }

        if ctx.tr.is_on() {
            let observer = RecordingObserver::new();
            let half = ctx.seconds / 2.0;
            ctx.tr.set_enabled(false);
            let (plain, _) = rounds(ctx, runner.as_mut(), half, &mut out);
            ctx.tr.set_enabled(true);
            runner.set_observer(Box::new(observer.clone()));
            let (traced, _) = rounds(ctx, runner.as_mut(), half, &mut out);
            let failed = out.failed;
            out.check(failed == 0, || format!("{failed} rounds alarmed"));
            let overhead = median(&traced) / median(&plain);
            let mut rng = streams.probes;
            layers::probe_layers(ctx, &built, runner.as_mut(), &observer, &mut rng, &mut out);
            out.report = layers::layer_metrics(&ctx.tr, n, ctx.threads, &observer, overhead);
            return out;
        }
        let seconds = ctx.seconds / (instances * RUNNERS) as f64;
        let mut warm_states = Vec::new();
        for r in 0..RUNNERS {
            if r > 0 {
                drop(runner);
                runner = reload(ctx, &built, &warm_states);
            }
            let (ms, alarms) = rounds(ctx, runner.as_mut(), seconds, &mut out);
            det_alarms += alarms;
            p50s.push(median(&ms));
            p90s.push(quantile(&ms, 0.9));
            timed_rounds += ms.len();
            timed_s += ms.iter().sum::<f64>() / 1e3;
            if r == 0 {
                if i == 0 {
                    // before the snapshot below, which a process running
                    // one instance would not hold
                    match peak_rss_mib() {
                        Ok(rss) => out.peak_rss_mib = Some(rss),
                        Err(e) => out.violations.push(e),
                    }
                }
                warm_states = runner.states_snapshot();
            }
        }
    }
    let failed = out.failed;
    out.check(failed == 0, || {
        format!("{failed} rounds alarmed on a correct instance")
    });

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let p50 = mean(&p50s);
    out.report = vec![
        metric("n", n as f64, "nodes"),
        metric("threads", ctx.threads as f64, "threads"),
        metric("instances", instances as f64, "instances"),
        metric("runners", p50s.len() as f64, "runners"),
        metric("warmup_rounds", warm_rounds as f64, "rounds"),
        metric("timed_rounds", timed_rounds as f64, "rounds"),
        metric("setup_s", median(&setup_s), "s"),
        metric(
            "fail_share",
            det_alarms as f64 / (DET_ROUNDS * p50s.len()) as f64,
            "ratio",
        ),
        metric(
            "verify_node_rounds_per_s",
            (n * timed_rounds) as f64 / timed_s,
            "1/s",
        ),
        metric("round_ms_p50", p50, "ms"),
        metric("round_ms_p90", mean(&p90s), "ms"),
        metric("bits_per_node_max", bits as f64, "bits"),
    ];
    out.result = vec![
        metric("setup_s", median(&setup_s), "s"),
        metric("op_ms_p50", p50, "ms"),
    ];
    out
}

/// A fresh runner on `built`'s instance, its registers loaded from
/// `states`.
fn reload<'v>(ctx: &mut Ctx, built: &'v Built, states: &[CoreState]) -> VerifierRunner<'v> {
    let mut runner = layers::instantiate(ctx, built);
    for (v, s) in states.iter().enumerate() {
        *runner.state_mut(NodeId(v)) = s.clone();
    }
    runner
}

/// The timed loop: one op is one round. Returns the per-round latencies
/// and the alarmed rounds among the first `DET_ROUNDS`.
fn rounds(
    ctx: &mut Ctx,
    runner: &mut dyn Runner<CoreVerifier>,
    seconds: f64,
    out: &mut Outcome,
) -> (Vec<f64>, usize) {
    let mut ms = Vec::new();
    let mut det_alarms = 0;
    layers::run_for(seconds, MIN_ROUNDS, |i| {
        let t = Instant::now();
        ctx.tr.time("engine.step", || runner.step());
        ms.push(elapsed_ms(t));
        out.attempted += 1;
        if runner.any_alarm() {
            out.failed += 1;
            det_alarms += usize::from(i < DET_ROUNDS);
        }
    });
    (ms, det_alarms)
}
