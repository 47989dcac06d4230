//! `detect`: fault detection (n = 1024).
//!
//! Set-up warms a correct instance up once and snapshots its registers.
//! Each trial restores the snapshot, corrupts one stored piece with
//! `corrupt(…, FaultKind::StoredPieceWeight, …)` and runs until the first
//! alarm within the KMW study's budget of `16·⌈log₂ n⌉² + 64` rounds. A
//! trial with no alarm in the budget is a miss: a failed op.
//!
//! Fault nodes are drawn uniformly among the nodes whose label holds a
//! stored piece. `corrupt` picks the top or the bottom part by a coin flip
//! and falls back to a `Roots` string flip when the picked part stores
//! nothing; such fault seeds are drawn again, so that every trial corrupts
//! a piece, top or bottom in the proportion `corrupt` picks them.

use crate::layers::{self, elapsed_ms, Ctx, Streams, VerifierRunner};
use crate::report::{median, metric, quantile, Outcome};
use smst_core::faults::{corrupt, FaultKind};
use smst_core::{CoreState, CoreVerifier};
use smst_engine::{Runner, StopCondition};
use smst_graph::NodeId;
use smst_rng::{Rng, StdRng};
use smst_sim::observer::RecordingObserver;
use smst_sim::DetectionReport;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Where a corruption landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Part {
    Top,
    Bottom,
}

/// One trial's result.
struct Trial {
    part: Part,
    /// Rounds to the first alarm; `None` for a miss.
    rounds: Option<usize>,
    /// Rounds the episode ran (the budget for a miss).
    executed: usize,
    ms: f64,
    distance: usize,
}

/// The trials that give the deterministic metrics (the first ones of a
/// run; a run makes at least this many).
fn det_trials(ctx: &Ctx) -> usize {
    ctx.size(12, 4)
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let n = ctx.size(1024, 128);
    let mut streams = Streams::new(ctx.seed);
    let mut out = Outcome::default();
    let reps = if ctx.tr.is_on() { 1 } else { SETUP_REPS };
    let warm_cap = 20 * n;

    let mut setup_s = Vec::new();
    let mut warm_rounds = 0;
    for rep in 0..reps {
        let start = Instant::now();
        let built = layers::build(n, streams.graph_seed, &mut ctx.tr);
        let mut runner = layers::instantiate(ctx, &built);
        match layers::warm_up(runner.as_mut(), warm_cap) {
            Ok(r) => warm_rounds = r,
            Err(e) => out.violations.push(format!("warm-up: {e}")),
        }
        let snapshot = runner.states_snapshot();
        setup_s.push(start.elapsed().as_secs_f64());
        if rep + 1 < reps {
            continue;
        }

        let budget = layers::detection_budget(n);
        let holders: Vec<usize> = (0..n)
            .filter(|&v| {
                let l = &snapshot[v].label;
                !l.top_part.stored.is_empty() || !l.bottom_part.stored.is_empty()
            })
            .collect();
        if holders.is_empty() {
            out.violations.push("no node holds a stored piece".into());
            return out;
        }
        let mut env = Env {
            runner,
            snapshot,
            holders,
            budget,
        };
        let observer = RecordingObserver::new();
        if ctx.tr.is_on() {
            let half = ctx.seconds / 2.0;
            ctx.tr.set_enabled(false);
            let plain = trials(ctx, &mut env, &mut streams.ops, half, &mut out);
            ctx.tr.set_enabled(true);
            env.runner.set_observer(Box::new(observer.clone()));
            let traced = trials(ctx, &mut env, &mut streams.ops, half, &mut out);
            let per_round = |t: &[Trial]| median(&t.iter().map(ms_per_round).collect::<Vec<_>>());
            let overhead = per_round(&traced) / per_round(&plain);
            let mut rng = streams.probes;
            layers::probe_layers(
                ctx,
                &built,
                env.runner.as_mut(),
                &observer,
                &mut rng,
                &mut out,
            );
            out.report = layers::layer_metrics(&ctx.tr, n, ctx.threads, &observer, overhead);
            return out;
        }
        let seconds = ctx.seconds;
        let all = trials(ctx, &mut env, &mut streams.ops, seconds, &mut out);
        summarize(ctx, n, &all, budget, warm_rounds, &setup_s, &mut out);
    }
    out
}

struct Env<'v> {
    runner: VerifierRunner<'v>,
    snapshot: Vec<CoreState>,
    holders: Vec<usize>,
    budget: usize,
}

/// A fault node among the piece holders and a fault seed with which
/// `corrupt` changes a stored piece (not the fallback string flip).
fn draw_fault(env: &Env, rng: &mut StdRng) -> (NodeId, u64, Part) {
    let v = env.holders[rng.gen_range(0..env.holders.len())];
    let before = &env.snapshot[v];
    loop {
        let seed: u64 = rng.gen();
        let mut probe = before.clone();
        corrupt(&mut probe, FaultKind::StoredPieceWeight, seed);
        if probe.label.strings != before.label.strings {
            continue;
        }
        let part = if probe.label.top_part != before.label.top_part {
            Part::Top
        } else {
            Part::Bottom
        };
        return (NodeId(v), seed, part);
    }
}

fn trials(
    ctx: &mut Ctx,
    env: &mut Env,
    rng: &mut StdRng,
    seconds: f64,
    out: &mut Outcome,
) -> Vec<Trial> {
    let mut all = Vec::new();
    let min_trials = det_trials(ctx);
    let offset = out.attempted;
    layers::run_for(seconds, min_trials, |i| {
        let (node, seed, part) = draw_fault(env, rng);
        let tr = &mut ctx.tr;
        tr.set_trial(offset + i as u64);
        let trial = tr.enter("detect.trial");
        let runner = env.runner.as_mut();
        tr.time("engine.restore", || {
            layers::restore_and_corrupt(runner, &env.snapshot, node, seed)
        });
        out.check(
            runner.state(node).label != env.snapshot[node.index()].label,
            || format!("corruption at {node:?} left the label unchanged"),
        );
        let start = Instant::now();
        let rounds = if tr.is_on() {
            first_alarm_traced(tr, runner, env.budget)
        } else {
            runner.run_until(StopCondition::FirstAlarm, env.budget)
        };
        let ms = elapsed_ms(start);
        out.attempted += 1;
        let distance = match rounds {
            Some(r) => {
                let alarms = runner.alarming_nodes();
                let report = tr.time("sim.detection_report", || {
                    DetectionReport::from_alarms(runner.graph(), r, alarms, &[node])
                });
                out.check(
                    report.max_detection_distance < runner.graph().node_count(),
                    || format!("no alarming node reachable from {node:?}"),
                );
                report.max_detection_distance
            }
            None => {
                out.failed += 1;
                0
            }
        };
        tr.exit(trial);
        all.push(Trial {
            part,
            rounds,
            executed: rounds.unwrap_or(env.budget),
            ms,
            distance,
        });
    });
    all
}

/// `Runner::run_until(StopCondition::FirstAlarm, budget)` made call by
/// call, so that each step and each stop scan gets its span.
fn first_alarm_traced(
    tr: &mut crate::trace::Tracer,
    runner: &mut dyn Runner<CoreVerifier>,
    budget: usize,
) -> Option<usize> {
    let episode = tr.enter("detect.episode");
    let mut found = tr
        .time("engine.any_alarm", || runner.any_alarm())
        .then_some(0);
    for executed in 1..=budget {
        if found.is_some() {
            break;
        }
        tr.time("engine.step", || runner.step());
        if tr.time("engine.any_alarm", || runner.any_alarm()) {
            found = Some(executed);
        }
    }
    tr.exit(episode);
    found
}

fn ms_per_round(t: &Trial) -> f64 {
    t.ms / t.executed.max(1) as f64
}

fn summarize(
    ctx: &Ctx,
    n: usize,
    all: &[Trial],
    budget: usize,
    warm_rounds: usize,
    setup_s: &[f64],
    out: &mut Outcome,
) {
    let det = &all[..det_trials(ctx)];
    let detected: Vec<&Trial> = det.iter().filter(|t| t.rounds.is_some()).collect();
    let rounds: Vec<f64> = detected
        .iter()
        .filter_map(|t| t.rounds.map(|r| r as f64))
        .collect();
    let count = |f: &dyn Fn(&Trial) -> bool| det.iter().filter(|t| f(t)).count() as f64;
    let detect_ms: Vec<f64> = all
        .iter()
        .filter(|t| t.rounds.is_some())
        .map(|t| t.ms)
        .collect();
    let per_round: Vec<f64> = all.iter().map(ms_per_round).collect();
    out.report = vec![
        metric("n", n as f64, "nodes"),
        metric("threads", ctx.threads as f64, "threads"),
        metric("warmup_rounds", warm_rounds as f64, "rounds"),
        metric("budget_rounds", budget as f64, "rounds"),
        metric("trials", all.len() as f64, "trials"),
        metric("setup_s", median(setup_s), "s"),
        metric(
            "fail_share",
            count(&|t| t.rounds.is_none()) / det.len() as f64,
            "ratio",
        ),
        metric("det_top_pieces", count(&|t| t.part == Part::Top), "trials"),
        metric(
            "det_bottom_pieces",
            count(&|t| t.part == Part::Bottom),
            "trials",
        ),
        metric(
            "det_bottom_misses",
            count(&|t| t.part == Part::Bottom && t.rounds.is_none()),
            "trials",
        ),
        metric(
            "det_top_misses",
            count(&|t| t.part == Part::Top && t.rounds.is_none()),
            "trials",
        ),
        metric("detect_rounds_p50", median(&rounds), "rounds"),
        metric("detect_rounds_p90", quantile(&rounds, 0.9), "rounds"),
        metric("detect_ms_p50", median(&detect_ms), "ms"),
        metric(
            "detect_dist_max",
            detected.iter().map(|t| t.distance).max().unwrap_or(0) as f64,
            "hops",
        ),
        metric("detect_round_ms_p50", median(&per_round), "ms"),
        metric("detect_round_ms_p90", quantile(&per_round, 0.9), "ms"),
    ];
    out.result = vec![
        metric("setup_s", median(setup_s), "s"),
        metric("op_ms_p50", median(&per_round), "ms"),
    ];
}
