//! `solve_pa`: cold `Engine::solve(&Algorithm::Sandwich)` with fixed
//! sampling on a preferential-attachment graph with Digg log-normal
//! probabilities. Sampling does nearly all the work.

use std::sync::Arc;

use kboost_engine::{
    Algorithm, Engine, EngineBuilder, KboostError, MetricsRecorder, Sampling, Solution,
};
use kboost_graph::generators::preferential_attachment;
use kboost_graph::probability::ProbabilityModel;
use kboost_graph::{DiGraph, NodeId};
use kboost_prr::{greedy_delta_selection_naive, FootprintMode};
use kboost_rrset::seeds::select_random_nodes;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::context::peak_rss_mb;
use crate::probes::{self, PrrSetup};
use crate::trace::Tracer;
use crate::{
    checks, engine_threads, for_instances, graph_gen, ledger, metric, overhead, stats, timed, Args,
    Outcome,
};

const NODES: usize = 60_000;
const SEEDS: usize = 50;
const K: usize = 50;
const SAMPLES: u64 = 500;
/// Each instance is a fresh graph, seed set and engine.
const MIN_INSTANCES: usize = 10;

/// The `exp_perf` graph: out-degree 4, back-edge probability 0.15,
/// Digg-calibrated log-normal probabilities, boost β = 2.
pub fn digg_pa(nodes: usize, seed: u64) -> DiGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    preferential_attachment(
        nodes,
        4,
        0.15,
        ProbabilityModel::LogNormal {
            mu: -1.93,
            sigma: 1.0,
            cap: 1.0,
        },
        2.0,
        &mut rng,
    )
}

fn build(
    g: &DiGraph,
    seeds: &[NodeId],
    seed: u64,
    recorder: Option<Arc<MetricsRecorder>>,
) -> Engine {
    let mut b = EngineBuilder::new(g.clone())
        .seeds(seeds.to_vec())
        .k(K)
        .threads(engine_threads())
        .seed(seed)
        .sampling(Sampling::Fixed { samples: SAMPLES });
    if let Some(r) = recorder {
        b = b.recorder(r);
    }
    b.build().expect("valid solve_pa configuration")
}

/// One instance: a fresh graph and engine, then one cold solve.
struct Instance {
    g: DiGraph,
    seeds: Vec<NodeId>,
    engine: Engine,
}

fn setup(tr: &mut Tracer, seed: u64, recorder: Option<Arc<MetricsRecorder>>) -> Instance {
    let g = tr.span("graph.generate", "graph", || digg_pa(NODES, seed));
    let seeds = select_random_nodes(&g, SEEDS, &[], seed ^ 0x5EED);
    let engine = tr.span("EngineBuilder::build", "engine", || {
        build(&g, &seeds, seed, recorder)
    });
    Instance { g, seeds, engine }
}

fn solve(tr: &mut Tracer, engine: &mut Engine) -> (Result<Solution, KboostError>, f64) {
    let span = tr.open("Engine::solve", "engine");
    let (res, secs) = timed(|| engine.solve(&Algorithm::Sandwich));
    if let Ok(sol) = &res {
        // The engine's own split of the solve.
        tr.child("pool build", "rrset", sol.stats.build_secs);
        tr.child(
            "selection",
            "prr",
            sol.stats.select_secs + sol.stats.convert_secs,
        );
    }
    tr.close(span);
    (res, secs)
}

/// Untimed: the Δ̂ branch equals the naive greedy on the same arena,
/// and the chosen set has a positive estimate.
fn check(inst: &mut Instance, sol: &Solution, out: &mut Outcome) {
    let pool = inst.engine.pool().expect("the solve built the pool");
    let naive = greedy_delta_selection_naive(pool.arena(), inst.g.num_nodes(), K);
    let b_delta = sol
        .certificate
        .as_ref()
        .map_or(&sol.boost_set, |c| &c.b_delta);
    out.check(
        "Δ̂-greedy selection == greedy_delta_selection_naive",
        checks::same_selection(b_delta, &naive.selected),
    );
    out.check(
        "Δ̂ of the Sandwich selection > 0",
        checks::positive("Δ̂", sol.delta_hat.unwrap_or(0.0)),
    );
}

/// Instances until `seconds` have passed; returns the solve times.
fn pass(tr: &mut Tracer, args: &Args, out: &mut Outcome, last: &mut Option<Instance>) -> Vec<f64> {
    let mut times = Vec::new();
    let (peaks, kept) = for_instances(args, MIN_INSTANCES, |_, seed| {
        let recorder = tr.is_on().then(|| Arc::new(MetricsRecorder::new()));
        let (mut inst, setup_s) = timed(|| setup(tr, seed, recorder));
        out.attempted += 1;
        let (res, solve_s) = solve(tr, &mut inst.engine);
        if !tr.is_on() {
            out.setup_s.push(setup_s);
        }
        let peak = peak_rss_mb();
        match res {
            Ok(sol) => {
                times.push(solve_s);
                tr.span("output checks", "check", || check(&mut inst, &sol, out));
            }
            Err(e) => {
                out.failed += 1;
                out.check("every solve succeeds", Err(e.to_string()));
            }
        }
        (setup_s + solve_s, peak, inst)
    });
    *last = kept;
    if !tr.is_on() {
        out.peak_rss_mb = peaks;
    }
    times
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut last = None;
    let untraced = pass(&mut Tracer::new(false), args, &mut out, &mut last);
    out.op_s = untraced.clone();
    if args.trace {
        let mut tr = Tracer::new(true);
        let traced = pass(&mut tr, args, &mut out, &mut last);
        let inst = last.as_ref().expect("at least one instance");
        out.layers.push(graph_gen(&tr));
        let setup = PrrSetup {
            g: &inst.g,
            seeds: &inst.seeds,
            k: K,
            mode: FootprintMode::Off,
            threads: engine_threads(),
            pool_samples: SAMPLES,
            probe_samples: 500,
            seed: args.seed,
        };
        out.layers
            .extend(probes::prr_and_rrset(&mut tr, &setup, None));
        out.layers.push(overhead(&traced, &untraced));
        out.layers.extend(ledger(&tr));
        out.tracer = Some(tr);
    }

    let inst = last.as_mut().expect("at least one instance");
    let pool = inst.engine.pool().expect("pool built");
    out.sizes = vec![
        ("nodes", NODES as f64),
        ("edges", inst.g.num_edges() as f64),
        ("seeds", SEEDS as f64),
        ("k", K as f64),
        ("samples", SAMPLES as f64),
        ("engine_threads", engine_threads() as f64),
        ("graph_csr_bytes", inst.g.memory_bytes() as f64),
        ("arena_bytes", pool.memory_bytes() as f64),
        (
            "footprint_bytes",
            pool.arena().footprint_memory_bytes() as f64,
        ),
    ];
    let op = stats::sorted(&out.op_s);
    out.report = vec![
        metric("solve_s", stats::nearest_rank(&op, 50.0), "s"),
        metric("solves", op.len() as f64, "count"),
    ];
    out
}
