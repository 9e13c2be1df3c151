//! `tree_dp`: Greedy-Boost and DP-Boost on a complete binary tree with
//! Trivalency probabilities, the paper's tree setting. A PRR pool on the
//! same tree, built during set-up, is checked against the exact boost.
//!
//! Both solvers run on the calling thread, so the gated operation time
//! is that thread's CPU time: wall time on a shared host also counts the
//! time the thread sat descheduled (steal), which comes and goes with the
//! host's load. The wall time is printed beside it as `tree_solve_s`.

use kboost_engine::{Engine, EngineBuilder, Sampling};
use kboost_graph::generators::complete_binary_tree;
use kboost_graph::probability::ProbabilityModel;
use kboost_graph::{DiGraph, NodeId};
use kboost_prr::FootprintMode;
use kboost_rrset::seeds::select_random_nodes;
use kboost_tree::exact::tree_boost;
use kboost_tree::{dp_boost, greedy_boost, BidirectedTree};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::context::{peak_rss_mb, thread_cpu_s};
use crate::probes::{self, PrrSetup};
use crate::trace::Tracer;
use crate::{
    checks, engine_threads, for_instances, graph_gen, ledger, metric, overhead, stats, timed, Args,
    Outcome,
};

const NODES: usize = 200;
const K: usize = 10;
const EPS: f64 = 0.5;
/// PRR samples of the ground-truth pool.
const SAMPLES: u64 = 200_000;
/// Each instance is a fresh tree and seed set.
const MIN_INSTANCES: usize = 20;
/// Instances whose PRR estimate is checked (it needs a pool).
const PRR_CHECK_EVERY: usize = 25;

struct Inputs {
    g: DiGraph,
    seeds: Vec<NodeId>,
    tree: BidirectedTree,
}

fn inputs(tr: &mut Tracer, seed: u64) -> Inputs {
    let g = tr.span("graph.generate", "graph", || {
        let mut rng = SmallRng::seed_from_u64(seed);
        complete_binary_tree(NODES).into_bidirected_graph(
            ProbabilityModel::Trivalency,
            2.0,
            &mut rng,
        )
    });
    let seeds = select_random_nodes(&g, NODES / 20, &[], seed ^ 0x5EED);
    let tree = tr.span("BidirectedTree::from_digraph", "tree", || {
        BidirectedTree::from_digraph(&g, &seeds).expect("a complete binary tree is a tree")
    });
    Inputs { g, seeds, tree }
}

fn pool_engine(inp: &Inputs, seed: u64) -> Engine {
    EngineBuilder::new(inp.g.clone())
        .seeds(inp.seeds.clone())
        .k(K)
        .threads(engine_threads())
        .seed(seed)
        .sampling(Sampling::Fixed { samples: SAMPLES })
        .build()
        .expect("valid tree_dp configuration")
}

/// Set-up of one instance: the tree and the engine of its ground-truth
/// PRR pool (built lazily, by the check).
fn setup(tr: &mut Tracer, seed: u64) -> (Inputs, Engine) {
    let inp = inputs(tr, seed);
    let engine = tr.span("EngineBuilder::build", "engine", || pool_engine(&inp, seed));
    (inp, engine)
}

/// Untimed: DP-Boost meets its guarantee against Greedy-Boost by exact
/// Δ, and (every [`PRR_CHECK_EVERY`]-th instance) the PRR estimate of the
/// greedy set matches its exact Δ.
fn check(
    i: usize,
    inp: &Inputs,
    engine: &mut Engine,
    greedy: &[NodeId],
    dp: &[NodeId],
    out: &mut Outcome,
) {
    let greedy_exact = tree_boost(&inp.tree, greedy);
    let dp_exact = tree_boost(&inp.tree, dp);
    out.check(
        "exact Δ(DP-Boost) ≥ exact Δ(Greedy-Boost) − ε·max(1, Δ(Greedy-Boost))",
        checks::dp_within_guarantee(dp_exact, greedy_exact, EPS),
    );
    if !i.is_multiple_of(PRR_CHECK_EVERY) {
        return;
    }
    let prr_hat = engine.delta_hat(greedy).expect("pool built");
    out.check(
        "PRR Δ̂(Greedy-Boost set) within 6 standard errors of exact Δ",
        checks::prr_matches_exact(prr_hat, greedy_exact, NODES, SAMPLES),
    );
}

struct Pass {
    /// Wall time of Greedy-Boost plus DP-Boost, per instance.
    solve_s: Vec<f64>,
    /// The same span in the thread's CPU time.
    solve_cpu_s: Vec<f64>,
    greedy_s: Vec<f64>,
    dp_s: Vec<f64>,
    last: Option<(Inputs, Engine, Vec<NodeId>)>,
}

/// Instances until `seconds` have passed: set-up, then Greedy-Boost and
/// DP-Boost once each.
fn pass(tr: &mut Tracer, args: &Args, out: &mut Outcome) -> Pass {
    let mut p = Pass {
        solve_s: Vec::new(),
        solve_cpu_s: Vec::new(),
        greedy_s: Vec::new(),
        dp_s: Vec::new(),
        last: None,
    };
    let (peaks, last) = for_instances(args, MIN_INSTANCES, |i, seed| {
        let ((inp, mut engine), setup_s) = timed(|| setup(tr, seed));
        if !tr.is_on() {
            out.setup_s.push(setup_s);
        }
        out.attempted += 1;
        let cpu0 = thread_cpu_s();
        let (greedy, g_s) = tr.span("greedy_boost", "tree", || {
            timed(|| greedy_boost(&inp.tree, K))
        });
        let (dp, d_s) = tr.span("dp_boost", "tree", || timed(|| dp_boost(&inp.tree, K, EPS)));
        p.solve_cpu_s.push(thread_cpu_s() - cpu0);
        p.solve_s.push(g_s + d_s);
        p.greedy_s.push(g_s);
        p.dp_s.push(d_s);
        let peak = peak_rss_mb();
        tr.span("output checks", "check", || {
            check(i, &inp, &mut engine, &greedy.boost_set, &dp.boost_set, out)
        });
        (setup_s + g_s + d_s, peak, (inp, engine, greedy.boost_set))
    });
    p.last = last;
    if !tr.is_on() {
        out.peak_rss_mb = peaks;
    }
    p
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let untraced = pass(&mut Tracer::new(false), args, &mut out);
    out.op_s = untraced.solve_cpu_s.clone();
    let mut last = untraced.last;
    if args.trace {
        let mut tr = Tracer::new(true);
        let traced = pass(&mut tr, args, &mut out);
        last = traced.last;
        let (inp, _, greedy_set) = last.as_ref().expect("at least one instance");
        let (_, exact_s) = tr.span("tree_boost", "tree", || {
            timed(|| tree_boost(&inp.tree, greedy_set))
        });
        out.layers.push(graph_gen(&tr));
        out.layers.push(metric(
            "tree.greedy_s",
            stats::median(&traced.greedy_s),
            "s",
        ));
        out.layers
            .push(metric("tree.dp_s", stats::median(&traced.dp_s), "s"));
        out.layers
            .push(metric("tree.exact_ms", exact_s * 1e3, "ms"));
        let setup = PrrSetup {
            g: &inp.g,
            seeds: &inp.seeds,
            k: K,
            mode: FootprintMode::Off,
            threads: engine_threads(),
            pool_samples: SAMPLES,
            probe_samples: 20_000,
            seed: args.seed,
        };
        out.layers
            .extend(probes::prr_and_rrset(&mut tr, &setup, None));
        out.layers
            .push(overhead(&traced.solve_s, &untraced.solve_s));
        out.layers.extend(ledger(&tr));
        out.tracer = Some(tr);
    }

    let (inp, engine, _) = last.as_mut().expect("at least one instance");
    let pool = engine.pool().expect("pool built");
    out.sizes = vec![
        ("nodes", NODES as f64),
        ("seeds", inp.seeds.len() as f64),
        ("k", K as f64),
        ("epsilon", EPS),
        ("prr_samples", SAMPLES as f64),
        ("graph_csr_bytes", inp.g.memory_bytes() as f64),
        ("arena_bytes", pool.memory_bytes() as f64),
    ];
    out.report = vec![
        metric("tree_solve_s", stats::median(&untraced.solve_s), "s"),
        metric("tree_solve_cpu_s", stats::median(&out.op_s), "s"),
        metric("tree_solves", out.op_s.len() as f64, "count"),
    ];
    out
}
