//! Tree-algorithm pipeline checks, including cross-validation of the tree
//! machinery against the general-graph machinery — a bidirected tree *is*
//! a directed graph, so PRR-Boost and the exact tree computation must tell
//! the same story.

use kboost::core::{prr_boost, BoostOptions};
use kboost::diffusion::monte_carlo::{estimate_sigma, McConfig};
use kboost::engine::{Algorithm, EngineBuilder};
use kboost::graph::generators::{complete_binary_tree, random_tree};
use kboost::graph::probability::ProbabilityModel;
use kboost::graph::NodeId;
use kboost::tree::brute::brute_force_optimum;
use kboost::tree::exact::{tree_boost, tree_sigma};
use kboost::tree::{dp_boost, greedy_boost, BidirectedTree};
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn tree_sigma_matches_monte_carlo() {
    let mut rng = SmallRng::seed_from_u64(7);
    let topo = complete_binary_tree(63);
    let g = topo.into_bidirected_graph(ProbabilityModel::Constant(0.15), 2.0, &mut rng);
    let seeds = vec![NodeId(0), NodeId(10), NodeId(35)];
    let tree = BidirectedTree::from_digraph(&g, &seeds).unwrap();
    let boost = vec![NodeId(1), NodeId(4), NodeId(22)];

    let exact = tree_sigma(&tree, &boost);
    let mc = McConfig {
        runs: 150_000,
        threads: 4,
        seed: 13,
    };
    let sim = estimate_sigma(&g, &seeds, &boost, &mc);
    assert!(
        (exact - sim).abs() < 0.08,
        "tree exact σ {exact} vs Monte-Carlo {sim}"
    );
}

#[test]
fn prr_boost_and_greedy_boost_agree_on_trees() {
    // Run both algorithm families on the same tree; their solutions'
    // exact boosts should be close (both are near-optimal in practice).
    let mut rng = SmallRng::seed_from_u64(11);
    let topo = complete_binary_tree(63);
    let g = topo.into_bidirected_graph(ProbabilityModel::Constant(0.2), 2.0, &mut rng);
    let seeds = vec![NodeId(0)];
    let tree = BidirectedTree::from_digraph(&g, &seeds).unwrap();

    let k = 4;
    let greedy = greedy_boost(&tree, k);
    let opts = BoostOptions {
        threads: 2,
        seed: 3,
        min_sketches: 150_000,
        max_sketches: Some(250_000),
        ..Default::default()
    };
    let (prr, _) = prr_boost(&g, &seeds, k, &opts);
    let prr_exact = tree_boost(&tree, &prr.best);

    assert!(
        prr_exact >= 0.75 * greedy.boost,
        "PRR-Boost ({prr_exact}) far below tree greedy ({})",
        greedy.boost
    );
    assert!(
        greedy.boost >= 0.75 * prr_exact,
        "tree greedy ({}) far below PRR-Boost ({prr_exact})",
        greedy.boost
    );
}

#[test]
fn dp_guarantee_holds_against_bruteforce_across_topologies() {
    let mut rng = SmallRng::seed_from_u64(17);
    for trial in 0..8u64 {
        let n = 6 + (trial as usize % 3);
        let topo = random_tree(n, None, &mut rng);
        let g = topo.into_bidirected_graph(ProbabilityModel::Constant(0.3), 2.0, &mut rng);
        let seeds = vec![NodeId((trial % n as u64) as u32)];
        let tree = BidirectedTree::from_digraph(&g, &seeds).unwrap();
        let opt = brute_force_optimum(&tree, 2);
        for eps in [0.5, 0.25] {
            let dp = dp_boost(&tree, 2, eps);
            assert!(
                dp.boost >= (1.0 - eps) * opt.boost - 1e-9,
                "trial {trial} ε={eps}: DP {} < (1-ε)·OPT ({})",
                dp.boost,
                opt.boost
            );
            assert!(dp.boost <= opt.boost + 1e-9);
        }
    }
}

#[test]
fn greedy_is_monotone_in_k() {
    let mut rng = SmallRng::seed_from_u64(19);
    let topo = complete_binary_tree(31);
    let g = topo.into_bidirected_graph(ProbabilityModel::Trivalency, 2.0, &mut rng);
    let tree = BidirectedTree::from_digraph(&g, &[NodeId(0), NodeId(7)]).unwrap();
    let mut prev = 0.0;
    for k in [1, 2, 4, 8] {
        let out = greedy_boost(&tree, k);
        assert!(out.boost >= prev - 1e-12, "boost decreased at k={k}");
        prev = out.boost;
    }
}

#[test]
fn deeper_path_trees_work() {
    // A pure path exercises the iterative (non-recursive) passes.
    let mut rng = SmallRng::seed_from_u64(23);
    let topo = random_tree(400, Some(1), &mut rng); // path
    let g = topo.into_bidirected_graph(ProbabilityModel::Constant(0.3), 2.0, &mut rng);
    let tree = BidirectedTree::from_digraph(&g, &[NodeId(0)]).unwrap();
    let out = greedy_boost(&tree, 5);
    assert_eq!(out.boost_set.len(), 5);
    assert!(out.boost > 0.0);
    let dp = dp_boost(&tree, 3, 1.0);
    assert!(dp.boost >= 0.0);
    assert!(dp.boost_set.len() <= 3);
}

#[test]
fn engine_tree_dp_matches_direct_dp_boost() {
    // DP-Boost is deterministic, so the engine's TreeExact solve must
    // return exactly what a direct call returns on the same tree.
    for seed in 0..8u64 {
        let mut rng = SmallRng::seed_from_u64(29 + seed);
        let topo = complete_binary_tree(200);
        let g = topo.into_bidirected_graph(ProbabilityModel::Trivalency, 2.0, &mut rng);
        let seeds: Vec<NodeId> = (0..10u32)
            .map(|i| NodeId((i * 37 + seed as u32 * 11) % 200))
            .collect();
        let tree = BidirectedTree::from_digraph(&g, &seeds).unwrap();
        let direct = dp_boost(&tree, 10, 0.5);

        let mut engine = EngineBuilder::new(g).seeds(seeds).k(10).build().unwrap();
        let solved = engine
            .solve(&Algorithm::TreeExact {
                dp_epsilon: Some(0.5),
            })
            .unwrap();
        assert_eq!(solved.boost_set, direct.boost_set, "seed {seed}");
        assert_eq!(
            solved.delta_hat.map(f64::to_bits),
            Some(direct.boost.to_bits()),
            "seed {seed}"
        );
    }
}
