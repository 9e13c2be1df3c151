//! Output checks. Each returns `Err` with the reason when the program's
//! answer is wrong; the tests below show every one fails on a perturbed
//! answer.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use kboost_graph::NodeId;
use kboost_prr::PrrArena;

pub type Check = Result<(), String>;

/// The indexed greedy selection equals the naive re-traversal greedy.
pub fn same_selection(indexed: &[NodeId], naive: &[NodeId]) -> Check {
    if indexed == naive {
        Ok(())
    } else {
        Err(format!("indexed {indexed:?} != naive {naive:?}"))
    }
}

/// An estimate that must be strictly positive, so an equality built on
/// it never compares 0 with 0.
pub fn positive(what: &str, v: f64) -> Check {
    if v > 0.0 && v.is_finite() {
        Ok(())
    } else {
        Err(format!("{what} = {v}, expected > 0"))
    }
}

/// The maintained arena is byte-equal to the rebuilt one, and both give
/// the same positive `Δ̂` on the probe set.
pub fn maintained_equals_rebuild(
    maintained: &PrrArena,
    rebuilt: &PrrArena,
    delta_maintained: f64,
    delta_rebuilt: f64,
) -> Check {
    positive("Δ̂ of the probe set on the rebuilt pool", delta_rebuilt)?;
    if maintained != rebuilt {
        return Err(format!(
            "maintained arena ({} graphs, {} edges) differs from the rebuild \
             ({} graphs, {} edges)",
            maintained.len(),
            maintained.total_edges(),
            rebuilt.len(),
            rebuilt.total_edges()
        ));
    }
    if delta_maintained.to_bits() != delta_rebuilt.to_bits() {
        return Err(format!(
            "probe Δ̂ {delta_maintained} (maintained) != {delta_rebuilt} (rebuild)"
        ));
    }
    Ok(())
}

/// A digest of a batch of answers, bit for bit, so served answers can be
/// kept and compared without holding every batch.
pub fn digest(answers: &[(f64, f64)]) -> u64 {
    let mut h = DefaultHasher::new();
    for (d, m) in answers {
        d.to_bits().hash(&mut h);
        m.to_bits().hash(&mut h);
    }
    h.finish()
}

/// Every answer served from a snapshot pinned at epoch `e` (as `(e,
/// digest)`) equals the epoch-`e` oracle's digest.
pub fn served_match_oracle(served: &[(u64, u64)], oracle: &HashMap<u64, u64>) -> Check {
    for (epoch, answers) in served {
        let Some(expected) = oracle.get(epoch) else {
            return Err(format!(
                "answer served at epoch {epoch}, which has no oracle"
            ));
        };
        if answers != expected {
            return Err(format!(
                "an answer served at epoch {epoch} differs from its oracle"
            ));
        }
    }
    Ok(())
}

/// The batched scorer equals the per-set loop, bit for bit.
pub fn batched_equals_per_set(batched: &[(f64, f64)], per_set: &[(f64, f64)]) -> Check {
    if bit_equal(batched, per_set) {
        Ok(())
    } else {
        Err("evaluate_many differs from the per-set evaluate loop".into())
    }
}

fn bit_equal(a: &[(f64, f64)], b: &[(f64, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0.to_bits() == y.0.to_bits() && x.1.to_bits() == y.1.to_bits())
}

/// DP-Boost's guarantee against Greedy-Boost. Its rounding loses at most
/// `ε · max(LB, 1)` with `LB` the Greedy-Boost value, so exact
/// `Δ(B_dp) ≥ OPT − ε·max(LB, 1) ≥ LB − ε·max(LB, 1)`: the `(1 − ε)`
/// bound once `LB ≥ 1`.
pub fn dp_within_guarantee(dp_exact: f64, greedy_exact: f64, eps: f64) -> Check {
    positive("exact Δ of the Greedy-Boost set", greedy_exact)?;
    let floor = greedy_exact - eps * greedy_exact.max(1.0);
    if dp_exact >= floor {
        Ok(())
    } else {
        Err(format!(
            "DP-Boost Δ {dp_exact} < Greedy-Boost Δ {greedy_exact} − {eps}·max(1, Δ) = {floor}"
        ))
    }
}

/// Six standard errors of the pool estimator `n · Binomial(T, p) / T`
/// at `p = Δ / n`, floored at one sample's weight `n / T`. A correct
/// estimate falls outside with probability about 2e-9.
pub fn prr_tolerance(exact: f64, n: usize, samples: u64) -> f64 {
    let n = n as f64;
    let t = samples as f64;
    let p = (exact / n).clamp(0.0, 1.0);
    (6.0 * n * (p * (1.0 - p) / t).sqrt()).max(n / t)
}

/// The PRR estimate of a set's boost lies within [`prr_tolerance`] of
/// its exact boost.
pub fn prr_matches_exact(prr_hat: f64, exact: f64, n: usize, samples: u64) -> Check {
    positive("exact Δ", exact)?;
    let tol = prr_tolerance(exact, n, samples);
    if (prr_hat - exact).abs() <= tol {
        Ok(())
    } else {
        Err(format!(
            "PRR Δ̂ {prr_hat} vs exact Δ {exact}: off by more than {tol}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kboost_engine::{Algorithm, EngineBuilder, Sampling, Staleness};
    use kboost_graph::generators::complete_binary_tree;
    use kboost_graph::probability::ProbabilityModel;
    use kboost_online::{rebuild_from_history, MaintainerOptions};
    use kboost_prr::{greedy_delta_selection, greedy_delta_selection_naive};
    use kboost_rrset::seeds::select_random_nodes;
    use kboost_tree::exact::tree_boost;
    use kboost_tree::{dp_boost, greedy_boost, BidirectedTree};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    use crate::churn_trace::Churn;
    use crate::solve_pa::digg_pa;

    #[test]
    fn selection_check_fails_on_a_perturbed_selection() {
        let g = digg_pa(2_000, 5);
        let seeds = select_random_nodes(&g, 10, &[], 6);
        let mut engine = EngineBuilder::new(g.clone())
            .seeds(seeds)
            .k(5)
            .threads(1)
            .seed(7)
            .sampling(Sampling::Fixed { samples: 3_000 })
            .build()
            .unwrap();
        let sol = engine.solve(&Algorithm::Sandwich).unwrap();
        let b_delta = sol.certificate.as_ref().unwrap().b_delta.clone();
        let naive = greedy_delta_selection_naive(engine.pool().unwrap().arena(), g.num_nodes(), 5);
        assert_eq!(same_selection(&b_delta, &naive.selected), Ok(()));
        assert_eq!(positive("Δ̂", sol.delta_hat.unwrap()), Ok(()));

        let mut perturbed = b_delta.clone();
        let outsider = (0..g.num_nodes() as u32)
            .map(NodeId)
            .find(|v| !b_delta.contains(v))
            .unwrap();
        perturbed[0] = outsider;
        assert!(same_selection(&perturbed, &naive.selected).is_err());
        perturbed = b_delta.clone();
        perturbed.swap(0, 1);
        assert!(same_selection(&perturbed, &naive.selected).is_err());
        assert!(positive("Δ̂", 0.0).is_err());
        assert!(positive("Δ̂", f64::NAN).is_err());
    }

    #[test]
    fn rebuild_check_fails_on_a_perturbed_arena_or_estimate() {
        let g = digg_pa(1_000, 11);
        let seeds = select_random_nodes(&g, 10, &[], 12);
        let mut engine = EngineBuilder::new(g.clone())
            .seeds(seeds.clone())
            .k(5)
            .threads(2)
            .seed(13)
            .sampling(Sampling::Fixed { samples: 300 })
            .staleness(Staleness::ExactTrace)
            .build()
            .unwrap();
        let mut churn = Churn::new(&g, 14, 2);
        let history: Vec<_> = (0..4).map(|_| churn.next_epoch()).collect();
        for batch in &history {
            engine.apply_mutations(batch).unwrap();
        }
        let cfg = *engine.config();
        let opts = MaintainerOptions {
            target_samples: 300,
            k: 5,
            threads: cfg.threads,
            base_seed: cfg.seed,
            compact_threshold: cfg.compact_threshold,
            staleness: cfg.staleness,
        };
        let (_, rebuilt) = rebuild_from_history(&g, &seeds, &opts, &history);
        let probe = greedy_delta_selection(rebuilt.arena(), g.num_nodes(), 5, 1).selected;
        let pool = engine.pool().unwrap();
        let maintained = pool.arena().compacted();
        let (dm, dr) = (pool.delta_hat(&probe), rebuilt.delta_hat(&probe));
        assert_eq!(
            maintained_equals_rebuild(&maintained, rebuilt.arena(), dm, dr),
            Ok(())
        );

        // One tombstone more is a different arena.
        let mut tampered = maintained.clone();
        tampered.tombstone(0);
        assert!(maintained_equals_rebuild(&tampered, rebuilt.arena(), dm, dr).is_err());
        // The rebuild after one fewer epoch is a different arena.
        let (_, short) = rebuild_from_history(&g, &seeds, &opts, &history[..3]);
        assert!(maintained_equals_rebuild(&maintained, short.arena(), dm, dr).is_err());
        // A perturbed estimate, and an empty probe set whose Δ̂ is 0.
        assert!(maintained_equals_rebuild(&maintained, rebuilt.arena(), dm * 1.5, dr).is_err());
        assert!(maintained_equals_rebuild(&maintained, rebuilt.arena(), 0.0, 0.0).is_err());
    }

    #[test]
    fn serving_checks_fail_on_a_perturbed_answer() {
        let answers = vec![(1.5, 0.5), (2.0, 1.0)];
        let mut oracle = HashMap::new();
        oracle.insert(3, digest(&answers));
        assert_eq!(
            served_match_oracle(&[(3, digest(&answers))], &oracle),
            Ok(())
        );
        let mut wrong = answers.clone();
        wrong[1].0 = f64::from_bits(wrong[1].0.to_bits() + 1);
        assert!(served_match_oracle(&[(3, digest(&wrong))], &oracle).is_err());
        assert!(served_match_oracle(&[(4, digest(&answers))], &oracle).is_err());
        assert_eq!(batched_equals_per_set(&answers, &answers), Ok(()));
        assert!(batched_equals_per_set(&answers, &wrong).is_err());
        assert!(batched_equals_per_set(&answers, &answers[..1]).is_err());
    }

    #[test]
    fn tree_checks_fail_on_a_perturbed_answer() {
        let mut rng = SmallRng::seed_from_u64(21);
        let g = complete_binary_tree(400).into_bidirected_graph(
            ProbabilityModel::Trivalency,
            2.0,
            &mut rng,
        );
        let seeds = select_random_nodes(&g, 20, &[], 22);
        let tree = BidirectedTree::from_digraph(&g, &seeds).unwrap();
        let greedy = greedy_boost(&tree, 10).boost_set;
        let dp = dp_boost(&tree, 10, 0.5).boost_set;
        let (ge, de) = (tree_boost(&tree, &greedy), tree_boost(&tree, &dp));
        assert_eq!(dp_within_guarantee(de, ge, 0.5), Ok(()));
        // An answer worth nothing, or far less than the guarantee allows.
        assert!(dp_within_guarantee(0.0, ge, 0.5).is_err());
        assert!(dp_within_guarantee(ge - 0.6 * ge.max(1.0), ge, 0.5).is_err());

        let samples = 200_000;
        let mut engine = EngineBuilder::new(g.clone())
            .seeds(seeds)
            .k(10)
            .threads(2)
            .seed(23)
            .sampling(Sampling::Fixed { samples })
            .build()
            .unwrap();
        let hat = engine.delta_hat(&greedy).unwrap();
        assert_eq!(prr_matches_exact(hat, ge, 400, samples), Ok(()));
        // The estimate of half the set is not the whole set's boost.
        let half = engine.delta_hat(&greedy[..5]).unwrap();
        assert!(prr_matches_exact(half, ge, 400, samples).is_err());
        assert!(prr_matches_exact(hat * 1.5, ge, 400, samples).is_err());
    }
}
