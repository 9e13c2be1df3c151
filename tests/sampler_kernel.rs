//! Kernel ≡ scalar-oracle equivalence for the data-oriented phase-I
//! sampling kernel, end to end through the pool machinery:
//!
//! * a pool sampled through the batched-draw kernel
//!   ([`PrrFullSource::new`]/[`with_footprints`]) is **byte-equal** —
//!   covers, arena storage arrays, and footprint columns — to one sampled
//!   through the scalar oracle ([`PrrFullSource::scalar_oracle`]) with the
//!   same `(base_seed, target)`, across graph families (ER, preferential
//!   attachment, the set-cover gadget), thread counts, footprint modes,
//!   and terminator interruption points;
//! * [`PrrLbSource`] covers agree between kernel and scalar oracle;
//! * an interrupted-then-resumed kernel extension equals the
//!   uninterrupted pool (chunk-prefix contract survives the kernel's
//!   scratch reuse);
//! * trace capture (the kernel's `Record` policy) and conditional replay
//!   (its `Replay` policy) are byte-equal to the scalar oracle's
//!   recorded and replayed samples — shard bytes with the trace sidecar
//!   and footprints, covers, coin counts and the RNG end state — over
//!   batches mixing in-place rewrites, inserts and removes.
//!
//! [`with_footprints`]: PrrFullSource::with_footprints

use kboost::graph::generators::{
    erdos_renyi, preferential_attachment, set_cover_gadget, SetCoverInstance,
};
use kboost::graph::probability::ProbabilityModel;
use kboost::graph::{DiGraph, EdgeProbs, NodeId};
use kboost::online::{apply_mutations, Mutation};
use kboost::prr::{
    FootprintMode, PrrArena, PrrArenaShard, PrrFullSource, PrrGenerator, PrrLbSource, ReplayCoins,
    ReplayPlan,
};
use kboost::rrset::sketch::{ExtendStatus, SketchPool};
use kboost::rrset::terminator::{StopAtChunk, Unlimited};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

#[derive(Clone, Copy, Debug)]
enum Family {
    Er,
    Pa,
    Gadget,
}

fn build_graph(family: Family, seed: u64) -> DiGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    match family {
        Family::Er => erdos_renyi(16, 50, ProbabilityModel::Constant(0.3), 2.0, &mut rng),
        Family::Pa => {
            preferential_attachment(18, 2, 0.3, ProbabilityModel::Trivalency, 2.0, &mut rng)
        }
        Family::Gadget => set_cover_gadget(&SetCoverInstance {
            num_elements: 6,
            subsets: vec![
                vec![0, 1, 2],
                vec![2, 3],
                vec![3, 4, 5],
                vec![0, 5],
                vec![1, 4],
            ],
        }),
    }
}

/// Builds the same pool twice — kernel and scalar oracle — under an
/// optional interrupting terminator, and asserts cover and byte equality.
#[allow(clippy::too_many_arguments)]
fn assert_kernel_matches_scalar(
    g: &DiGraph,
    seeds: &[NodeId],
    k: usize,
    pool_seed: u64,
    threads: usize,
    target: u64,
    mode: FootprintMode,
    stop_at: Option<u64>,
) {
    let kernel_src = PrrFullSource::with_footprints(g, seeds, k, mode);
    let scalar_src = PrrFullSource::scalar_oracle(g, seeds, k, mode);

    let mut kernel_pool: SketchPool<PrrArenaShard> = SketchPool::new(pool_seed, threads);
    let mut scalar_pool: SketchPool<PrrArenaShard> = SketchPool::new(pool_seed, threads);
    let (ks, ss) = match stop_at {
        Some(c) => (
            kernel_pool.extend_to_within(&kernel_src, target, &StopAtChunk(c)),
            scalar_pool.extend_to_within(&scalar_src, target, &StopAtChunk(c)),
        ),
        None => (
            kernel_pool.extend_to_within(&kernel_src, target, &Unlimited),
            scalar_pool.extend_to_within(&scalar_src, target, &Unlimited),
        ),
    };
    assert_eq!(ks, ss, "extension status diverged");
    assert_eq!(kernel_pool.total_samples(), scalar_pool.total_samples());
    assert_eq!(kernel_pool.empty_samples(), scalar_pool.empty_samples());
    assert_eq!(
        kernel_pool.covers(),
        scalar_pool.covers(),
        "covers diverged"
    );

    let (_, kernel_shard, _, _) = kernel_pool.into_parts();
    let (_, scalar_shard, _, _) = scalar_pool.into_parts();
    // Arena equality compares every raw storage array, footprint columns
    // (node lists / bloom words) included.
    assert!(
        PrrArena::from_shard(kernel_shard) == PrrArena::from_shard(scalar_shard),
        "kernel arena diverged from scalar arena \
         (seed {pool_seed}, k {k}, {threads} threads, mode {mode:?}, stop {stop_at:?})"
    );
}

#[test]
fn interrupted_then_resumed_kernel_pool_equals_uninterrupted() {
    let g = build_graph(Family::Er, 11);
    let source = PrrFullSource::with_footprints(&g, &[NodeId(0)], 3, FootprintMode::Sorted);

    let mut straight: SketchPool<PrrArenaShard> = SketchPool::new(0xBEEF, 3);
    assert_eq!(
        straight.extend_to_within(&source, 4_000, &Unlimited),
        ExtendStatus::Completed
    );

    let mut resumed: SketchPool<PrrArenaShard> = SketchPool::new(0xBEEF, 3);
    assert_eq!(
        resumed.extend_to_within(&source, 4_000, &StopAtChunk(5)),
        ExtendStatus::Interrupted
    );
    assert!(resumed.total_samples() < 4_000);
    assert_eq!(
        resumed.extend_to_within(&source, 4_000, &Unlimited),
        ExtendStatus::Completed
    );

    assert_eq!(straight.total_samples(), resumed.total_samples());
    assert_eq!(straight.covers(), resumed.covers());
    let (_, straight_shard, _, _) = straight.into_parts();
    let (_, resumed_shard, _, _) = resumed.into_parts();
    assert!(
        PrrArena::from_shard(straight_shard) == PrrArena::from_shard(resumed_shard),
        "resumed pool diverged from uninterrupted pool"
    );
}

#[test]
fn lb_covers_match_scalar_oracle() {
    for family in [Family::Er, Family::Pa, Family::Gadget] {
        let g = build_graph(family, 7);
        let kernel_src = PrrLbSource::new(&g, &[NodeId(0)], 2);
        let scalar_src = PrrLbSource::scalar_oracle(&g, &[NodeId(0)], 2);
        for threads in [1usize, 7] {
            let mut kernel_pool: SketchPool<()> = SketchPool::new(99, threads);
            kernel_pool.extend_to(&kernel_src, 3_000);
            let mut scalar_pool: SketchPool<()> = SketchPool::new(99, threads);
            scalar_pool.extend_to(&scalar_src, 3_000);
            assert_eq!(kernel_pool.total_samples(), scalar_pool.total_samples());
            assert_eq!(
                kernel_pool.covers(),
                scalar_pool.covers(),
                "LB covers diverged ({family:?}, {threads} threads)"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Kernel ≡ scalar across graph families, thread counts, footprint
    /// modes, and random interruption points.
    #[test]
    fn kernel_matches_scalar_everywhere(
        family_ix in 0usize..3,
        graph_seed in 0u64..5_000,
        pool_seed in 0u64..5_000,
        k in 1usize..4,
        threads_ix in 0usize..2,
        mode_ix in 0usize..3,
        stop_raw in 0u64..6,
    ) {
        let family = [Family::Er, Family::Pa, Family::Gadget][family_ix];
        let mode = [
            FootprintMode::Off,
            FootprintMode::Sorted,
            FootprintMode::Bloom { bits: 64 },
        ][mode_ix];
        let threads = [1usize, 7][threads_ix];
        // 0 ⇒ run to completion; otherwise interrupt at chunk `stop_raw`.
        let stop = (stop_raw > 0).then_some(stop_raw);
        let g = build_graph(family, graph_seed);
        assert_kernel_matches_scalar(
            &g, &[NodeId(0)], k, pool_seed, threads, 1_500, mode, stop,
        );
    }
}

/// A sample's trace before and after its replay.
type TracePair = (Vec<u8>, Vec<u8>);

/// Records `samples` traced samples over `g0` through the kernel and the
/// scalar oracle in lockstep, then replays every retained trace — stored
/// samples, then empty ones — over `g1` under `plan` through both, one
/// seeded RNG per replay. Asserts covers, RNG end states, coin counts and
/// the stored bytes (graphs, footprints, trace sidecars) equal, and
/// returns the replays' coin counts with each `(old, new)` trace pair.
fn assert_record_and_replay_match(
    g0: &DiGraph,
    g1: &DiGraph,
    plan: &ReplayPlan,
    k: usize,
    seed: u64,
    samples: usize,
) -> (ReplayCoins, Vec<TracePair>) {
    let seeds = [NodeId(0), NodeId(1)];
    let kernel = PrrGenerator::new(g0, &seeds, k);
    let scalar = PrrGenerator::new_scalar_oracle(g0, &seeds, k);
    let mut rng_k = SmallRng::seed_from_u64(seed);
    let mut rng_s = rng_k.clone();
    let (mut shard_k, mut shard_s) = (PrrArenaShard::new(), PrrArenaShard::new());
    for i in 0..samples {
        let ck = kernel.sample_into_fp(&mut rng_k, &mut shard_k, FootprintMode::Trace);
        let cs = scalar.sample_into_fp(&mut rng_s, &mut shard_s, FootprintMode::Trace);
        assert_eq!(ck, cs, "recorded cover {i} diverged");
        assert_eq!(rng_k.clone().next_u64(), rng_s.clone().next_u64());
    }
    let recorded = PrrArena::from_shard(shard_k);
    assert!(
        recorded == PrrArena::from_shard(shard_s),
        "recorded arena (trace sidecar included) diverged"
    );

    let kernel = PrrGenerator::new(g1, &seeds, k);
    let scalar = PrrGenerator::new_scalar_oracle(g1, &seeds, k);
    let traces = (0..recorded.len())
        .map(|i| recorded.footprints().trace(i))
        .chain((0..recorded.num_empty_footprints()).map(|i| recorded.empty_footprints().trace(i)));
    let (mut coins_k, mut coins_s) = (ReplayCoins::default(), ReplayCoins::default());
    let mut pairs = Vec::new();
    for (i, trace) in traces.enumerate() {
        let mut rng_k = SmallRng::seed_from_u64(seed ^ ((i as u64 + 1) << 20));
        let mut rng_s = rng_k.clone();
        let (mut shard_k, mut shard_s) = (PrrArenaShard::new(), PrrArenaShard::new());
        let ck = kernel.replay_into_fp(trace, plan, &mut rng_k, &mut shard_k, &mut coins_k);
        let cs = scalar.replay_into_fp(trace, plan, &mut rng_s, &mut shard_s, &mut coins_s);
        assert_eq!(ck, cs, "replayed cover {i} diverged");
        assert_eq!(coins_k, coins_s, "coin counts diverged at replay {i}");
        assert_eq!(
            rng_k.next_u64(),
            rng_s.next_u64(),
            "replay {i} stream diverged"
        );
        let replayed = PrrArena::from_shard(shard_k);
        assert!(
            replayed == PrrArena::from_shard(shard_s),
            "replay {i} stored different bytes (trace sidecar included)"
        );
        let new_trace = if replayed.is_empty() {
            replayed.empty_footprints().trace(0)
        } else {
            replayed.footprints().trace(0)
        };
        pairs.push((trace.to_vec(), new_trace.to_vec()));
    }
    (coins_k, pairs)
}

/// LEB128 read at `*pos` (trace blobs are varint-framed).
fn varint(bytes: &[u8], pos: &mut usize) -> u32 {
    let mut v = 0u32;
    let mut shift = 0;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= ((b & 0x7F) as u32) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

/// The `(node, in-edge position)` slots of a trace blob whose coin was
/// drawn (`drawn == true`) or left undrawn. Layout: `varint(root)`, then
/// per expanded node `varint(node)`, `varint(in-degree)` and 2-bit
/// outcomes packed four to a byte, `0b11` marking a coin never drawn.
fn trace_slots(trace: &[u8], drawn: bool) -> Vec<(u32, usize)> {
    let mut pos = 0;
    varint(trace, &mut pos);
    let mut slots = Vec::new();
    while pos < trace.len() {
        let node = varint(trace, &mut pos);
        let deg = varint(trace, &mut pos) as usize;
        for i in 0..deg {
            let outcome = (trace[pos + i / 4] >> ((i % 4) * 2)) & 0b11;
            if (outcome != 0b11) == drawn {
                slots.push((node, i));
            }
        }
        pos += deg.div_ceil(4);
    }
    slots
}

/// A random batch over `g`: in-place rewrites of existing edges, inserts
/// of absent edges and removals of existing ones, in random order (so
/// compound changes of one edge occur too).
fn random_batch(g: &DiGraph, rng: &mut SmallRng, size: usize) -> Vec<Mutation> {
    let edges: Vec<(NodeId, NodeId)> = g.edges().map(|(u, v, _)| (u, v)).collect();
    let n = g.num_nodes() as u32;
    (0..size)
        .map(|_| {
            let p: f64 = rng.random_range(0.05..0.5);
            let probs = EdgeProbs::new(p, (2.0 * p).min(1.0)).unwrap();
            let (from, to) = edges[rng.random_range(0..edges.len())];
            match rng.random_range(0..3u32) {
                0 => Mutation::Upsert { from, to, probs },
                1 => Mutation::Remove { from, to },
                _ => {
                    let from = NodeId(rng.random_range(0..n));
                    let to = NodeId((from.0 + rng.random_range(1..n)) % n);
                    Mutation::Upsert { from, to, probs }
                }
            }
        })
        .collect()
}

/// The replay plan of `batch` against the pre-batch graph `g0`: upserts
/// of existing edges are rewrites, every other effective change makes
/// its head structural. With `omit_structural` the structural heads are
/// left out, so the replay must catch the changed in-degrees itself.
fn plan_for(g0: &DiGraph, g1: &DiGraph, batch: &[Mutation], omit_structural: bool) -> ReplayPlan {
    let mut structural = Vec::new();
    let mut rewritten = Vec::new();
    for m in batch {
        match *m {
            Mutation::Upsert { from, to, .. } if g0.has_edge(from, to) => {
                rewritten.push((from, to))
            }
            Mutation::Upsert { to, .. } => structural.push(to),
            Mutation::Remove { from, to } if g0.has_edge(from, to) => structural.push(to),
            Mutation::Remove { .. } => {}
        }
    }
    if omit_structural {
        structural.clear();
    }
    ReplayPlan::new(g1, structural, rewritten)
}

#[test]
fn replay_draws_the_not_drawn_tails_of_activated_samples() {
    // A sample that returned `Activated` mid-list leaves its remaining
    // in-edge coins undrawn. Replaying with the seeds' out-edges marked
    // rewritten (in place, same probabilities: the graph is unchanged, so
    // the plan only over-redraws) re-flips the activating coins; where
    // one now comes up not live, the replay walks on into the undrawn
    // tail and must draw it fresh — identically in kernel and oracle.
    let mut rng = SmallRng::seed_from_u64(3);
    let g = erdos_renyi(16, 60, ProbabilityModel::Constant(0.4), 2.0, &mut rng);
    let seed_edges: Vec<(NodeId, NodeId)> = g
        .edges()
        .filter(|&(u, _, _)| u.0 < 2)
        .map(|(u, v, _)| (u, v))
        .collect();
    let plan = ReplayPlan::new(&g, [], seed_edges);
    let (coins, pairs) = assert_record_and_replay_match(&g, &g, &plan, 2, 7, 300);
    assert!(coins.reused > 0 && coins.redrawn > 0, "{coins:?}");
    let tails = pairs
        .iter()
        .filter(|(old, _)| !trace_slots(old, false).is_empty())
        .count();
    let tails_drawn = pairs
        .iter()
        .filter(|(old, new)| {
            let drawn = trace_slots(new, true);
            trace_slots(old, false).iter().any(|s| drawn.contains(s))
        })
        .count();
    assert!(tails > 0, "no sample returned Activated mid-list");
    assert!(tails_drawn > 0, "no undrawn tail was drawn by a replay");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Kernel `Record` and `Replay` ≡ scalar `phase1_tr` and
    /// `phase1_replay`, over random ER graphs and mixed mutation batches,
    /// with and without the plan's structural heads.
    #[test]
    fn kernel_record_and_replay_match_scalar_oracle(
        graph_seed in 0u64..5_000,
        batch_seed in 0u64..5_000,
        sample_seed in 0u64..5_000,
        k in 1usize..4,
        batch_size in 1usize..10,
        omit_structural in 0u8..2,
    ) {
        let mut rng = SmallRng::seed_from_u64(graph_seed);
        let g0 = erdos_renyi(16, 55, ProbabilityModel::Constant(0.35), 2.0, &mut rng);
        let mut rng = SmallRng::seed_from_u64(batch_seed);
        let batch = random_batch(&g0, &mut rng, batch_size);
        let g1 = apply_mutations(&g0, &batch).expect("in-range batch");
        let plan = plan_for(&g0, &g1, &batch, omit_structural == 1);
        assert_record_and_replay_match(&g0, &g1, &plan, k, sample_seed, 150);
    }
}
