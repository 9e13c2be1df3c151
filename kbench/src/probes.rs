//! Per-layer probes shared by the workloads: the `prr` sampling kernel,
//! arena absorb and compaction, `rrset` chunked sampling, and both greedy
//! selections, each timed around one call into the layer's `pub` API on
//! the workload's own graph and seed.

use kboost_graph::{DiGraph, NodeId};
use kboost_prr::{
    greedy_delta_selection, FootprintMode, PrrArena, PrrArenaShard, PrrFullSource, PrrGenerator,
};
use kboost_rrset::greedy::greedy_max_cover;
use kboost_rrset::sketch::SketchPool;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::trace::Tracer;
use crate::{metric, timed, Metric};

/// Samples per shard in the single-thread probe, matching the order of
/// the pipeline's chunk size.
const PROBE_CHUNK: usize = 64;

pub struct PrrSetup<'a> {
    pub g: &'a DiGraph,
    pub seeds: &'a [NodeId],
    pub k: usize,
    /// The workload's footprint mode.
    pub mode: FootprintMode,
    pub threads: usize,
    /// Samples in a full pool of the workload.
    pub pool_samples: u64,
    /// Samples in the single-thread kernel probe.
    pub probe_samples: usize,
    pub seed: u64,
}

/// Single-thread samples of one seeded stream, in shards of
/// [`PROBE_CHUNK`]; returns the shards and seconds per sample.
fn sample_stream(
    tr: &mut Tracer,
    name: &'static str,
    generator: &PrrGenerator<'_>,
    s: &PrrSetup<'_>,
    mode: FootprintMode,
) -> (Vec<PrrArenaShard>, f64) {
    let mut rng = SmallRng::seed_from_u64(s.seed ^ 0x9E37_79B9);
    let mut shards = Vec::with_capacity(s.probe_samples.div_ceil(PROBE_CHUNK));
    let (_, secs) = tr.span(name, "prr", || {
        timed(|| {
            let mut left = s.probe_samples;
            while left > 0 {
                let mut shard = PrrArenaShard::new();
                for _ in 0..left.min(PROBE_CHUNK) {
                    std::hint::black_box(generator.sample_into_fp(&mut rng, &mut shard, mode));
                }
                left -= left.min(PROBE_CHUNK);
                shards.push(shard);
            }
        })
    });
    (shards, secs / s.probe_samples as f64)
}

/// The `prr` kernel, arena and selection probes and the `rrset` pool
/// probes, then [`compact`] on `compact_on` or, without one, on the
/// probe pool's arena.
pub fn prr_and_rrset(
    tr: &mut Tracer,
    s: &PrrSetup<'_>,
    compact_on: Option<&PrrArena>,
) -> Vec<Metric> {
    let n = s.g.num_nodes();
    // Fresh samples through the kernel, footprints off.
    let kernel = PrrGenerator::new(s.g, s.seeds, s.k);
    let (_, fresh_s) = sample_stream(tr, "prr.sample_into", &kernel, s, FootprintMode::Off);
    // The same stream in the workload's footprint mode (trace capture
    // runs on the scalar generator, as the pipeline's source does).
    let fp_gen = if s.mode.retains_trace() {
        PrrGenerator::new_scalar_oracle(s.g, s.seeds, s.k)
    } else {
        PrrGenerator::new(s.g, s.seeds, s.k)
    };
    let (shards, fp_s) = sample_stream(tr, "prr.sample_into_fp", &fp_gen, s, s.mode);

    let mut arena = PrrArena::new();
    let (_, absorb_s) = tr.span("prr.absorb_shard", "prr", || {
        timed(|| {
            for shard in shards {
                arena.absorb_shard(shard);
            }
        })
    });
    let edges = arena.total_edges();

    // The pool at the workload's threads and size.
    let source = PrrFullSource::with_footprints(s.g, s.seeds, s.k, s.mode);
    let mut pool: SketchPool<PrrArenaShard> = SketchPool::new(s.seed, s.threads);
    let (_, extend_s) = tr.span("rrset.extend_to", "rrset", || {
        timed(|| pool.extend_to(&source, s.pool_samples))
    });
    let (covers, shard, _, _) = pool.into_parts();
    let pool_arena = PrrArena::from_shard(shard);

    let (_, select_s) = tr.span("prr.greedy_delta_selection", "prr", || {
        timed(|| std::hint::black_box(greedy_delta_selection(&pool_arena, n, s.k, s.threads)))
    });
    let mut eligible = vec![true; n];
    for v in s.seeds {
        eligible[v.index()] = false;
    }
    let (_, mu_select_s) = tr.span("rrset.greedy_max_cover", "rrset", || {
        timed(|| std::hint::black_box(greedy_max_cover(&covers, n, s.k, Some(&eligible))))
    });

    let mut metrics = vec![
        metric("prr.sample_us", fresh_s * 1e6, "us"),
        metric("prr.sample_fp_us", fp_s * 1e6, "us"),
        metric(
            "prr.ns_per_edge",
            fresh_s * s.probe_samples as f64 * 1e9 / edges.max(1) as f64,
            "ns",
        ),
        metric("prr.samples", s.probe_samples as f64, "count"),
        metric("prr.stored", arena.len() as f64, "count"),
        metric("prr.arena_edges", edges as f64, "count"),
        metric("prr.arena_bytes", arena.memory_bytes() as f64, "B"),
        metric(
            "prr.footprint_bytes",
            arena.footprint_memory_bytes() as f64,
            "B",
        ),
        metric("prr.absorb_ms", absorb_s * 1e3, "ms"),
        metric("rrset.extend_s", extend_s, "s"),
        metric(
            "rrset.scaling_eff",
            fp_s * s.pool_samples as f64 / (s.threads as f64 * extend_s),
            "ratio",
        ),
        metric("prr.select_ms", select_s * 1e3, "ms"),
        metric("rrset.mu_select_ms", mu_select_s * 1e3, "ms"),
    ];
    metrics.push(compact(tr, compact_on.unwrap_or(&pool_arena)));
    metrics
}

/// `PrrArena::compact` on a clone of `arena`. An arena without
/// tombstones first has every fourth graph tombstoned, the share at which
/// the default threshold compacts.
fn compact(tr: &mut Tracer, arena: &PrrArena) -> Metric {
    let mut copy = arena.clone();
    if copy.num_dead() == 0 {
        for i in (0..copy.len()).step_by(4) {
            copy.tombstone(i);
        }
    }
    let (_, secs) = tr.span("prr.compact", "prr", || timed(|| copy.compact()));
    metric("prr.compact_ms", secs * 1e3, "ms")
}
