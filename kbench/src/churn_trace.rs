//! `churn_trace`: mutation epochs applied back to back from one caller
//! through `Engine::apply_mutations` under `Staleness::ExactTrace`, with
//! no serving cell. Conditional replay of invalidated samples does most
//! of the work.

use std::sync::Arc;

use kboost_engine::{
    Engine, EngineBuilder, EpochBatch, EpochReport, KboostError, MetricsRecorder, MutationLog,
    Recorder, Sampling, Staleness,
};
use kboost_graph::probability::boost_probability;
use kboost_graph::{DiGraph, EdgeProbs, NodeId};
use kboost_online::{rebuild_from_history, MaintainerOptions};
use kboost_prr::greedy_delta_selection;
use kboost_rrset::seeds::select_random_nodes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::context::peak_rss_mb;
use crate::probes::{self, PrrSetup};
use crate::solve_pa::digg_pa;
use crate::trace::Tracer;
use crate::{
    checks, engine_threads, for_instances, graph_gen, ledger, metric, overhead, stats, timed, Args,
    Metric, Outcome,
};

const NODES: usize = 3_000;
const SEEDS: usize = 20;
const K: usize = 20;
const SAMPLES: u64 = 300;
const REWRITES_PER_EPOCH: usize = 1;
const EPOCHS_PER_INSTANCE: usize = 10;
/// Each instance is a fresh graph, seed set and pool; with
/// [`EPOCHS_PER_INSTANCE`] epochs each, ten epochs lie beyond the p90.
const MIN_INSTANCES: usize = 10;
/// Instances checked against the rebuild (which costs about as much as
/// the epochs it replays).
const CHECK_EVERY: usize = 3;

/// Seeded stream of epochs, each rewriting the probabilities of
/// `per_epoch` uniformly chosen existing edges.
pub struct Churn {
    rng: SmallRng,
    edges: Vec<(NodeId, NodeId)>,
    log: MutationLog,
    per_epoch: usize,
}

impl Churn {
    pub fn new(g: &DiGraph, seed: u64, per_epoch: usize) -> Self {
        Churn {
            rng: SmallRng::seed_from_u64(seed ^ 0xC0FFEE),
            edges: g.edges().map(|(u, v, _)| (u, v)).collect(),
            log: MutationLog::new(),
            per_epoch,
        }
    }

    pub fn next_epoch(&mut self) -> EpochBatch {
        for _ in 0..self.per_epoch {
            let (u, v) = self.edges[self.rng.random_range(0..self.edges.len())];
            let p: f64 = self.rng.random_range(0.01..0.3);
            let probs = EdgeProbs::new(p, boost_probability(p, 2.0)).expect("p in (0, 1)");
            self.log.set_probs(u, v, probs);
        }
        self.log.seal_epoch()
    }
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
        .sampling(Sampling::Fixed { samples: SAMPLES })
        .staleness(Staleness::ExactTrace);
    if let Some(r) = recorder {
        b = b.recorder(r);
    }
    b.build().expect("valid churn_trace configuration")
}

/// One instance: a fresh graph, engine and initial pool.
struct Instance {
    g: DiGraph,
    seeds: Vec<NodeId>,
    engine: Engine,
}

fn setup(tr: &mut Tracer, seed: u64, recorder: Option<Arc<MetricsRecorder>>) -> Instance {
    let g = tr.span("graph.generate", "graph", || digg_pa(NODES, seed));
    let seeds = select_random_nodes(&g, SEEDS, &[], seed ^ 0x5EED);
    let engine = tr.span("engine build + initial pool", "engine", || {
        let mut e = build(&g, &seeds, seed, recorder);
        e.pool().expect("initial pool");
        e
    });
    Instance { g, seeds, engine }
}

/// Applies one epoch, timed from call to return. When traced, the epoch
/// is split by the recorder's apply, refresh and publish spans.
pub fn apply_epoch(
    tr: &mut Tracer,
    engine: &mut Engine,
    batch: &EpochBatch,
    recorder: Option<&MetricsRecorder>,
) -> (Result<EpochReport, KboostError>, f64) {
    let before = recorder.map(sums);
    let span = tr.open("Engine::apply_mutations", "engine");
    let (res, secs) = timed(|| engine.apply_mutations(batch));
    if let (Some(r), Some(b)) = (recorder, before) {
        let a = sums(r);
        if let Some(apply) = tr.child("online.epoch.apply", "online", a.0 - b.0) {
            tr.child_of(apply, "online.epoch.refresh", "online", a.1 - b.1);
            tr.child_of(apply, "serve.publish", "serve", a.2 - b.2);
        }
    }
    tr.close(span);
    (res, secs)
}

/// Untimed: the maintained arena is byte-equal to the rebuild from the
/// same history, and both give the same positive Δ̂ on a probe set chosen
/// on the rebuild.
fn check(inst: &mut Instance, history: &[EpochBatch], out: &mut Outcome) {
    let cfg = *inst.engine.config();
    let opts = MaintainerOptions {
        target_samples: SAMPLES,
        k: K,
        threads: cfg.threads,
        base_seed: cfg.seed,
        compact_threshold: cfg.compact_threshold,
        staleness: cfg.staleness,
    };
    let (_, rebuilt) = rebuild_from_history(&inst.g, &inst.seeds, &opts, history);
    let probe =
        greedy_delta_selection(rebuilt.arena(), inst.g.num_nodes(), K, cfg.threads).selected;
    let maintained = inst.engine.pool().expect("pool built");
    out.check(
        "maintained arena == rebuild_from_history; probe Δ̂ > 0 and equal",
        checks::maintained_equals_rebuild(
            &maintained.arena().compacted(),
            rebuilt.arena(),
            maintained.delta_hat(&probe),
            rebuilt.delta_hat(&probe),
        ),
    );
}

#[derive(Default)]
struct Pass {
    epoch_s: Vec<f64>,
    stale_query_s: Vec<f64>,
    invalidated: u64,
    last: Option<Instance>,
}

/// Instances until `seconds` have passed: set-up, then
/// [`EPOCHS_PER_INSTANCE`] epochs back to back, and every
/// [`CHECK_EVERY`]-th instance checked. When traced, staleness queries
/// on further batches follow, none of them applied.
fn pass(
    tr: &mut Tracer,
    args: &Args,
    recorder: Option<&Arc<MetricsRecorder>>,
    out: &mut Outcome,
) -> Pass {
    let mut p = Pass::default();
    let (peaks, last) = for_instances(args, MIN_INSTANCES, |i, seed| {
        let (mut inst, mut spent) = timed(|| setup(tr, seed, recorder.cloned()));
        if !tr.is_on() {
            out.setup_s.push(spent);
        }
        let mut churn = Churn::new(&inst.g, seed, REWRITES_PER_EPOCH);
        let mut history = Vec::new();
        for _ in 0..EPOCHS_PER_INSTANCE {
            let batch = churn.next_epoch();
            out.attempted += 1;
            let (res, secs) = apply_epoch(tr, &mut inst.engine, &batch, recorder.map(|r| &**r));
            spent += secs;
            match res {
                Ok(report) => {
                    p.epoch_s.push(secs);
                    p.invalidated += report.invalidated;
                    history.push(batch);
                }
                Err(e) => {
                    // A refused epoch leaves the pool untouched; stop so
                    // the history stays contiguous.
                    out.failed += 1;
                    out.check("every epoch commits", Err(e.to_string()));
                    break;
                }
            }
        }
        let peak = peak_rss_mb();
        if i.is_multiple_of(CHECK_EVERY) {
            tr.span("output checks", "check", || check(&mut inst, &history, out));
        }
        if tr.is_on() {
            // Staleness queries on the epochs that would come next, after
            // the timed ones: a query run before an epoch would build the
            // lazy invalidation index that the epoch itself should pay.
            for _ in 0..EPOCHS_PER_INSTANCE {
                let batch = churn.next_epoch();
                let (_, secs) = tr.span("Engine::stale_graphs", "online", || {
                    timed(|| inst.engine.stale_graphs(&batch.mutations))
                });
                p.stale_query_s.push(secs);
            }
        }
        (spent, peak, inst)
    });
    p.last = last;
    if !tr.is_on() {
        out.peak_rss_mb = peaks;
    }
    p
}

/// Running sums of the recorder's apply, refresh and publish spans.
pub fn sums(r: &MetricsRecorder) -> (f64, f64, f64) {
    (
        r.histogram("online.epoch.apply_secs").sum(),
        r.histogram("online.epoch.refresh_secs").sum(),
        r.histogram("serve.publish_secs").sum(),
    )
}

/// The epoch latency figures: p50, p90 and how many epochs they cover.
pub fn epoch_report(epoch_s: &[f64]) -> Vec<Metric> {
    let s = stats::sorted(epoch_s);
    vec![
        metric("epoch_p50_ms", stats::nearest_rank(&s, 50.0) * 1e3, "ms"),
        metric("epoch_p90_ms", stats::nearest_rank(&s, 90.0) * 1e3, "ms"),
        metric("epochs", s.len() as f64, "count"),
        metric(
            "epochs_beyond_p90",
            stats::beyond(s.len(), 90.0) as f64,
            "count",
        ),
    ]
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let untraced = pass(&mut Tracer::new(false), args, None, &mut out);
    out.op_s = untraced.epoch_s.clone();
    let mut last = untraced.last;
    if args.trace {
        let mut tr = Tracer::new(true);
        let recorder = Arc::new(MetricsRecorder::new());
        let traced = pass(&mut tr, args, Some(&recorder), &mut out);
        last = traced.last;
        let inst = last.as_ref().expect("at least one instance");
        out.layers.push(graph_gen(&tr));
        out.layers.extend(online_layers(
            &recorder,
            &traced.stale_query_s,
            "online.replay_us",
        ));
        let setup = PrrSetup {
            g: &inst.g,
            seeds: &inst.seeds,
            k: K,
            mode: Staleness::ExactTrace.footprint_mode(),
            threads: engine_threads(),
            pool_samples: SAMPLES,
            probe_samples: SAMPLES as usize,
            seed: args.seed,
        };
        let arena = inst.engine.pool_if_built().expect("pool built").arena();
        out.layers
            .extend(probes::prr_and_rrset(&mut tr, &setup, Some(arena)));
        out.layers
            .push(overhead(&traced.epoch_s, &untraced.epoch_s));
        out.layers.extend(ledger(&tr));
        out.tracer = Some(tr);
    }

    let inst = last.as_mut().expect("at least one instance");
    let epochs = untraced.epoch_s.len().max(1) as f64;
    let pool = inst.engine.pool().expect("pool built");
    out.sizes = vec![
        ("nodes", NODES as f64),
        ("edges", inst.g.num_edges() as f64),
        ("seeds", SEEDS as f64),
        ("k", K as f64),
        ("samples", SAMPLES as f64),
        ("rewrites_per_epoch", REWRITES_PER_EPOCH as f64),
        ("epochs_per_instance", EPOCHS_PER_INSTANCE as f64),
        ("engine_threads", engine_threads() as f64),
        ("graph_csr_bytes", inst.g.memory_bytes() as f64),
        ("arena_bytes", pool.memory_bytes() as f64),
        (
            "footprint_bytes",
            pool.arena().footprint_memory_bytes() as f64,
        ),
    ];
    out.report = epoch_report(&untraced.epoch_s);
    out.report.push(metric(
        "invalidated_per_epoch",
        untraced.invalidated as f64 / epochs,
        "count",
    ));
    out
}

/// The `online` layer's figures from the recorder of a traced pass.
/// `per_sample` names the refresh time per invalidated sample: replay
/// under the trace tier, a fresh redraw otherwise.
pub fn online_layers(
    r: &MetricsRecorder,
    stale_query_s: &[f64],
    per_sample: &'static str,
) -> Vec<Metric> {
    let snap = r.snapshot();
    let count = |name: &str| snap.counter(name).unwrap_or(0);
    let refresh = r.histogram("online.epoch.refresh_secs");
    let publish = r.histogram("serve.publish_secs");
    let invalidated = count("online.invalidated");
    let mut out = vec![
        metric("online.epochs", count("online.epochs") as f64, "count"),
        metric("online.invalidated", invalidated as f64, "count"),
        metric(
            "online.compactions",
            count("online.compactions") as f64,
            "count",
        ),
        metric(
            "online.refresh_ms",
            refresh.sum() / refresh.count().max(1) as f64 * 1e3,
            "ms",
        ),
        metric(
            per_sample,
            refresh.sum() / invalidated.max(1) as f64 * 1e6,
            "us",
        ),
        metric(
            "serve.publish_ms",
            publish.sum() / publish.count().max(1) as f64 * 1e3,
            "ms",
        ),
        metric("serve.publishes", publish.count() as f64, "count"),
    ];
    if !stale_query_s.is_empty() {
        out.insert(
            0,
            metric(
                "online.stale_query_ms",
                stats::median(stale_query_s) * 1e3,
                "ms",
            ),
        );
    }
    out
}
