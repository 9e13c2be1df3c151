//! `serve_churn`: an open-loop reader scores candidate batches on pinned
//! snapshots at a fixed rate, while a feeder commits mutation epochs at a
//! fixed rate under `Staleness::ExactHybrid { bloom_above: 16 }` with the
//! serving cell attached. Reads run beside writes.
//!
//! The traffic follows `exp_service`, the repo's serving harness: its
//! 40-rewrite epochs, one per 30 ms (its feeder's rest between commits),
//! and half the batch rate its one reader sustained in
//! `BENCH_service.json`. Queries in the timed window are 64 of its
//! 128-set batches at once, because a 128-set query on this pool is too
//! short to time steadily; the capacity ladder uses its 128-set batches.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kboost_core::EvalManyScratch;
use kboost_engine::{
    Engine, EngineBuilder, EpochBatch, MetricsRecorder, Sampling, SnapshotService, Staleness,
};
use kboost_graph::{DiGraph, NodeId};
use kboost_prr::greedy_delta_selection;
use kboost_rrset::seeds::select_random_nodes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::churn_trace::{apply_epoch, epoch_report, online_layers, Churn};
use crate::context::peak_rss_mb;
use crate::probes::{self, PrrSetup};
use crate::solve_pa::digg_pa;
use crate::stats::{self, Request, Schedule};
use crate::trace::Tracer;
use crate::{
    checks, for_instances, graph_gen, ledger, metric, overhead, timed, Args, Metric, Outcome,
};

const NODES: usize = 5_000;
const SEEDS: usize = 20;
const K: usize = 20;
const SAMPLES: u64 = 5_000;
const STALENESS: Staleness = Staleness::ExactHybrid { bloom_above: 16 };
/// Probability rewrites per epoch, as in `exp_service`'s history.
const REWRITES_PER_EPOCH: usize = 40;
/// Candidate boost sets scored per query of the timed window: 64 of
/// `exp_service`'s 128-set batches. On this pool a 128-set query took
/// 6–40 µs: its run median spread 0.38 over five seeds, and one
/// instance ran threefold slower in one run than in another. An
/// 8,192-set query takes about 1 ms, and its run median spread 0.15–0.19
/// over ten seeds.
const BATCH: usize = 8192;
/// Candidate boost sets per query on the capacity ladder:
/// `exp_service`'s `--batch`, so `query_max_qps` compares with its
/// batches per second.
const LADDER_BATCH: usize = 128;
/// Each instance is a fresh graph, seed set, pool and serving cell,
/// served for one window.
const MIN_INSTANCES: usize = 4;
const WINDOW_S: f64 = 1.5;
/// Epochs the feeder commits at least per window.
const MIN_EPOCHS: usize = 20;
/// Epochs offered per second: one per 30 ms, the rest `exp_service`'s
/// feeder takes between commits.
const EPOCH_RATE: f64 = 1.0 / 0.030;
/// The fixed offered rate of the main window, and the first rung of the
/// capacity ladder, in queries per second: half the 789 batches/s that
/// `exp_service`'s one closed-loop reader sustained
/// (`BENCH_service.json`).
const RATE: f64 = 400.0;
/// The latency limit on the p99 for the capacity ladder. On the 2-vCPU
/// box this was tuned on, the host stalls the reader for about 100 ms now
/// and then, which sets the floor of any p99 there; the limit sits above
/// it so the ladder finds the rate where queueing starts.
const P99_LIMIT_S: f64 = 0.25;
/// Capacity ladder: rung `j` offers `RATE · LADDER_STEP^j`
/// queries/s.
const LADDER_STEP: f64 = 1.08;
const RUNG_S: f64 = 0.6;
const MAX_RUNG: i32 = 100;

fn build(
    g: &DiGraph,
    seeds: &[NodeId],
    seed: u64,
    recorder: Option<Arc<MetricsRecorder>>,
) -> Engine {
    let mut b = EngineBuilder::new(g.clone())
        .seeds(seeds.to_vec())
        .k(K)
        .threads(1)
        .seed(seed)
        .sampling(Sampling::Fixed { samples: SAMPLES })
        .staleness(STALENESS);
    if let Some(r) = recorder {
        b = b.recorder(r);
    }
    b.build().expect("valid serve_churn configuration")
}

/// One instance: a fresh graph, engine, initial pool and attached
/// serving cell.
struct Instance {
    g: DiGraph,
    seeds: Vec<NodeId>,
    engine: Engine,
    service: SnapshotService,
}

fn setup(tr: &mut Tracer, seed: u64, recorder: Option<Arc<MetricsRecorder>>) -> Instance {
    let g = tr.span("graph.generate", "graph", || digg_pa(NODES, seed));
    let seeds = select_random_nodes(&g, SEEDS, &[], seed ^ 0x5EED);
    let (engine, service) = tr.span("engine build + initial pool + serving", "engine", || {
        let mut engine = build(&g, &seeds, seed, recorder);
        let service = engine.serving().expect("online mode");
        (engine, service)
    });
    Instance {
        g,
        seeds,
        engine,
        service,
    }
}

/// A batch of `sets` candidates: the greedy selection on the initial
/// pool with one to five of its nodes swapped for random ones.
fn candidates(engine: &mut Engine, n: usize, seed: u64, sets: usize) -> Vec<Vec<NodeId>> {
    let pool = engine.pool().expect("pool built");
    let base = greedy_delta_selection(pool.arena(), n, K, 1).selected;
    let width = base.len().clamp(1, 12);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xFACADE);
    (0..sets)
        .map(|i| {
            let mut set: Vec<NodeId> = base.iter().copied().take(width).collect();
            set.resize(width, NodeId(0));
            for _ in 0..(i % 5) + 1 {
                set[rng.random_range(0..width)] = NodeId(rng.random_range(0..n as u32));
            }
            set
        })
        .collect()
}

/// What the reader saw.
#[derive(Default)]
struct Reads {
    /// The fixed-rate window.
    requests: Vec<Request>,
    /// Digest of every distinct answer served at each epoch.
    served: Vec<(u64, u64)>,
    pin_s: Vec<f64>,
    eval_s: Vec<f64>,
    /// Highest ladder rate that met the p99 limit without backlog growth.
    max_qps: f64,
    /// Offered rate, p99 and verdict of every rung tried, in order.
    rungs: Vec<(f64, f64, bool)>,
    lateness_max: f64,
}

/// One open-loop window at `rate` for `secs`. Queries that fail are
/// counted by the caller; here every query succeeds or panics.
fn open_loop(
    tr: &mut Tracer,
    service: &SnapshotService,
    cands: &[Vec<NodeId>],
    rate: f64,
    secs: f64,
    reads: &mut Reads,
    firsts: &mut HashMap<u64, u64>,
) -> Vec<Request> {
    let schedule = Schedule::at_rate(rate);
    let mut scratch = EvalManyScratch::default();
    let t0 = Instant::now();
    let mut requests = Vec::new();
    for i in 0.. {
        let due = schedule.due(i);
        if due >= secs {
            break;
        }
        let wait = tr.open("wait for due time", "wait");
        // Busy-poll for the due time, as a latency-critical server thread
        // polls its queue: a sleeping reader's CPU is lent out and it
        // wakes late and cold, so its latency measured the host's load as
        // much as the serving path.
        while t0.elapsed().as_secs_f64() < due {
            std::hint::spin_loop();
        }
        tr.close(wait);
        let start = t0.elapsed().as_secs_f64();
        let (snap, pin) = tr.span("SnapshotService::pin", "serve", || timed(|| service.pin()));
        let (answers, eval) = tr.span("PoolSnapshot::evaluate_many_with", "serve", || {
            timed(|| snap.evaluate_many_with(cands, &mut scratch))
        });
        service.record_query(&snap, cands.len() as u64);
        let end = t0.elapsed().as_secs_f64();
        requests.push(Request { due, start, end });
        reads.pin_s.push(pin);
        reads.eval_s.push(eval);
        let d = checks::digest(&answers);
        if firsts.get(&snap.epoch()) != Some(&d) {
            reads.served.push((snap.epoch(), d));
            firsts.entry(snap.epoch()).or_insert(d);
        }
    }
    requests
}

/// The reader: one fixed-rate window of `secs`, or (with `secs` zero)
/// the capacity ladder.
fn reader(
    mut tr: Tracer,
    service: SnapshotService,
    cands: &[Vec<NodeId>],
    secs: f64,
) -> (Reads, Tracer) {
    let mut reads = Reads::default();
    let mut firsts = HashMap::new();
    if secs > 0.0 {
        reads.requests = open_loop(
            &mut tr,
            &service,
            cands,
            RATE,
            secs,
            &mut reads,
            &mut firsts,
        );
    } else {
        reads.max_qps = ladder(&mut tr, &service, cands, &mut reads, &mut firsts);
    }
    reads.lateness_max = reads
        .requests
        .iter()
        .map(Request::lateness)
        .fold(0.0, f64::max);
    (reads, tr)
}

/// The capacity ladder: rung `j` offers `RATE · LADDER_STEP^j` for
/// [`RUNG_S`]. Doubles `j` until a rung misses the p99 limit or its
/// backlog grows, then bisects between the last pass and the first miss.
/// Returns the highest passing rate (0 if the first rung misses).
fn ladder(
    tr: &mut Tracer,
    service: &SnapshotService,
    cands: &[Vec<NodeId>],
    reads: &mut Reads,
    firsts: &mut HashMap<u64, u64>,
) -> f64 {
    let mut rung = |j: i32, reads: &mut Reads| {
        let rate = RATE * LADDER_STEP.powi(j);
        let reqs = open_loop(tr, service, cands, rate, RUNG_S, reads, firsts);
        let lat = stats::sorted(&reqs.iter().map(Request::latency).collect::<Vec<_>>());
        let p99 = stats::nearest_rank(&lat, 99.0);
        let ok = p99 <= P99_LIMIT_S && !stats::backlog_grows(&reqs, Schedule::at_rate(rate));
        reads.rungs.push((rate, p99, ok));
        ok
    };
    let (mut pass, mut fail) = (-1i32, MAX_RUNG + 1);
    let mut j = 0;
    while j <= MAX_RUNG {
        if !rung(j, reads) {
            fail = j;
            break;
        }
        pass = j;
        j = if j == 0 { 4 } else { 2 * j };
    }
    while fail - pass > 1 {
        let mid = (pass + fail) / 2;
        if rung(mid, reads) {
            pass = mid;
        } else {
            fail = mid;
        }
    }
    if pass >= 0 {
        RATE * LADDER_STEP.powi(pass)
    } else {
        0.0
    }
}

struct Window {
    reads: Reads,
    epoch_s: Vec<f64>,
    /// The committed epochs, in order, for the oracle replay.
    history: Vec<EpochBatch>,
}

/// One window on an instance: the reader (see [`reader`]) beside the
/// feeder, which commits epochs at [`EPOCH_RATE`] until the reader is
/// done and at least [`MIN_EPOCHS`] were timed. Every served answer and
/// every committed epoch are kept for the check, which scores the epochs
/// after the window.
fn window(
    tr: &mut Tracer,
    inst: &mut Instance,
    cands: &[Vec<NodeId>],
    seed: u64,
    secs: f64,
    recorder: Option<&MetricsRecorder>,
    out: &mut Outcome,
) -> Window {
    let engine = &mut inst.engine;
    let mut churn = Churn::new(&inst.g, seed, REWRITES_PER_EPOCH);
    let mut history = Vec::new();
    let mut epoch_s = Vec::new();
    let reader_done = AtomicBool::new(false);
    let reader_tr = tr.lane();
    let service = inst.service.clone();
    let (reads, reader_tr) = std::thread::scope(|s| {
        let done = &reader_done;
        let handle = s.spawn(move || {
            let r = reader(reader_tr, service, cands, secs);
            done.store(true, Ordering::SeqCst);
            r
        });
        let t0 = Instant::now();
        for j in 0.. {
            if reader_done.load(Ordering::SeqCst) && epoch_s.len() >= MIN_EPOCHS {
                break;
            }
            // Writes arrive at a fixed rate too; a feeder that falls
            // behind commits back to back until it catches up.
            let ahead = j as f64 / EPOCH_RATE - t0.elapsed().as_secs_f64();
            if ahead > 0.0 {
                tr.span("wait for next epoch", "wait", || {
                    std::thread::sleep(Duration::from_secs_f64(ahead))
                });
            }
            let batch = churn.next_epoch();
            out.attempted += 1;
            let (res, secs) = apply_epoch(tr, engine, &batch, recorder);
            match res {
                Ok(_) => {
                    epoch_s.push(secs);
                    history.push(batch);
                }
                Err(e) => {
                    out.failed += 1;
                    out.check("every epoch commits", Err(e.to_string()));
                    break;
                }
            }
        }
        handle.join().expect("reader thread panicked")
    });
    tr.merge(reader_tr);
    out.attempted += (reads.requests.len() + reads.rungs.len()) as u64;
    Window {
        reads,
        epoch_s,
        history,
    }
}

/// Untimed: every served answer equals its pinned epoch's oracle, and
/// the batched scorer equals the per-set loop. The oracle is a second
/// engine built with the instance's seed that replays the window's
/// epochs; the engine is deterministic, so its epoch `e` is the feeder's.
fn check(inst: &mut Instance, cands: &[Vec<NodeId>], w: &Window, seed: u64, out: &mut Outcome) {
    let mut replica = build(&inst.g, &inst.seeds, seed, None);
    let mut oracle = HashMap::new();
    let score = |e: &mut Engine| checks::digest(&e.evaluate_many(cands).expect("pool built"));
    let first = score(&mut replica);
    oracle.insert(replica.epoch(), first);
    for batch in &w.history {
        match replica.apply_mutations(batch) {
            Ok(report) => {
                oracle.insert(report.epoch, score(&mut replica));
            }
            Err(e) => {
                out.check("the oracle replays every epoch", Err(e.to_string()));
                return;
            }
        }
    }
    out.check(
        "served answers == pinned epoch's oracle",
        checks::served_match_oracle(&w.reads.served, &oracle),
    );
    let batched = inst.engine.evaluate_many(cands).expect("pool built");
    let per_set: Vec<(f64, f64)> = cands
        .iter()
        .map(|c| inst.engine.evaluate(c).expect("pool built"))
        .collect();
    out.check(
        "evaluate_many == per-set evaluate",
        checks::batched_equals_per_set(&batched, &per_set),
    );
}

#[derive(Default)]
struct Pass {
    latency_s: Vec<f64>,
    lateness_max: f64,
    epoch_s: Vec<f64>,
    pin_s: Vec<f64>,
    eval_s: Vec<f64>,
    last: Option<Instance>,
}

/// Instances until `seconds` have passed: set-up, then one fixed-rate
/// window of [`WINDOW_S`].
fn pass(
    tr: &mut Tracer,
    args: &Args,
    recorder: Option<&Arc<MetricsRecorder>>,
    out: &mut Outcome,
) -> Pass {
    let mut p = Pass::default();
    let (peaks, last) = for_instances(args, MIN_INSTANCES, |_, seed| {
        let (mut inst, setup_s) = timed(|| setup(tr, seed, recorder.cloned()));
        if !tr.is_on() {
            out.setup_s.push(setup_s);
        }
        let cands = tr.span("candidate batch", "prr", || {
            candidates(&mut inst.engine, NODES, seed, BATCH)
        });
        let (w, window_s) = timed(|| {
            window(
                tr,
                &mut inst,
                &cands,
                seed,
                WINDOW_S,
                recorder.map(|r| &**r),
                out,
            )
        });
        let peak = peak_rss_mb();
        tr.span("output checks", "check", || {
            check(&mut inst, &cands, &w, seed, out)
        });
        p.latency_s
            .extend(w.reads.requests.iter().map(Request::latency));
        p.lateness_max = p.lateness_max.max(w.reads.lateness_max);
        p.epoch_s.extend(&w.epoch_s);
        p.pin_s.extend(&w.reads.pin_s);
        p.eval_s.extend(&w.reads.eval_s);
        (setup_s + window_s, peak, inst)
    });
    p.last = last;
    if !tr.is_on() {
        out.peak_rss_mb = peaks;
    }
    p
}

fn query_report(p: &Pass, max_qps: f64) -> Vec<Metric> {
    let lat = stats::sorted(&p.latency_s);
    vec![
        metric("query_p50_ms", stats::nearest_rank(&lat, 50.0) * 1e3, "ms"),
        metric("query_p99_ms", stats::nearest_rank(&lat, 99.0) * 1e3, "ms"),
        metric("queries", lat.len() as f64, "count"),
        metric(
            "queries_beyond_p99",
            stats::beyond(lat.len(), 99.0) as f64,
            "count",
        ),
        metric("query_offered_qps", RATE, "1/s"),
        metric("query_max_qps", max_qps, "1/s"),
        metric("generator_lateness_max_ms", p.lateness_max * 1e3, "ms"),
    ]
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let untraced = pass(&mut Tracer::new(false), args, None, &mut out);
    out.op_s = untraced.latency_s.clone();

    // The capacity ladder, on one more instance, with exp_service's
    // batch size.
    let mut off = Tracer::new(false);
    let seed = crate::instance_seed(args.seed, u64::MAX);
    let mut inst = setup(&mut off, seed, None);
    let cands = candidates(&mut inst.engine, NODES, seed, LADDER_BATCH);
    let w = window(&mut off, &mut inst, &cands, seed, 0.0, None, &mut out);
    check(&mut inst, &cands, &w, seed, &mut out);
    let rungs: Vec<String> = w
        .reads
        .rungs
        .iter()
        .map(|(rate, p99, ok)| {
            format!(
                "{rate:.0}/s p99 {:.3} ms {}",
                p99 * 1e3,
                if *ok { "ok" } else { "miss" }
            )
        })
        .collect();
    println!("capacity ladder: {}", rungs.join("; "));

    out.report = query_report(&untraced, w.reads.max_qps);
    out.report.extend(epoch_report(&untraced.epoch_s));
    let mut last_inst = None;
    if args.trace {
        let mut tr = Tracer::new(true);
        let recorder = Arc::new(MetricsRecorder::new());
        let traced = pass(&mut tr, args, Some(&recorder), &mut out);
        let inst = traced.last.as_ref().expect("at least one instance");
        out.layers.push(graph_gen(&tr));
        out.layers
            .extend(online_layers(&recorder, &[], "online.redraw_us"));
        let sets = (traced.eval_s.len() * BATCH) as f64;
        out.layers.push(metric(
            "serve.pin_us",
            stats::median(&traced.pin_s) * 1e6,
            "us",
        ));
        out.layers.push(metric(
            "serve.eval_us_per_set",
            traced.eval_s.iter().sum::<f64>() / sets * 1e6,
            "us",
        ));
        let lag = recorder.histogram("serve.epoch_lag");
        out.layers
            .push(metric("serve.epoch_lag_max", lag.max(), "epochs"));
        out.layers.push(metric(
            "serve.epoch_lag_mean",
            lag.sum() / lag.count().max(1) as f64,
            "epochs",
        ));
        let setup = PrrSetup {
            g: &inst.g,
            seeds: &inst.seeds,
            k: K,
            mode: STALENESS.footprint_mode(),
            threads: 1,
            pool_samples: SAMPLES,
            probe_samples: 1_000,
            seed: args.seed,
        };
        let arena = inst.engine.pool_if_built().expect("pool built").arena();
        out.layers
            .extend(probes::prr_and_rrset(&mut tr, &setup, Some(arena)));
        out.layers
            .push(overhead(&traced.latency_s, &untraced.latency_s));
        out.layers.extend(ledger(&tr));
        out.tracer = Some(tr);
        last_inst = traced.last;
    }
    let inst = last_inst.or(untraced.last).expect("at least one instance");
    let pool = inst.engine.pool_if_built().expect("pool built");
    out.sizes = vec![
        ("nodes", NODES as f64),
        ("edges", inst.g.num_edges() as f64),
        ("seeds", SEEDS as f64),
        ("k", K as f64),
        ("samples", SAMPLES as f64),
        ("rewrites_per_epoch", REWRITES_PER_EPOCH as f64),
        ("batch_sets", BATCH as f64),
        ("ladder_batch_sets", LADDER_BATCH as f64),
        ("window_s", WINDOW_S),
        ("offered_qps", RATE),
        ("p99_limit_ms", P99_LIMIT_S * 1e3),
        ("threads", 2.0),
        ("graph_csr_bytes", inst.g.memory_bytes() as f64),
        ("arena_bytes", pool.memory_bytes() as f64),
        (
            "footprint_bytes",
            pool.arena().footprint_memory_bytes() as f64,
        ),
    ];
    out
}
