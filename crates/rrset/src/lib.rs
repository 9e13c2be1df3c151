//! Reverse-Reachable sets and the IMM framework.
//!
//! The paper builds PRR-Boost on "the Influence Maximization via Martingale
//! (IMM) method based on the idea of Reverse-Reachable Sets" (Section IV-A).
//! This crate implements that substrate:
//!
//! * [`sketch`] — a generic *sketch* abstraction: a random coverage set over
//!   nodes whose expected coverage, scaled by `n`, is the objective being
//!   maximized. RR-sets, marginal RR-sets and PRR-graph critical sets are
//!   all sketches. Generators retain per-sample data by appending it to a
//!   per-chunk [`SketchShard`](sketch::SketchShard), merged deterministically
//!   in chunk order (PRR-Boost builds its flat graph arena this way).
//! * [`greedy`] — lazy-greedy weighted maximum coverage over a sketch pool
//!   (the IMM node-selection phase).
//! * [`imm`] — the two-phase IMM sampling algorithm with martingale-based
//!   stopping (Lemma 3 of the paper, which imports Theorems 1–2 of Tang et
//!   al. 2015).
//! * [`ic`] — concrete sketch sources for the Independent Cascade model:
//!   RR-sets for influence maximization and *marginal* RR-sets for the
//!   MoreSeeds baseline.
//! * [`seeds`] — convenience seed-selection entry points used by the
//!   experiments ("50 influential nodes selected by IMM").
//! * [`terminator`] — cooperative stop conditions (deadline, sample
//!   budget, cancel flag) polled at chunk boundaries; an interrupted pool
//!   always holds a contiguous chunk prefix, so partial results stay
//!   inside the determinism contract.

pub mod greedy;
pub mod ic;
pub mod imm;
pub mod seeds;
pub mod sketch;
pub mod ssa;
pub mod terminator;

pub use greedy::greedy_max_cover;
pub use imm::{achieved_epsilon, ImmParams, ImmRun};
pub use seeds::{select_more_seeds, select_seeds};
pub use sketch::{
    epoch_stream_seed, for_chunks_in_order, CoverOnly, ExtendStatus, SketchGenerator, SketchPool,
    SketchShard, CHUNK_SIZE,
};
pub use ssa::{run_ssa, SsaParams, SsaRun};
pub use terminator::{
    CancelFlag, Deadline, PanicAt, SampleBudget, SampleProgress, StopAtChunk, Terminator, Unlimited,
};
