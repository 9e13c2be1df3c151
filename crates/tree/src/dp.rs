//! `DP-Boost` — the rounded dynamic program of Section VI-B / Appendix B.
//!
//! For every node `v` the DP computes `g'(v, κ, c, f)`: the maximum
//! (rounded-down) boost obtainable inside `v`'s subtree when `κ` nodes of
//! the subtree are boosted, `v`'s within-subtree activation probability is
//! `c`, and `v`'s parent is activated with probability `f` outside the
//! subtree. Probabilities are discretized to multiples of a rounding
//! parameter
//!
//! ```text
//! δ = ε·max(LB, 1) / (2·Σ_{u,v} p̄(u⇝v))
//! ```
//!
//! where `LB` is Greedy-Boost's value and `p̄(u⇝v)` upper-bounds the
//! boosted path probability (we use the all-edges-boosted product, a
//! conservative over-estimate of the paper's `p^(k)`). Every rounding is
//! *downward*, so the DP value never exceeds the true boost of the
//! returned set, and Theorem 4 gives `Δ(B̃) ≥ (1−ε)·Δ(B*)`.
//!
//! Nodes with `d ≥ 2` children are combined through the helper chain
//! `h(b, i, κ, x, z)` of Appendix B: `x` carries the activation
//! probability accumulated from the first `i` subtrees and `z` the (free,
//! later-resolved) activation arriving from the parent side and the
//! remaining subtrees; intermediate values are quantized at `δ/(d−1)` so
//! the per-node rounding error stays within `δ`. The paper's range
//! refinements are implemented: each node's `c`/`f` grid is restricted to
//! `[no-boost bound − slack, all-boost bound]`.
//!
//! Each chain level is a dense array over its `(z, κ, x)` box: the `z`
//! range comes from the level's activation bounds (the node's own
//! `f`-grid at the last level) and the `x` range from the previous level's
//! `x` range and the child's `c`-grid, through which the new `x` is
//! monotone. The forward pass keeps two level buffers and no provenance.
//!
//! **Tie rule.** Every cell keeps the *first* maximum in the forward loop
//! order `(z, c_child, x_prev, κ_prev, κ_child)` (strict `>` improves).
//! Backtracking rebuilds the chain of the winning `b` only (all but its
//! last level) and, level by level, re-runs one cell's improve over that
//! cell's candidates alone, in the same order: the first maximum it finds
//! is exactly the candidate the forward pass kept, so no provenance is
//! stored and `dp_boost` is deterministic.

use kboost_graph::NodeId;

use crate::exact::{tree_sigma, TreeState};
use crate::greedy::greedy_boost;
use crate::tree::{BidirectedTree, NO_PARENT};

/// Result of a DP-Boost run.
#[derive(Clone, Debug)]
pub struct DpOutcome {
    /// The returned boost set `B̃` (at most `k` nodes).
    pub boost_set: Vec<NodeId>,
    /// The DP's internal (rounded-down) objective value; a lower bound on
    /// the exact boost of `boost_set`.
    pub dp_value: f64,
    /// The exact boost `Δ_S(B̃)`, recomputed with Lemmas 5–7.
    pub boost: f64,
    /// The rounding parameter δ used.
    pub delta: f64,
}

/// One node's value grid for `c` or `f`.
#[derive(Clone, Debug)]
enum Grid {
    /// A single exact value (seeds' `c = 1`, the root's `f = 0`,
    /// children-of-seeds' `f = 1`).
    Singleton(f64),
    /// Multiples of `unit`: indices `lo..=hi` holding `idx·unit`.
    Units { lo: u64, hi: u64, unit: f64 },
}

impl Grid {
    fn len(&self) -> usize {
        match *self {
            Grid::Singleton(_) => 1,
            Grid::Units { lo, hi, .. } => (hi - lo + 1) as usize,
        }
    }

    fn value(&self, idx: usize) -> f64 {
        match *self {
            Grid::Singleton(v) => v,
            Grid::Units { lo, unit, .. } => (lo + idx as u64) as f64 * unit,
        }
    }

    /// Index of a probability `x`, rounding down and clamping into the
    /// grid from above (a smaller value is always sound). `None` when `x`
    /// falls below the grid — the entry is dropped to keep the stored
    /// value a true lower bound.
    fn store_index(&self, x: f64) -> Option<usize> {
        match *self {
            Grid::Singleton(v) => (x >= v - 1e-9).then_some(0),
            Grid::Units { lo, hi, unit } => {
                let q = ((x / unit) + 1e-9).floor() as i64;
                if q < lo as i64 {
                    None
                } else {
                    Some(((q as u64).min(hi) - lo) as usize)
                }
            }
        }
    }
}

/// Per-node DP table: `vals[(κ·|c| + ci)·|f| + fi]`.
struct Table {
    kmax: usize,
    c: Grid,
    f: Grid,
    vals: Vec<f64>,
    /// How each cell was reached; for non-seed internal nodes, which `b`.
    choice: Vec<ChainRef>,
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum ChainRef {
    None,
    /// Leaf cell (boost decision is implied by κ > 0).
    Leaf,
    /// Seed-knapsack cell (re-solved during backtracking).
    Seed,
    /// Non-seed internal: the winning `b` (whether `v` itself is boosted).
    Chain {
        b: bool,
    },
}

impl Table {
    fn new(kmax: usize, c: Grid, f: Grid) -> Self {
        let len = (kmax + 1) * c.len() * f.len();
        Table {
            kmax,
            c,
            f,
            vals: vec![f64::NEG_INFINITY; len],
            choice: vec![ChainRef::None; len],
        }
    }

    #[inline]
    fn idx(&self, k: usize, ci: usize, fi: usize) -> usize {
        (k * self.c.len() + ci) * self.f.len() + fi
    }

    #[inline]
    fn get(&self, k: usize, ci: usize, fi: usize) -> f64 {
        self.vals[self.idx(k, ci, fi)]
    }

    fn improve(&mut self, k: usize, ci: usize, fi: usize, val: f64, choice: ChainRef) {
        let i = self.idx(k, ci, fi);
        if val > self.vals[i] {
            self.vals[i] = val;
            self.choice[i] = choice;
        }
    }
}

/// Shared immutable context of one DP run.
struct Ctx<'t> {
    tree: &'t BidirectedTree,
    delta: f64,
    kmax: Vec<usize>,
    c_grid: Vec<Grid>,
    f_grid: Vec<Grid>,
    /// `ap_∅(v)` — unboosted activation in the full tree.
    ap_empty: Vec<f64>,
    /// `(cL, cU)` raw bounds per node (before slack).
    c_bounds: Vec<(f64, f64)>,
    /// `(fL, fU)` raw bounds per node.
    f_bounds: Vec<(f64, f64)>,
}

impl<'t> Ctx<'t> {
    /// The rounding parameter (Algorithm 4, lines 1-2) and every node's
    /// range-refined grids. Needs `k ≥ 1` and a non-empty tree.
    fn new(tree: &'t BidirectedTree, k: usize, eps: f64) -> Self {
        let n = tree.num_nodes();
        let lb = greedy_boost(tree, k).boost;
        let mass = path_mass(tree);
        let delta = (eps * lb.max(1.0) / (2.0 * mass.total)).min(0.25);

        let st_lo = TreeState::compute(tree, &[]);
        let all_non_seeds: Vec<NodeId> = (0..n as u32)
            .filter(|&v| !tree.is_seed(v))
            .map(NodeId)
            .collect();
        let st_hi = TreeState::compute(tree, &all_non_seeds);

        let mut c_grid = Vec::with_capacity(n);
        let mut f_grid = Vec::with_capacity(n);
        let mut c_bounds = Vec::with_capacity(n);
        let mut f_bounds = Vec::with_capacity(n);
        let max_q = (1.0 / delta).floor() as u64;
        for v in 0..n as u32 {
            let parent = tree.parent(v);
            // c bounds: activation of v within its own subtree.
            let (c_lo, c_hi) = if tree.is_seed(v) {
                (1.0, 1.0)
            } else if parent == NO_PARENT {
                (st_lo.ap(NodeId(v)), st_hi.ap(NodeId(v)))
            } else {
                (
                    st_lo.ap_leave(NodeId(v), NodeId(parent)),
                    st_hi.ap_leave(NodeId(v), NodeId(parent)),
                )
            };
            c_bounds.push((c_lo, c_hi));
            c_grid.push(if tree.is_seed(v) {
                Grid::Singleton(1.0)
            } else {
                let slack = 2.0 * delta * mass.below[v as usize];
                let lo = (((c_lo - slack) / delta).floor().max(0.0) as u64).min(max_q);
                let hi = (((c_hi / delta).floor() as u64) + 1).min(max_q);
                Grid::Units {
                    lo,
                    hi: hi.max(lo),
                    unit: delta,
                }
            });
            // f bounds: activation of the parent outside T_v.
            let (f_lo, f_hi) = if parent == NO_PARENT {
                (0.0, 0.0)
            } else if tree.is_seed(parent) {
                (1.0, 1.0)
            } else {
                (
                    st_lo.ap_leave(NodeId(parent), NodeId(v)),
                    st_hi.ap_leave(NodeId(parent), NodeId(v)),
                )
            };
            f_bounds.push((f_lo, f_hi));
            f_grid.push(if parent == NO_PARENT {
                Grid::Singleton(0.0)
            } else if tree.is_seed(parent) {
                Grid::Singleton(1.0)
            } else {
                let slack = 2.0 * delta * mass.above[v as usize];
                let lo = (((f_lo - slack) / delta).floor().max(0.0) as u64).min(max_q);
                let hi = (((f_hi / delta).floor() as u64) + 1).min(max_q);
                Grid::Units {
                    lo,
                    hi: hi.max(lo),
                    unit: delta,
                }
            });
        }

        let sizes = tree.subtree_sizes();
        Ctx {
            tree,
            delta,
            kmax: sizes.iter().map(|&s| k.min(s as usize)).collect(),
            c_grid,
            f_grid,
            ap_empty: (0..n as u32).map(|v| st_lo.ap(NodeId(v))).collect(),
            c_bounds,
            f_bounds,
        }
    }

    /// `p^b_{u,v}` on the parent→v edge (0 for the root).
    fn parent_prob(&self, v: u32, b: bool) -> f64 {
        let p = self.tree.parent(v);
        if p == NO_PARENT {
            0.0
        } else {
            self.tree.edge(p, v).for_boosted(b)
        }
    }

    /// The per-node boost contribution
    /// `max{1 − (1−c)(1 − f·p^b_{u,v}) − ap_∅(v), 0}`.
    fn boost_term(&self, v: u32, b: bool, c: f64, f: f64) -> f64 {
        let p = self.parent_prob(v, b);
        (1.0 - (1.0 - c) * (1.0 - f * p) - self.ap_empty[v as usize]).max(0.0)
    }
}

/// Runs DP-Boost with accuracy ε, returning a `(1−ε)`-approximate boost
/// set (Theorems 3–4, assuming the optimal boost is at least one).
pub fn dp_boost(tree: &BidirectedTree, k: usize, eps: f64) -> DpOutcome {
    assert!(eps > 0.0, "epsilon must be positive");
    if k == 0 || tree.num_nodes() == 0 {
        return DpOutcome {
            boost_set: Vec::new(),
            dp_value: 0.0,
            boost: 0.0,
            delta: 0.0,
        };
    }
    let ctx = Ctx::new(tree, k, eps);
    let delta = ctx.delta;
    let mut scratch = Default::default();
    let tables = build_tables(&ctx, |v, tables| {
        build_internal(&ctx, v, tables, &mut scratch)
    });

    let Some((dp_value, kappa, ci)) = root_optimum(&tables) else {
        return DpOutcome {
            boost_set: Vec::new(),
            dp_value: 0.0,
            boost: 0.0,
            delta,
        };
    };

    let mut boost_set = Vec::new();
    backtrack(&ctx, &tables, 0, kappa, ci, 0, &mut boost_set);
    boost_set.sort_unstable();
    boost_set.dedup();
    debug_assert!(boost_set.len() <= k, "budget exceeded: {}", boost_set.len());

    let sigma_empty = tree_sigma(tree, &[]);
    let boost = tree_sigma(tree, &boost_set) - sigma_empty;
    DpOutcome {
        boost_set,
        dp_value: dp_value.max(0.0),
        boost,
        delta,
    }
}

/// Every node's table, bottom-up; `internal` builds the non-seed internal
/// nodes' tables.
fn build_tables(
    ctx: &Ctx<'_>,
    mut internal: impl FnMut(u32, &[Option<Table>]) -> Table,
) -> Vec<Option<Table>> {
    let tree = ctx.tree;
    let mut tables: Vec<Option<Table>> = (0..tree.num_nodes()).map(|_| None).collect();
    for &v in tree.bfs_order().iter().rev() {
        let table = if tree.children(v).is_empty() {
            build_leaf(ctx, v)
        } else if tree.is_seed(v) {
            build_seed(ctx, v, &tables)
        } else {
            internal(v, &tables)
        };
        tables[v as usize] = Some(table);
    }
    tables
}

/// The root's best `(value, κ, ci)`: the first maximum over `(κ, ci)`.
fn root_optimum(tables: &[Option<Table>]) -> Option<(f64, usize, usize)> {
    let root_table = tables[0].as_ref().expect("root table");
    let mut best: Option<(f64, usize, usize)> = None;
    for kappa in 0..=root_table.kmax {
        for ci in 0..root_table.c.len() {
            let val = root_table.get(kappa, ci, 0);
            if val > f64::NEG_INFINITY && best.is_none_or(|(bv, _, _)| val > bv) {
                best = Some((val, kappa, ci));
            }
        }
    }
    best
}

/// Boosted path masses from one `O(n²)` walk over all sources.
struct PathMass {
    /// `Σ_{u,v} Π p'` over all ordered pairs (including `u = v`, counted
    /// as 1): a conservative upper bound on the paper's `Σ p^(k)(u⇝v)`.
    total: f64,
    /// Grid slack per node: `below[v]` bounds `Σ_{x∈T_v} p*(x⇝v)`.
    below: Vec<f64>,
    /// Grid slack per node: `above[v]` bounds `Σ_{x∉T_v} p*(x⇝parent)`.
    above: Vec<f64>,
}

fn path_mass(tree: &BidirectedTree) -> PathMass {
    let n = tree.num_nodes();
    // Euler intervals for ancestry tests.
    let mut tin = vec![0u32; n];
    let mut tout = vec![0u32; n];
    let mut timer = 0u32;
    // Iterative DFS (enter/exit events).
    let mut stack: Vec<(u32, bool)> = vec![(0, false)];
    while let Some((u, exit)) = stack.pop() {
        if exit {
            tout[u as usize] = timer;
            continue;
        }
        tin[u as usize] = timer;
        timer += 1;
        stack.push((u, true));
        for &c in tree.children(u) {
            stack.push((c, false));
        }
    }
    let is_in_subtree =
        |x: u32, v: u32| tin[v as usize] <= tin[x as usize] && tin[x as usize] < tout[v as usize];

    let mut total = 0.0;
    let mut s_below = vec![0.0f64; n]; // Σ_{x∈Tv} p'(x⇝v)
    let mut a_total = vec![0.0f64; n]; // Σ_x p'(x⇝u)
    let mut walk: Vec<(u32, u32, f64)> = Vec::new();
    for src in 0..n as u32 {
        total += 1.0; // u = v
        s_below[src as usize] += 1.0;
        a_total[src as usize] += 1.0;
        walk.clear();
        walk.push((src, src, 1.0));
        while let Some((u, from, prod)) = walk.pop() {
            for nb in tree.neighbors(u) {
                if nb.id == from {
                    continue;
                }
                let p = prod * nb.out.boosted;
                if p > 1e-12 {
                    total += p;
                    a_total[nb.id as usize] += p;
                    if is_in_subtree(src, nb.id) {
                        s_below[nb.id as usize] += p;
                    }
                    walk.push((nb.id, u, p));
                }
            }
        }
    }
    // S_above[v] = A[parent] − p'_{v→parent} · S_below[v].
    let mut s_above = vec![0.0f64; n];
    for v in 1..n as u32 {
        let parent = tree.parent(v);
        let p_up = tree.edge(v, parent).boosted;
        s_above[v as usize] = (a_total[parent as usize] - p_up * s_below[v as usize]).max(0.0);
    }
    PathMass {
        total,
        below: s_below,
        above: s_above,
    }
}

// --------------------------------------------------------------------------
// Table construction
// --------------------------------------------------------------------------

fn build_leaf(ctx: &Ctx<'_>, v: u32) -> Table {
    let mut t = Table::new(
        ctx.kmax[v as usize],
        ctx.c_grid[v as usize].clone(),
        ctx.f_grid[v as usize].clone(),
    );
    let c_val = if ctx.tree.is_seed(v) { 1.0 } else { 0.0 };
    let ci = t.c.store_index(c_val).expect("leaf c value in grid");
    for kappa in 0..=t.kmax {
        let b = kappa > 0 && !ctx.tree.is_seed(v);
        for fi in 0..t.f.len() {
            let f = t.f.value(fi);
            let val = ctx.boost_term(v, b, c_val, f);
            t.improve(kappa, ci, fi, val, ChainRef::Leaf);
        }
    }
    t
}

/// Internal seed node: knapsack over children with `f_child = 1`
/// (Algorithm 5). Returns the per-(i, κ) choices when `record` is set.
/// Per-budget `(κ_child, ci_child)` picks of one knapsack step.
type KnapsackChoices = Vec<Option<(usize, usize)>>;

#[allow(clippy::needless_range_loop)]
fn seed_knapsack(
    ctx: &Ctx<'_>,
    v: u32,
    tables: &[Option<Table>],
    record: bool,
) -> (Vec<f64>, Vec<KnapsackChoices>) {
    let children = ctx.tree.children(v);
    let kmax = ctx.kmax[v as usize];
    // maxg[child][κc] = best over ci of child's value at f = 1.
    let mut h = vec![f64::NEG_INFINITY; kmax + 1];
    h[0] = 0.0;
    // choices[i][κ] = (κ_child, ci_child) chosen at step i for budget κ.
    let mut choices: Vec<KnapsackChoices> = Vec::new();
    for &c in children {
        let ct = tables[c as usize].as_ref().expect("child table");
        let fi = 0; // child's f-grid is Singleton(1.0)
        debug_assert_eq!(ct.f.len(), 1);
        let mut maxg = vec![(f64::NEG_INFINITY, 0usize); ct.kmax + 1];
        for kc in 0..=ct.kmax {
            for ci in 0..ct.c.len() {
                let val = ct.get(kc, ci, fi);
                if val > maxg[kc].0 {
                    maxg[kc] = (val, ci);
                }
            }
        }
        let mut next = vec![f64::NEG_INFINITY; kmax + 1];
        let mut choice = vec![None; kmax + 1];
        for kappa in 0..=kmax {
            for kc in 0..=ct.kmax.min(kappa) {
                if h[kappa - kc] == f64::NEG_INFINITY || maxg[kc].0 == f64::NEG_INFINITY {
                    continue;
                }
                let val = h[kappa - kc] + maxg[kc].0;
                if val > next[kappa] {
                    next[kappa] = val;
                    choice[kappa] = Some((kc, maxg[kc].1));
                }
            }
        }
        h = next;
        if record {
            choices.push(choice);
        }
    }
    (h, choices)
}

fn build_seed(ctx: &Ctx<'_>, v: u32, tables: &[Option<Table>]) -> Table {
    let (h, _) = seed_knapsack(ctx, v, tables, false);
    let mut t = Table::new(
        ctx.kmax[v as usize],
        ctx.c_grid[v as usize].clone(),
        ctx.f_grid[v as usize].clone(),
    );
    debug_assert_eq!(t.c.len(), 1); // Singleton(1.0)
    for (kappa, &hval) in h.iter().enumerate().take(t.kmax + 1) {
        if hval == f64::NEG_INFINITY {
            continue;
        }
        for fi in 0..t.f.len() {
            t.improve(kappa, 0, fi, hval, ChainRef::Seed);
        }
    }
    t
}

/// z-range of level `i` (1-based, `i < d`) as inclusive quanta `(lo, hi)`:
/// the activation arriving from the parent side plus subtrees `> i`, at
/// resolution `unit`.
fn z_grid(ctx: &Ctx<'_>, v: u32, i: usize, unit: f64) -> (u64, u64) {
    let children = ctx.tree.children(v);
    let (f_lo, f_hi) = ctx.f_bounds[v as usize];
    let p_lo = ctx.parent_prob(v, false);
    let p_hi = ctx.parent_prob(v, true);
    let mut lo = 1.0 - (1.0 - f_lo * p_lo);
    let mut hi = 1.0 - (1.0 - f_hi * p_hi);
    for &c in &children[i..] {
        let (c_lo, c_hi) = ctx.c_bounds[c as usize];
        let e_lo = ctx.tree.edge(c, v).base;
        let e_hi = ctx.tree.edge(c, v).boosted;
        lo = 1.0 - (1.0 - lo) * (1.0 - c_lo * e_lo);
        hi = 1.0 - (1.0 - hi) * (1.0 - c_hi * e_hi);
    }
    let slack = 8u64;
    let lo_q = ((lo / unit).floor() as u64).saturating_sub(slack);
    let hi_q = (hi / unit).floor() as u64 + 2;
    (lo_q, hi_q.max(lo_q))
}

/// One level `h(b, i, ·, ·, ·)` of a node's helper chain for a fixed `b`,
/// stored densely: `vals[((z − z_lo)·(kmax+1) + κ)·x_len + (x − x_lo)]`.
/// Unreached cells hold `−∞`.
#[derive(Default)]
struct ChainLevel {
    /// Level 0 has a single row that answers for every `z`.
    any_z: bool,
    z_lo: u64,
    z_len: usize,
    kn: usize,
    x_lo: u64,
    x_len: usize,
    vals: Vec<f64>,
}

impl ChainLevel {
    fn reset(
        &mut self,
        any_z: bool,
        (z_lo, z_len): (u64, usize),
        kn: usize,
        (x_lo, x_len): (u64, usize),
    ) {
        self.any_z = any_z;
        (self.z_lo, self.z_len) = (z_lo, z_len);
        self.kn = kn;
        (self.x_lo, self.x_len) = (x_lo, x_len);
        self.vals.clear();
        self.vals.resize(z_len * kn * x_len, f64::NEG_INFINITY);
    }

    /// Level 0: the budget `b` is spent on `v` itself, `x = 0`, any `z`.
    fn start(&mut self, kn: usize, b: bool) {
        self.reset(true, (0, 1), kn, (0, 1));
        self.vals[b as usize] = 0.0;
    }

    /// Row of the `z`-quantum `zq`, if the level covers it.
    fn row(&self, zq: u64) -> Option<usize> {
        if self.any_z {
            return Some(0);
        }
        let r = zq.checked_sub(self.z_lo)? as usize;
        (r < self.z_len).then_some(r)
    }

    #[inline]
    fn idx(&self, zr: usize, kappa: usize, xr: usize) -> usize {
        (zr * self.kn + kappa) * self.x_len + xr
    }
}

/// One candidate of a level-`i` cell: the level-`(i−1)` cell it extends,
/// the child's `(κ_child, ci, fi)` cell, and the cell it lands in.
#[derive(Clone, Copy)]
struct Candidate {
    zq: u64,
    z_prev: u64,
    kappa_prev: usize,
    x_prev: u64,
    kc: usize,
    ci: usize,
    fi_child: usize,
    x_key: u64,
    val: f64,
}

/// The helper chain of one non-seed internal node `v` for a fixed `b`
/// (Algorithms 6–7 unified). Level `i` folds in child `i`; at the last
/// level `z` keys are `v`'s `f`-grid indices and `x` keys its `c`-grid
/// indices.
struct Chain<'a, 't> {
    ctx: &'a Ctx<'t>,
    tables: &'a [Option<Table>],
    v: u32,
    b: bool,
    /// Quantum of the intermediate `x`/`z` keys: `δ/(d−1)`.
    unit: f64,
    p_parent: f64,
}

impl<'a, 't> Chain<'a, 't> {
    fn new(ctx: &'a Ctx<'t>, tables: &'a [Option<Table>], v: u32, b: bool) -> Self {
        let d = ctx.tree.children(v).len();
        Chain {
            ctx,
            tables,
            v,
            b,
            unit: ctx.delta / ((d as f64) - 1.0).max(1.0),
            p_parent: ctx.parent_prob(v, b),
        }
    }

    fn depth(&self) -> usize {
        self.ctx.tree.children(self.v).len()
    }

    fn kmax(&self) -> usize {
        self.ctx.kmax[self.v as usize]
    }

    /// Child `i`'s table and the `p^b` of its edge into `v`.
    fn child(&self, i: usize) -> (&'a Table, f64) {
        let child = self.ctx.tree.children(self.v)[i - 1];
        let ct = self.tables[child as usize].as_ref().expect("child table");
        (ct, self.ctx.tree.edge(child, self.v).for_boosted(self.b))
    }

    /// Level `i`'s z keys as `(first, count)`.
    fn z_range(&self, i: usize) -> (u64, usize) {
        if i == self.depth() {
            (0, self.ctx.f_grid[self.v as usize].len())
        } else {
            let (lo, hi) = z_grid(self.ctx, self.v, i, self.unit);
            (lo, (hi - lo + 1) as usize)
        }
    }

    /// The activation `y` a level-`i` z key stands for; at the last level
    /// `y = f · p^b_{u,v}`.
    fn y(&self, i: usize, zq: u64) -> f64 {
        if i == self.depth() {
            self.ctx.f_grid[self.v as usize].value(zq as usize) * self.p_parent
        } else {
            zq as f64 * self.unit
        }
    }

    /// The previous level's z key (rounded down) when the child adds `m`.
    fn z_prev(&self, m: f64, y: f64) -> u64 {
        let z_prev_val = 1.0 - (1.0 - m) * (1.0 - y);
        ((z_prev_val / self.unit) + 1e-9).floor() as u64
    }

    /// New accumulated `x` after a child adding `m`, from `x_prev`.
    fn x_new(&self, xq_prev: u64, m: f64) -> f64 {
        let x_prev = xq_prev as f64 * self.unit;
        1.0 - (1.0 - x_prev) * (1.0 - m)
    }

    /// Key of an intermediate (not last-level) `x`.
    fn x_key(&self, x: f64) -> u64 {
        ((x / self.unit) + 1e-9).floor() as u64
    }

    /// Level `i`'s x keys as `(first, count)`. Every key is monotone in
    /// `x_prev` and the child's `c`, so the corners bound it exactly.
    fn x_range(&self, i: usize, prev: &ChainLevel, ct: &Table, p_child: f64) -> (u64, usize) {
        if i == self.depth() {
            return (0, self.ctx.c_grid[self.v as usize].len());
        }
        let lo = self.x_key(self.x_new(prev.x_lo, ct.c.value(0) * p_child));
        let x_hi_prev = prev.x_lo + prev.x_len as u64 - 1;
        let hi = self.x_key(self.x_new(x_hi_prev, ct.c.value(ct.c.len() - 1) * p_child));
        (lo, (hi - lo + 1) as usize)
    }

    /// From `x_prev` with the child adding `m` and `y` arriving: the
    /// child's `f` index and the new x key, or `None` if either falls off
    /// its grid.
    fn advance(&self, i: usize, ct: &Table, xq_prev: u64, m: f64, y: f64) -> Option<(usize, u64)> {
        let x_prev = xq_prev as f64 * self.unit;
        let f_child = 1.0 - (1.0 - x_prev) * (1.0 - y);
        let fi_child = ct.f.store_index(f_child)?;
        let x_new = self.x_new(xq_prev, m);
        let x_key = if i == self.depth() {
            self.ctx.c_grid[self.v as usize].store_index(x_new)? as u64
        } else {
            self.x_key(x_new)
        };
        Some((fi_child, x_key))
    }

    /// Visits every level-`i` candidate whose z key lies in `zs`, in the
    /// forward loop order `(z, c_child, x_prev, κ_prev, κ_child)`.
    fn candidates(
        &self,
        i: usize,
        prev: &ChainLevel,
        zs: std::ops::Range<u64>,
        mut visit: impl FnMut(&Candidate),
    ) {
        let (ct, p_child) = self.child(i);
        let kmax = self.kmax();
        for zq in zs {
            let y = self.y(i, zq);
            for ci in 0..ct.c.len() {
                let m = ct.c.value(ci) * p_child;
                let z_prev = self.z_prev(m, y);
                let Some(prow) = prev.row(z_prev) else {
                    continue;
                };
                for xp in 0..prev.x_len {
                    let x_prev = prev.x_lo + xp as u64;
                    let Some((fi_child, x_key)) = self.advance(i, ct, x_prev, m, y) else {
                        continue;
                    };
                    for kappa_prev in 0..prev.kn {
                        let acc = prev.vals[prev.idx(prow, kappa_prev, xp)];
                        if acc == f64::NEG_INFINITY {
                            continue;
                        }
                        for kc in 0..=ct.kmax.min(kmax - kappa_prev) {
                            let child_val = ct.get(kc, ci, fi_child);
                            if child_val == f64::NEG_INFINITY {
                                continue;
                            }
                            visit(&Candidate {
                                zq,
                                z_prev,
                                kappa_prev,
                                x_prev,
                                kc,
                                ci,
                                fi_child,
                                x_key,
                                val: acc + child_val,
                            });
                        }
                    }
                }
            }
        }
    }

    /// Level `i` from level `i − 1`, keeping each cell's first maximum.
    fn step(&self, i: usize, prev: &ChainLevel, next: &mut ChainLevel) {
        let (ct, p_child) = self.child(i);
        let (z_lo, z_len) = self.z_range(i);
        let x = self.x_range(i, prev, ct, p_child);
        next.reset(false, (z_lo, z_len), self.kmax() + 1, x);
        self.candidates(i, prev, z_lo..z_lo + z_len as u64, |c| {
            let xr = (c.x_key - next.x_lo) as usize;
            assert!(xr < next.x_len, "x key outside its level's range");
            let cell = next.idx((c.zq - z_lo) as usize, c.kappa_prev + c.kc, xr);
            if c.val > next.vals[cell] {
                next.vals[cell] = c.val;
            }
        });
    }

    /// The candidate the forward pass kept for the level-`i` cell
    /// `(zq, κ, x_key)`: the cell's improve re-run over its own candidates
    /// only, in the forward loop order, so its first maximum wins again.
    fn predecessor(
        &self,
        i: usize,
        prev: &ChainLevel,
        zq: u64,
        kappa: usize,
        x_key: u64,
    ) -> Option<Candidate> {
        let mut best: Option<Candidate> = None;
        self.candidates(i, prev, zq..zq + 1, |c| {
            if c.x_key == x_key
                && c.kappa_prev + c.kc == kappa
                && best.as_ref().is_none_or(|b| c.val > b.val)
            {
                best = Some(*c);
            }
        });
        best
    }
}

/// Builds the table of a non-seed internal node via the helper chain,
/// swapping levels between the two `scratch` buffers.
fn build_internal(
    ctx: &Ctx<'_>,
    v: u32,
    tables: &[Option<Table>],
    scratch: &mut [ChainLevel; 2],
) -> Table {
    let kmax = ctx.kmax[v as usize];
    let mut t = Table::new(
        kmax,
        ctx.c_grid[v as usize].clone(),
        ctx.f_grid[v as usize].clone(),
    );
    let [prev, next] = scratch;
    for b in [false, true] {
        if b && kmax == 0 {
            continue;
        }
        let chain = Chain::new(ctx, tables, v, b);
        prev.start(kmax + 1, b);
        for i in 1..=chain.depth() {
            chain.step(i, prev, next);
            std::mem::swap(prev, next);
        }
        // Finalize: level-d z keys are f indices, x keys are c indices.
        for fi in 0..prev.z_len {
            for kappa in 0..prev.kn {
                for ci in 0..prev.x_len {
                    let acc = prev.vals[prev.idx(fi, kappa, ci)];
                    if acc == f64::NEG_INFINITY {
                        continue;
                    }
                    let val = acc + ctx.boost_term(v, b, t.c.value(ci), t.f.value(fi));
                    t.improve(kappa, ci, fi, val, ChainRef::Chain { b });
                }
            }
        }
    }
    t
}

// --------------------------------------------------------------------------
// Backtracking
// --------------------------------------------------------------------------

fn backtrack(
    ctx: &Ctx<'_>,
    tables: &[Option<Table>],
    v: u32,
    kappa: usize,
    ci: usize,
    fi: usize,
    out: &mut Vec<NodeId>,
) {
    let t = tables[v as usize].as_ref().expect("table");
    let cell = t.choice[t.idx(kappa, ci, fi)];
    match cell {
        ChainRef::None => {}
        ChainRef::Leaf => {
            if kappa > 0 && !ctx.tree.is_seed(v) {
                out.push(NodeId(v));
            }
        }
        ChainRef::Seed => {
            let (_, choices) = seed_knapsack(ctx, v, tables, true);
            let children = ctx.tree.children(v);
            let mut budget = kappa;
            for i in (0..children.len()).rev() {
                let Some((kc, ci_child)) = choices[i][budget] else {
                    continue;
                };
                backtrack(ctx, tables, children[i], kc, ci_child, 0, out);
                budget -= kc;
            }
        }
        ChainRef::Chain { b } => {
            if b {
                out.push(NodeId(v));
            }
            let children = ctx.tree.children(v);
            for (child, kc, ci_child, fi_child) in chain_picks(ctx, tables, v, b, kappa, ci, fi) {
                backtrack(ctx, tables, children[child], kc, ci_child, fi_child, out);
            }
        }
    }
}

/// Rebuilds the chain of the winning `b` and walks it back from the
/// table cell `(κ, ci, fi)`: the `(child position, κ_child, ci_child,
/// fi_child)` each level kept.
fn chain_picks(
    ctx: &Ctx<'_>,
    tables: &[Option<Table>],
    v: u32,
    b: bool,
    kappa: usize,
    ci: usize,
    fi: usize,
) -> Vec<(usize, usize, usize, usize)> {
    let chain = Chain::new(ctx, tables, v, b);
    let d = chain.depth();
    // Levels 0..d−1: the last level is only ever read through its
    // predecessors, so it is not rebuilt.
    let mut levels: Vec<ChainLevel> = Vec::with_capacity(d);
    let mut level = ChainLevel::default();
    level.start(chain.kmax() + 1, b);
    levels.push(level);
    for i in 1..d {
        let mut next = ChainLevel::default();
        chain.step(i, &levels[i - 1], &mut next);
        levels.push(next);
    }
    let (mut zq, mut kappa, mut x_key) = (fi as u64, kappa, ci as u64);
    let mut picks = Vec::with_capacity(d);
    for i in (1..=d).rev() {
        let p = chain
            .predecessor(i, &levels[i - 1], zq, kappa, x_key)
            .expect("every reached chain cell has a predecessor");
        picks.push((i - 1, p.kc, p.ci, p.fi_child));
        (zq, kappa, x_key) = (p.z_prev, p.kappa_prev, p.x_prev);
    }
    picks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_optimum;
    use kboost_graph::generators::{complete_binary_tree, random_tree};
    use kboost_graph::probability::ProbabilityModel;
    use kboost_graph::GraphBuilder;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    fn small_tree(seed: u64, n: usize, max_children: Option<usize>) -> BidirectedTree {
        let mut rng = SmallRng::seed_from_u64(seed);
        let topo = random_tree(n, max_children, &mut rng);
        let g = topo.into_bidirected_graph(ProbabilityModel::Constant(0.25), 2.0, &mut rng);
        BidirectedTree::from_digraph(&g, &[NodeId((seed % n as u64) as u32)]).unwrap()
    }

    /// The helper chain over one hash map per level, `z → (κ, x) →
    /// value`: the reference the dense chain must match bit for bit.
    fn build_internal_hashed(ctx: &Ctx<'_>, v: u32, tables: &[Option<Table>]) -> Table {
        type Level = HashMap<u64, HashMap<(u32, u64), f64>>;
        let tree = ctx.tree;
        let children = tree.children(v);
        let d = children.len();
        let kmax = ctx.kmax[v as usize];
        let unit = ctx.delta / ((d as f64) - 1.0).max(1.0);
        let mut t = Table::new(
            kmax,
            ctx.c_grid[v as usize].clone(),
            ctx.f_grid[v as usize].clone(),
        );

        for b in [false, true] {
            if b && kmax == 0 {
                continue;
            }
            let p_parent = ctx.parent_prob(v, b);

            // h_0: budget b consumed by boosting v, x_0 = 0, z unconstrained.
            let mut prev: HashMap<(u32, u64), f64> = HashMap::new();
            prev.insert((b as u32, 0u64), 0.0);
            let mut prev_level: Option<Level> = None; // None ⇒ use `prev` for any z

            for i in 1..=d {
                let child = children[i - 1];
                let ct = tables[child as usize].as_ref().expect("child table");
                let p_child = tree.edge(child, v).for_boosted(b);
                let is_last = i == d;
                let this_z: Vec<(u64, f64)> = if is_last {
                    (0..t.f.len())
                        .map(|fi| (fi as u64, t.f.value(fi) * p_parent))
                        .collect()
                } else {
                    let (lo, hi) = z_grid(ctx, v, i, unit);
                    (lo..=hi).map(|q| (q, q as f64 * unit)).collect()
                };

                let mut level: Level = HashMap::new();
                for &(zq, y) in &this_z {
                    for ci in 0..ct.c.len() {
                        let c_val = ct.c.value(ci);
                        let m = c_val * p_child;
                        let z_prev_val = 1.0 - (1.0 - m) * (1.0 - y);
                        let z_prev_q = ((z_prev_val / unit) + 1e-9).floor() as u64;
                        let inner: &HashMap<(u32, u64), f64> = match &prev_level {
                            None => &prev,
                            Some(lv) => match lv.get(&z_prev_q) {
                                Some(m) => m,
                                None => continue,
                            },
                        };
                        for (&(kappa_prev, xq_prev), &acc) in inner {
                            let x_prev = xq_prev as f64 * unit;
                            let f_child = 1.0 - (1.0 - x_prev) * (1.0 - y);
                            let Some(fi_child) = ct.f.store_index(f_child) else {
                                continue;
                            };
                            let x_new = 1.0 - (1.0 - x_prev) * (1.0 - m);
                            let x_key = if is_last {
                                match t.c.store_index(x_new) {
                                    Some(ci_v) => ci_v as u64,
                                    None => continue,
                                }
                            } else {
                                ((x_new / unit) + 1e-9).floor() as u64
                            };
                            let k_budget = kmax - (kappa_prev as usize).min(kmax);
                            for kc in 0..=ct.kmax.min(k_budget) {
                                let child_val = ct.get(kc, ci, fi_child);
                                if child_val == f64::NEG_INFINITY {
                                    continue;
                                }
                                let kappa_new = kappa_prev + kc as u32;
                                let val = acc + child_val;
                                let slot = level.entry(zq).or_default();
                                let cell =
                                    slot.entry((kappa_new, x_key)).or_insert(f64::NEG_INFINITY);
                                if val > *cell {
                                    *cell = val;
                                }
                            }
                        }
                    }
                }
                prev_level = Some(level);
            }

            if let Some(level) = &prev_level {
                for (&fi, inner) in level {
                    for (&(kappa, ci), &acc) in inner {
                        let c_val = t.c.value(ci as usize);
                        let f_val = t.f.value(fi as usize);
                        let val = acc + ctx.boost_term(v, b, c_val, f_val);
                        t.improve(
                            kappa as usize,
                            ci as usize,
                            fi as usize,
                            val,
                            ChainRef::Chain { b },
                        );
                    }
                }
            }
        }
        t
    }

    /// `Σ_{u,v} Π p'` from a walk of its own: the reference for
    /// `path_mass`'s total.
    fn boosted_path_mass(tree: &BidirectedTree) -> f64 {
        let n = tree.num_nodes();
        let mut total = 0.0;
        let mut stack: Vec<(u32, u32, f64)> = Vec::new();
        for src in 0..n as u32 {
            total += 1.0; // u = v
            stack.clear();
            stack.push((src, src, 1.0));
            while let Some((u, from, prod)) = stack.pop() {
                for nb in tree.neighbors(u) {
                    if nb.id == from {
                        continue;
                    }
                    let p = prod * nb.out.boosted;
                    if p > 1e-12 {
                        total += p;
                        stack.push((nb.id, u, p));
                    }
                }
            }
        }
        total
    }

    fn trivalency_binary_tree(seed: u64, n: usize, seeds: usize) -> BidirectedTree {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = complete_binary_tree(n).into_bidirected_graph(
            ProbabilityModel::Trivalency,
            2.0,
            &mut rng,
        );
        let mut picked: Vec<NodeId> = Vec::new();
        while picked.len() < seeds {
            let s = NodeId(rng.random_range(0..n as u32));
            if !picked.contains(&s) {
                picked.push(s);
            }
        }
        BidirectedTree::from_digraph(&g, &picked).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn dense_chain_matches_hashed_oracle(
            tree_seed in 0u64..1_000_000,
            n in 2usize..14,
            k in 1usize..=5,
            eps_idx in 0usize..3,
            seed_count in 1usize..3,
        ) {
            let eps = [0.2, 0.5, 1.0][eps_idx];
            let mut rng = SmallRng::seed_from_u64(tree_seed);
            let topo = random_tree(n, None, &mut rng);
            let g = topo.into_bidirected_graph(ProbabilityModel::Trivalency, 2.0, &mut rng);
            let mut seeds: Vec<NodeId> = Vec::new();
            while seeds.len() < seed_count.min(n - 1) {
                let s = NodeId(rng.random_range(0..n as u32));
                if !seeds.contains(&s) {
                    seeds.push(s);
                }
            }
            let t = BidirectedTree::from_digraph(&g, &seeds).unwrap();

            let ctx = Ctx::new(&t, k, eps);
            let mut scratch = Default::default();
            let dense = build_tables(&ctx, |v, tables| build_internal(&ctx, v, tables, &mut scratch));
            let oracle = build_tables(&ctx, |v, tables| build_internal_hashed(&ctx, v, tables));
            for (v, (a, b)) in dense.iter().zip(&oracle).enumerate() {
                let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
                let bits = |t: &Table| t.vals.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert!(bits(a) == bits(b), "node {} table differs from the oracle", v);
                prop_assert!(a.choice == b.choice, "node {} choices differ from the oracle", v);
            }
            let oracle_value = root_optimum(&oracle).map_or(0.0, |(val, _, _)| val.max(0.0));
            let out = dp_boost(&t, k, eps);
            prop_assert_eq!(out.dp_value.to_bits(), oracle_value.to_bits());
            prop_assert!(
                out.boost >= out.dp_value - 1e-9,
                "boost {} below dp value {}", out.boost, out.dp_value
            );
        }
    }

    #[test]
    fn dp_boost_is_deterministic() {
        for tree_seed in 0..100 {
            let t = trivalency_binary_tree(tree_seed, 200, 10);
            let first = dp_boost(&t, 10, 0.5);
            let second = dp_boost(&t, 10, 0.5);
            assert_eq!(first.boost_set, second.boost_set, "tree {tree_seed}");
            assert_eq!(
                first.boost.to_bits(),
                second.boost.to_bits(),
                "tree {tree_seed}"
            );
        }
    }

    #[test]
    fn path_mass_total_matches_separate_walk() {
        let mut trees: Vec<BidirectedTree> = (0..6).map(|s| small_tree(s, 12, None)).collect();
        trees.extend((0..4).map(|s| trivalency_binary_tree(s, 63, 3)));
        for t in &trees {
            assert_eq!(path_mass(t).total.to_bits(), boosted_path_mass(t).to_bits());
        }
    }

    #[test]
    fn dp_value_lower_bounds_returned_set() {
        for seed in 0..15 {
            let t = small_tree(seed, 7, None);
            let out = dp_boost(&t, 2, 0.5);
            assert!(
                out.dp_value <= out.boost + 1e-6,
                "seed {seed}: dp value {} exceeds exact boost {}",
                out.dp_value,
                out.boost
            );
            assert!(out.boost_set.len() <= 2);
        }
    }

    #[test]
    fn dp_is_near_optimal_on_small_trees() {
        for seed in 0..15 {
            let t = small_tree(seed + 100, 7, None);
            let opt = brute_force_optimum(&t, 2);
            let out = dp_boost(&t, 2, 0.25);
            assert!(
                out.boost >= (1.0 - 0.25) * opt.boost - 1e-9,
                "seed {seed}: DP {} below (1-ε)·OPT ({})",
                out.boost,
                opt.boost
            );
            assert!(out.boost <= opt.boost + 1e-9, "DP beat brute force?!");
        }
    }

    #[test]
    fn dp_handles_binary_trees() {
        let mut rng = SmallRng::seed_from_u64(3);
        let topo = complete_binary_tree(15);
        let g = topo.into_bidirected_graph(ProbabilityModel::Constant(0.2), 2.0, &mut rng);
        let t = BidirectedTree::from_digraph(&g, &[NodeId(0)]).unwrap();
        let opt = brute_force_optimum(&t, 3);
        let out = dp_boost(&t, 3, 0.5);
        assert!(out.boost >= (1.0 - 0.5) * opt.boost - 1e-9);
        assert!(out.boost_set.len() <= 3);
    }

    #[test]
    fn dp_handles_high_degree_nodes() {
        // A star with 5 leaves exercises the general (d > 2) chain.
        let mut b = GraphBuilder::new(6);
        for v in 1..6u32 {
            b.add_bidirected_edge(NodeId(0), NodeId(v), 0.3, 0.55)
                .unwrap();
        }
        let g = b.build().unwrap();
        let t = BidirectedTree::from_digraph(&g, &[NodeId(1)]).unwrap();
        let opt = brute_force_optimum(&t, 2);
        let out = dp_boost(&t, 2, 0.3);
        assert!(
            out.boost >= (1.0 - 0.3) * opt.boost - 1e-9,
            "DP {} vs OPT {}",
            out.boost,
            opt.boost
        );
    }

    #[test]
    fn tighter_epsilon_never_hurts() {
        let t = small_tree(7, 8, Some(3));
        let loose = dp_boost(&t, 2, 1.0);
        let tight = dp_boost(&t, 2, 0.2);
        assert!(tight.boost >= loose.boost - 1e-9);
        assert!(tight.delta <= loose.delta);
    }

    #[test]
    fn zero_budget_returns_empty() {
        let t = small_tree(11, 6, None);
        let out = dp_boost(&t, 0, 0.5);
        assert!(out.boost_set.is_empty());
        assert_eq!(out.boost, 0.0);
    }

    #[test]
    fn grid_semantics() {
        let g = Grid::Units {
            lo: 2,
            hi: 10,
            unit: 0.1,
        };
        assert_eq!(g.len(), 9);
        assert!((g.value(0) - 0.2).abs() < 1e-12);
        assert_eq!(g.store_index(0.55), Some(3)); // ⌊5.5⌋ = 5 → idx 3
        assert_eq!(g.store_index(0.05), None); // below range
        assert_eq!(g.store_index(5.0), Some(8)); // clamped to hi
        let s = Grid::Singleton(1.0);
        assert_eq!(s.store_index(1.0), Some(0));
        assert_eq!(s.store_index(0.5), None);
    }
}
