//! The SPMD GCN trainer: full forward/backward/SGD training where every
//! SpMM runs through one of the four distributed algorithm families.
//!
//! Every rank holds its block of `H⁰`, labels and mask; weights are
//! replicated (deterministic seeded init) and kept consistent by
//! all-reducing the weight gradients, exactly as the paper's
//! formulation (§4.1 "W is fully-replicated").
//!
//! One rank program (`run_rank`) serves 1D, 1.5D, 2D and 3D alike:
//! the families differ only in what their `PlanKind` answers — owned
//! rows, an optional feature panel, the replication, and the SpMM
//! dispatch. Every epoch runs as an *attempt* that computes gradients
//! and a record without touching training state; a commit gate then
//! applies the optimizer step, the record and the checkpoint.
//!
//! # Recovery ladder
//!
//! [`try_train_distributed`] wraps the rank program in a supervisor
//! with an escalating recovery ladder:
//!
//! 1. **Retransmit** — dropped/corrupted frames are re-sent by the
//!    transport layer in [`gnn_comm`]; invisible here beyond stats.
//! 2. **Replica failover** (1.5D with [`RobustnessConfig::failover`]) —
//!    a rank crash mid-epoch aborts the epoch attempt on every
//!    survivor; the dead rank's duties are reassigned to a same-row
//!    replica and the attempt re-runs *in the same world*, producing
//!    bit-identical results with no restart.
//! 3. **Checkpoint restart** — an unrecoverable-in-place loss (a whole
//!    replica group dead, or any crash without failover) tears the
//!    world down and resumes from the newest verified
//!    [`Checkpoint`] in the [`CheckpointStore`], up to
//!    `max_restarts` times.
//! 4. **Abort** — anything else (or an exhausted restart budget)
//!    surfaces as a structured [`WorldError`].
//!
//! Because weights are replicated and every epoch is deterministic,
//! every rung reproduces the fault-free loss trajectory and final
//! weights bit-for-bit.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use gnn_comm::{
    CostModel, EpochAbortPanic, FaultInjector, FaultPlan, OverlapConfig, Phase, RankCtx, SpanKind,
    ThreadWorld, WorldError, WorldStats, WorldTrace,
};
use spmat::dataset::Dataset;
use spmat::{Csr, Dense};

use crate::model::{softmax_cross_entropy_sums, ArchKind, GcnConfig, Weights};
use crate::optim::Optimizer;
use crate::reference::EpochRecord;

use super::buffers::EpochBuffers;
use super::checkpoint::{Checkpoint, CheckpointBackend, CheckpointStore};
use super::failover::{failover_allreduce_replicated, spmm_15d_failover_buf, FailoverView};
use super::oned::{spmm_1d_aware_buf, spmm_1d_oblivious_buf};
use super::overlap::{spmm_1d_aware_pipelined_buf, spmm_1d_oblivious_pipelined_buf, OverlapPlan1d};
use super::plan::{Plan15d, Plan1d};
use super::stages::{run_stage_loop, StageLoop};
use super::threed::Plan3d;
use super::twod::Plan2d;

/// Which distributed SpMM drives training.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algo {
    /// Block-row distribution over all `p` ranks.
    OneD {
        /// Sparsity-aware (all-to-allv of needed rows) vs oblivious
        /// (CAGNET-style broadcasts).
        aware: bool,
    },
    /// `p/c × c` grid with `c`-fold block-row replication.
    OneFiveD {
        /// Sparsity-aware vs oblivious block exchange.
        aware: bool,
        /// Replication factor.
        c: usize,
    },
    /// `pr × pc` SUMMA grid: block rows across grid rows, feature
    /// panels across grid columns.
    TwoD {
        /// Sparsity-aware vs oblivious stage exchange.
        aware: bool,
        /// Grid columns (feature panels); `pr` comes from the bounds.
        pc: usize,
    },
    /// `pr × pc × c` grid (2.5D-style): the 2D grid replicated over `c`
    /// layers, each folding a slice of the SUMMA stages.
    ThreeD {
        /// Sparsity-aware vs oblivious stage exchange.
        aware: bool,
        /// Grid columns (feature panels).
        pc: usize,
        /// Replication layers.
        c: usize,
    },
}

impl Algo {
    /// Replication degree (1 for 1D and 2D).
    pub fn replication(&self) -> usize {
        match *self {
            Algo::OneD { .. } | Algo::TwoD { .. } => 1,
            Algo::OneFiveD { c, .. } | Algo::ThreeD { c, .. } => c,
        }
    }

    /// Whether the variant ships only needed rows.
    pub fn aware(&self) -> bool {
        match *self {
            Algo::OneD { aware }
            | Algo::OneFiveD { aware, .. }
            | Algo::TwoD { aware, .. }
            | Algo::ThreeD { aware, .. } => aware,
        }
    }

    /// Figure-legend style label.
    pub fn label(&self) -> String {
        match *self {
            Algo::OneD { aware: false } => "1D oblivious (CAGNET)".into(),
            Algo::OneD { aware: true } => "1D sparsity-aware".into(),
            Algo::OneFiveD { aware: false, c } => format!("1.5D oblivious c={c}"),
            Algo::OneFiveD { aware: true, c } => format!("1.5D sparsity-aware c={c}"),
            Algo::TwoD { aware: false, pc } => format!("2D oblivious pc={pc}"),
            Algo::TwoD { aware: true, pc } => format!("2D sparsity-aware pc={pc}"),
            Algo::ThreeD {
                aware: false,
                pc,
                c,
            } => format!("3D oblivious pc={pc} c={c}"),
            Algo::ThreeD { aware: true, pc, c } => format!("3D sparsity-aware pc={pc} c={c}"),
        }
    }
}

/// Fault-tolerance knobs for a training run. The default is the
/// fault-free fast path: no injection, no checkpoints, no restarts.
#[derive(Clone, Debug)]
pub struct RobustnessConfig {
    /// Faults to inject (None = clean run).
    pub faults: Option<FaultPlan>,
    /// Snapshot training state every this many epochs (0 = never).
    /// A crash restarts from the newest snapshot, or from scratch.
    pub checkpoint_every: usize,
    /// How many recoverable failures to survive before giving up.
    pub max_restarts: usize,
    /// Deadlock-watchdog timeout for blocking communication.
    pub timeout: Duration,
    /// Degraded-mode failover (1.5D only): survive a rank crash
    /// *in place* by reassigning the dead rank's duties to a same-row
    /// replica, falling back to a checkpoint restart only when an
    /// entire replica group is lost. Ignored for algorithms without
    /// replication, which go straight to the restart ladder.
    pub failover: bool,
}

impl Default for RobustnessConfig {
    fn default() -> Self {
        Self {
            faults: None,
            checkpoint_every: 0,
            max_restarts: 0,
            timeout: ThreadWorld::DEFAULT_TIMEOUT,
            failover: false,
        }
    }
}

/// Training-run configuration.
#[derive(Clone, Debug)]
pub struct DistConfig {
    /// SpMM algorithm variant.
    pub algo: Algo,
    /// Model shape / learning rate / init seed.
    pub gcn: GcnConfig,
    /// Number of epochs.
    pub epochs: usize,
    /// Machine model pricing the run.
    pub model: CostModel,
    /// Fault injection / checkpointing / watchdog settings.
    pub robust: RobustnessConfig,
    /// Record a structured span/event trace of the run (epoch →
    /// forward/loss/backward → SpMM, plus every communication op).
    /// Off by default: steady-state epochs then do no tracing work.
    pub trace: bool,
    /// Comm/compute overlap: when enabled, every distributed SpMM runs
    /// its pipelined variant (remote fetches split into
    /// [`OverlapConfig::chunks`] stages, folded into the accumulation
    /// while later chunks are in flight). Results are bit-identical to
    /// the blocking schedule and logical volumes are unchanged; only
    /// the modeled time attribution moves (exposed comm lands in
    /// [`Phase::Overlap`]). Under failover only degraded epochs (a
    /// sealed rank death) run the blocking failover schedule.
    pub overlap: OverlapConfig,
    /// Hostfile for the process backend: switches the rank mesh from
    /// Unix-domain sockets to TCP listeners at the listed `host[:port]`
    /// addresses (one line per rank; rank 0's port doubles as the
    /// rendezvous endpoint). `None` = single-machine UDS mesh. Ignored
    /// by the thread backend.
    pub hostfile: Option<std::path::PathBuf>,
    /// Deterministic network-chaos spec for the process backend (see
    /// `NetChaosPlan`): seeded per-link latency/bandwidth/partition/
    /// refusal rules, replayed bit-identically from the seed. `None` =
    /// no chaos. Ignored by the thread backend.
    pub net_chaos: Option<String>,
}

impl DistConfig {
    /// A fault-free configuration (the common case).
    pub fn new(algo: Algo, gcn: GcnConfig, epochs: usize, model: CostModel) -> Self {
        Self {
            algo,
            gcn,
            epochs,
            model,
            robust: RobustnessConfig::default(),
            trace: false,
            overlap: OverlapConfig::off(),
            hostfile: None,
            net_chaos: None,
        }
    }
}

/// Everything a distributed run produces.
#[derive(Clone, Debug)]
pub struct DistOutcome {
    /// Per-epoch loss/accuracy (identical on all ranks; rank 0's copy).
    pub records: Vec<EpochRecord>,
    /// Final weights (identical on all ranks; rank 0's copy).
    pub weights: Weights,
    /// Accumulated per-rank stats over all epochs (of the attempt that
    /// completed; epochs re-run after a restart are counted afresh).
    pub stats: WorldStats,
    /// How many times the world was torn down and resumed.
    pub restarts: usize,
    /// How many rank deaths were absorbed *in place* by degraded-mode
    /// failover in the attempt that completed (0 without
    /// [`RobustnessConfig::failover`]).
    pub failovers: u64,
    /// Structured trace of the completed attempt (when
    /// [`DistConfig::trace`] was set).
    pub trace: Option<WorldTrace>,
    /// The epoch each restart resumed from (one entry per restart:
    /// the checkpoint's cursor, or 0 for a from-scratch restart).
    pub resume_points: Vec<usize>,
}

/// One algorithm family's communication plan. Its methods are the only
/// places the rank program and the analytic replay branch on the family.
pub(crate) enum PlanKind {
    OneD { plan: Plan1d, aware: bool },
    OneFiveD { plan: Plan15d, aware: bool },
    TwoD(Plan2d),
    ThreeD(Plan3d),
}

/// A grid rank's feature panel. Activations stay full-width and
/// replicated across the grid row; only the SpMM operands are the
/// rank's own column panel, and the dense layer sums the panels back
/// together over [`Panel::row_group`].
pub(crate) struct Panel {
    /// Grid column: which of the `pc` panels this rank owns.
    grid_j: usize,
    /// Panels per feature dimension (grid columns).
    pub(crate) pc: usize,
    /// The `pc` ranks of this rank's grid row (within its layer).
    row_group: Vec<usize>,
}

/// Column range `[lo, hi)` of `panel` in a width-`f` dimension; the
/// whole width without a panel.
pub(crate) fn panel_cols(panel: Option<&Panel>, f: usize) -> (usize, usize) {
    match panel {
        Some(pn) => {
            let b = spmat::gen::sbm::block_bounds(f, pn.pc);
            (b[pn.grid_j], b[pn.grid_j + 1])
        }
        None => (0, f),
    }
}

/// Rank-local state of the pipelined SpMM schedule (`cfg.overlap` on).
pub(crate) enum Pipeline {
    /// 1D: sparsity-derived peer chunking, built once per rank.
    OneD(OverlapPlan1d),
    /// 1.5D/2D/3D: the stage loop folded in this many chunks.
    Stages(usize),
}

impl Pipeline {
    /// The stage loop's schedule: `Some(chunks)` when pipelined.
    pub(crate) fn chunks(pipe: Option<&Pipeline>) -> Option<usize> {
        match pipe {
            Some(Pipeline::Stages(k)) => Some(*k),
            _ => None,
        }
    }
}

impl PlanKind {
    /// The block row `[lo, hi)` rank `me` owns.
    pub(crate) fn rows(&self, me: usize) -> (usize, usize) {
        match self {
            PlanKind::OneD { plan, .. } => (plan.ranks[me].row_lo, plan.ranks[me].row_hi),
            PlanKind::OneFiveD { plan, .. } => (plan.ranks[me].row_lo, plan.ranks[me].row_hi),
            PlanKind::TwoD(pl) => (pl.ranks[me].row_lo, pl.ranks[me].row_hi),
            PlanKind::ThreeD(pl) => (pl.ranks[me].row_lo, pl.ranks[me].row_hi),
        }
    }

    /// Rank `me`'s feature panel: `Some` for every grid plan (pc = 1
    /// included), `None` for 1D/1.5D.
    pub(crate) fn panel(&self, me: usize) -> Option<Panel> {
        match self {
            PlanKind::OneD { .. } | PlanKind::OneFiveD { .. } => None,
            PlanKind::TwoD(pl) => {
                let rp = &pl.ranks[me];
                Some(Panel {
                    grid_j: rp.j,
                    pc: pl.pc,
                    row_group: (0..pl.pc).map(|j| pl.rank_of(rp.i, j)).collect(),
                })
            }
            PlanKind::ThreeD(pl) => {
                let rp = &pl.ranks[me];
                Some(Panel {
                    grid_j: rp.j,
                    pc: pl.pc,
                    row_group: (0..pl.pc).map(|j| pl.rank_of(rp.i, j, rp.l)).collect(),
                })
            }
        }
    }

    /// Identical layer copies `c` of every rank's weight-gradient block
    /// (1 for 1D and 2D).
    fn layers(&self) -> usize {
        match self {
            PlanKind::OneD { .. } | PlanKind::TwoD(_) => 1,
            PlanKind::OneFiveD { plan, .. } => plan.c,
            PlanKind::ThreeD(pl) => pl.c,
        }
    }

    /// Ranks holding each block row (`pc·c`): the duplication divided
    /// out of the all-reduced masked count.
    fn row_copies(&self) -> usize {
        let pc = match self {
            PlanKind::TwoD(pl) => pl.pc,
            PlanKind::ThreeD(pl) => pl.pc,
            PlanKind::OneD { .. } | PlanKind::OneFiveD { .. } => 1,
        };
        pc * self.layers()
    }

    /// Rank `me`'s pipelined-schedule state, when `overlap` is on.
    pub(crate) fn pipeline(&self, me: usize, overlap: OverlapConfig) -> Option<Pipeline> {
        match self {
            _ if !overlap.enabled => None,
            PlanKind::OneD { plan, aware } => Some(Pipeline::OneD(OverlapPlan1d::build(
                plan,
                me,
                overlap.chunks,
                *aware,
            ))),
            _ => Some(Pipeline::Stages(overlap.chunks)),
        }
    }

    /// Rank `me`'s 1.5D/2D/3D stage loop (`None` for 1D): the one place
    /// a family's plan becomes what the executor runs and the analytic
    /// replay prices.
    pub(crate) fn stage_loop(&self, me: usize) -> Option<StageLoop<'_>> {
        match self {
            PlanKind::OneD { .. } => None,
            PlanKind::OneFiveD { plan, aware } => Some(plan.stage_loop(me, *aware)),
            PlanKind::TwoD(pl) => Some(pl.stage_loop(me)),
            PlanKind::ThreeD(pl) => Some(pl.stage_loop(me)),
        }
    }

    /// One distributed SpMM `Â·h` of this rank's operand: the degraded
    /// 1.5D failover SpMM when `degraded` names dead ranks, else the
    /// pipelined schedule when `pipe` is set, else the blocking one.
    fn spmm(
        &self,
        ctx: &mut RankCtx,
        h: &Dense,
        pipe: Option<&Pipeline>,
        degraded: Option<&FailoverView>,
        bufs: &mut EpochBuffers,
    ) -> Dense {
        if let Some(view) = degraded {
            let PlanKind::OneFiveD { plan, aware } = self else {
                unreachable!("failover views exist only for 1.5D plans")
            };
            return spmm_15d_failover_buf(ctx, plan, view, h, *aware, bufs);
        }
        match (self, pipe) {
            (PlanKind::OneD { plan, aware: true }, None) => spmm_1d_aware_buf(ctx, plan, h, bufs),
            (PlanKind::OneD { plan, aware: false }, None) => {
                spmm_1d_oblivious_buf(ctx, plan, h, bufs)
            }
            (PlanKind::OneD { plan, aware }, Some(Pipeline::OneD(ov))) => {
                if *aware {
                    spmm_1d_aware_pipelined_buf(ctx, plan, h, ov, bufs)
                } else {
                    spmm_1d_oblivious_pipelined_buf(ctx, plan, h, ov, bufs)
                }
            }
            (PlanKind::OneD { .. }, Some(Pipeline::Stages(_))) => {
                unreachable!("pipeline state built for another plan")
            }
            (_, pipe) => {
                let sl = self.stage_loop(ctx.rank()).expect("a stage-loop plan");
                run_stage_loop(ctx, &sl, h, Pipeline::chunks(pipe), bufs)
            }
        }
    }

    /// This attempt's failover view when it is degraded: built from the
    /// sealed death set (identical on every rank without communication)
    /// in a failover world, `None` when nobody is dead or failover is
    /// off.
    fn degraded_view(&self, ctx: &mut RankCtx) -> Option<FailoverView> {
        match self {
            PlanKind::OneFiveD { plan, .. } if ctx.failover_enabled() => {
                Some(FailoverView::compute(ctx, plan)).filter(FailoverView::is_degraded)
            }
            _ => None,
        }
    }
}

/// Builds the communication plan for `algo` over the block-row
/// `bounds` and derives the world size (shared by the thread
/// supervisor, the process-backend child and the analytic model).
pub(crate) fn build_plan(adj: &Csr, bounds: &[usize], algo: Algo) -> (usize, PlanKind) {
    let pr = bounds.len() - 1;
    match algo {
        Algo::OneD { aware } => (
            pr,
            PlanKind::OneD {
                plan: Plan1d::build(adj, bounds),
                aware,
            },
        ),
        Algo::OneFiveD { aware, c } => (
            pr * c,
            PlanKind::OneFiveD {
                plan: Plan15d::build(adj, pr * c, c, bounds, aware),
                aware,
            },
        ),
        Algo::TwoD { aware, pc } => (
            pr * pc,
            PlanKind::TwoD(Plan2d::build(adj, pr, pc, bounds, aware)),
        ),
        Algo::ThreeD { aware, pc, c } => (
            pr * pc * c,
            PlanKind::ThreeD(Plan3d::build(adj, pr, pc, c, bounds, aware)),
        ),
    }
}

/// Panics unless the model's input and output widths fit `ds`.
pub(crate) fn assert_dims_match(ds: &Dataset, gcn: &GcnConfig) {
    assert_eq!(gcn.dims[0], ds.f(), "input width mismatch");
    assert_eq!(
        *gcn.dims.last().unwrap(),
        ds.num_classes,
        "class count mismatch"
    );
}

/// Trains a GCN on `ds` (already permuted so parts are contiguous).
///
/// `bounds` are the block-row boundaries: `p + 1` entries for 1D, or
/// `p/c + 1` entries for 1.5D (each block row is replicated on `c`
/// ranks). The world size is derived accordingly.
///
/// # Panics
/// Panics on shape mismatches (dims vs dataset), invalid grids, or any
/// unrecovered rank failure — use [`try_train_distributed`] to handle
/// failures as values.
pub fn train_distributed(ds: &Dataset, bounds: &[usize], cfg: &DistConfig) -> DistOutcome {
    try_train_distributed(ds, bounds, cfg)
        .unwrap_or_else(|e| panic!("distributed training failed: {e}"))
}

/// Like [`train_distributed`], but failures come back as structured
/// [`WorldError`]s, and recoverable ones (injected crashes) trigger up
/// to `cfg.robust.max_restarts` checkpoint-resume cycles first.
pub fn try_train_distributed(
    ds: &Dataset,
    bounds: &[usize],
    cfg: &DistConfig,
) -> Result<DistOutcome, WorldError> {
    let store: Mutex<CheckpointStore> = Mutex::new(CheckpointStore::new());
    try_train_distributed_with_store(ds, bounds, cfg, &store)
}

/// Like [`try_train_distributed`], but snapshots go through the given
/// [`CheckpointBackend`] — an in-memory ring for thread worlds, a
/// [`super::checkpoint::DiskCheckpointStore`] when the supervisor must
/// survive the death of whole rank processes, or a test double.
pub fn try_train_distributed_with_store(
    ds: &Dataset,
    bounds: &[usize],
    cfg: &DistConfig,
    store: &dyn CheckpointBackend,
) -> Result<DistOutcome, WorldError> {
    assert_dims_match(ds, &cfg.gcn);
    let (p, plan) = build_plan(&ds.norm_adj, bounds, cfg.algo);

    // One injector for the whole supervised run: a crash fault that
    // fired in attempt k must not re-fire in attempt k+1.
    let injector = cfg
        .robust
        .faults
        .as_ref()
        .filter(|plan| !plan.is_empty())
        .map(|plan| Arc::new(FaultInjector::new(plan.clone())));
    // Replication is what makes in-place failover possible; without it
    // the flag silently defers to the checkpoint-restart rung.
    let use_failover = cfg.robust.failover && matches!(cfg.algo, Algo::OneFiveD { .. });
    let mut restarts = 0;
    let mut resume_points = Vec::new();

    loop {
        let mut world = ThreadWorld::new(p, cfg.model)
            .with_timeout(cfg.robust.timeout)
            .with_tracing(cfg.trace)
            .with_failover(use_failover);
        if let Some(inj) = &injector {
            world = world.with_injector(inj.clone());
        }
        let rank = |ctx: &mut RankCtx| run_rank(ctx, ds, cfg, &plan, store);
        let run = if use_failover {
            world.try_run_failover(rank).map(|(results, stats, trace)| {
                // Survivors hold identical replicated results; dead
                // ranks' slots are `None`.
                let (records, weights) = results
                    .into_iter()
                    .flatten()
                    .next()
                    .expect("a completed failover run has at least one survivor");
                (records, weights, stats, trace)
            })
        } else {
            world
                .try_run_traced(rank)
                .map(|(mut results, stats, trace)| {
                    let (records, weights) = results.swap_remove(0);
                    (records, weights, stats, trace)
                })
        };
        match run {
            Ok((records, weights, stats, trace)) => {
                return Ok(DistOutcome {
                    records,
                    weights,
                    failovers: stats.failovers,
                    stats,
                    restarts,
                    trace,
                    resume_points,
                });
            }
            Err(e) if e.is_recoverable() && restarts < cfg.robust.max_restarts => {
                restarts += 1;
                resume_points.push(store.resume_epoch().unwrap_or(0));
            }
            Err(e) => return Err(e),
        }
    }
}

/// One rank's whole training program, for every algorithm: restore
/// from the shared checkpoint (if any), then run each remaining epoch
/// as an attempt. The attempt computes the epoch's gradients and record
/// without touching training state; only a committed attempt steps the
/// optimizer, appends the record and snapshots. Outside failover mode
/// every attempt commits. In a failover world a death aborts the
/// attempt on every survivor ([`EpochAbortPanic`]), and the epoch
/// re-runs with the dead rank's duties reassigned via [`FailoverView`].
///
/// The four families differ only in what [`PlanKind`] answers: the
/// owned rows, an optional feature [`Panel`] (2D/3D), the replication
/// and the SpMM dispatch. A grid rank keeps `H`/`Z` full-width and
/// replicated across its grid row: per layer it slices its own panel,
/// runs the SpMM on it, multiplies the panel against the matching rows
/// of `W` and all-reduces the partial products over the grid row.
/// Backward mirrors it: SpMM of the own gradient panel, a grid-row
/// all-reduce reassembles the full-width `AᵀG`, and the rank fills its
/// panel's rows of the weight gradient.
pub(crate) fn run_rank(
    ctx: &mut RankCtx,
    ds: &Dataset,
    cfg: &DistConfig,
    plan: &PlanKind,
    store: &dyn CheckpointBackend,
) -> (Vec<EpochRecord>, Weights) {
    let me = ctx.rank();
    let (lo, hi) = plan.rows(me);
    let rows = hi - lo;
    let h0 = ds.features.row_slice(lo, hi);
    let labels = &ds.labels[lo..hi];
    let mask = &ds.train_mask[lo..hi];
    let panel = plan.panel(me);
    let panel = panel.as_ref();
    let pipe = plan.pipeline(me, cfg.overlap);
    let all_group: Vec<usize> = (0..ctx.p()).collect();

    // Resume point: the checkpoint holds replicated state, so every
    // rank restores the identical (checksum-verified) snapshot without
    // communicating.
    let (mut epoch, mut weights, mut optimizer, mut records) = match store.restore() {
        Some(ck) => (ck.next_epoch, ck.weights, ck.optimizer, ck.records),
        None => (
            0,
            Weights::init(&cfg.gcn),
            Optimizer::from_config(&cfg.gcn),
            Vec::with_capacity(cfg.epochs),
        ),
    };
    let l_total = cfg.gcn.layers();
    let dims = &cfg.gcn.dims;
    let arch = cfg.gcn.arch;

    // Per-rank scratch: every O(n·f) temporary of an epoch cycles
    // through this pool, and the layer stacks are reused across epochs,
    // so steady-state epochs stay off the allocator.
    let mut bufs = EpochBuffers::new();
    let mut hs: Vec<Dense> = Vec::with_capacity(l_total + 1);
    let mut zs: Vec<Dense> = Vec::with_capacity(l_total);
    let mut ahs: Vec<Dense> = Vec::with_capacity(l_total);
    let mut grads: Vec<Dense> = Vec::with_capacity(l_total);

    while epoch < cfg.epochs {
        ctx.set_epoch(epoch);
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            let degraded = plan.degraded_view(ctx);
            let degraded = degraded.as_ref();
            let spmm = |ctx: &mut RankCtx, h: &Dense, bufs: &mut EpochBuffers| {
                plan.spmm(ctx, h, pipe.as_ref(), degraded, bufs)
            };
            // Whole-world all-reduce of row-replicated values.
            let allreduce_all = |ctx: &mut RankCtx, buf: &mut [f64]| match degraded {
                Some(view) => failover_allreduce_replicated(ctx, view, buf),
                None => ctx.allreduce_sum(buf, &all_group),
            };
            ctx.span_begin(SpanKind::Epoch, Phase::Other);

            // ---- forward ----
            ctx.span_begin(SpanKind::Forward, Phase::Other);
            let mut h0_epoch = bufs.take_dense(rows, dims[0]);
            h0_epoch.data_mut().copy_from_slice(h0.data());
            hs.push(h0_epoch);
            for l in 0..l_total {
                let (d, d_out) = (dims[l], dims[l + 1]);
                let (ilo, ihi) = panel_cols(panel, d);
                let ipw = ihi - ilo;
                let h_panel = panel.map(|_| {
                    ctx.compute((rows * ipw) as u64, || {
                        slice_panel(&hs[l], ilo, ihi, &mut bufs)
                    })
                });
                let h_in = h_panel.as_ref().unwrap_or(&hs[l]);
                let ah = spmm(ctx, h_in, &mut bufs);
                // The panel's rows of W; without a panel, all of W.
                let w = &weights.mats[l];
                let mut z = bufs.take_dense(rows, d_out);
                match arch {
                    ArchKind::Gcn => ctx.compute((2 * rows * ipw * d_out) as u64, || {
                        if ipw == d {
                            ah.matmul_into(w, &mut z)
                        } else {
                            ah.matmul_into(&w.row_slice(ilo, ihi), &mut z)
                        }
                    }),
                    ArchKind::Sage => {
                        let mut tmp = bufs.take_dense(rows, d_out);
                        ctx.compute((4 * rows * ipw * d_out + rows * d_out) as u64, || {
                            h_in.matmul_into(&w.row_slice(ilo, ihi), &mut z);
                            ah.matmul_into(&w.row_slice(d + ilo, d + ihi), &mut tmp);
                            z.add_assign(&tmp);
                        });
                        bufs.put_dense(tmp);
                    }
                }
                if let Some(pn) = panel {
                    // Sum the panels' partial products: full-width Z.
                    ctx.allreduce_sum(z.data_mut(), &pn.row_group);
                }
                let mut h = bufs.take_dense(rows, d_out);
                if l + 1 == l_total {
                    h.data_mut().copy_from_slice(z.data());
                } else {
                    ctx.compute((rows * d_out) as u64, || z.relu_into(&mut h));
                }
                if let Some(hp) = h_panel {
                    bufs.put_dense(hp);
                }
                zs.push(z);
                hs.push(h);
                ahs.push(ah);
            }
            ctx.span_end();

            // ---- loss / metrics ----
            ctx.span_begin(SpanKind::Loss, Phase::Other);
            let logits = &hs[l_total];
            let (loss_sum, count, grad_sum) = softmax_cross_entropy_sums(logits, labels, mask);
            let correct = crate::model::accuracy(logits, labels, mask) * count as f64;
            let mut reduce = [loss_sum, count as f64, correct];
            allreduce_all(ctx, &mut reduce);
            let [g_loss, g_count, g_correct] = reduce;
            let record = EpochRecord {
                loss: g_loss / g_count.max(1.0),
                train_accuracy: if g_count > 0.0 {
                    g_correct / g_count
                } else {
                    0.0
                },
            };
            ctx.span_end();

            // ---- backward ----
            ctx.span_begin(SpanKind::Backward, Phase::Other);
            // True (unreplicated) masked count normalizes the gradient.
            let denom = (g_count / plan.row_copies() as f64).max(1.0);
            let mut g = grad_sum;
            g.scale(1.0 / denom);

            for l in (0..l_total).rev() {
                let (d, d_out) = (dims[l], dims[l + 1]);
                let (ilo, ihi) = panel_cols(panel, d);
                let ipw = ihi - ilo;
                let s = match panel {
                    None => spmm(ctx, &g, &mut bufs),
                    Some(pn) => {
                        // SpMM of the own gradient panel, then sum the
                        // disjoint panels over the grid row: full-width
                        // AᵀG.
                        let (olo, ohi) = panel_cols(panel, d_out);
                        let opw = ohi - olo;
                        let g_panel = ctx
                            .compute((rows * opw) as u64, || slice_panel(&g, olo, ohi, &mut bufs));
                        let s_panel = spmm(ctx, &g_panel, &mut bufs);
                        bufs.put_dense(g_panel);
                        let mut s = bufs.take_dense(rows, d_out);
                        ctx.compute((rows * opw) as u64, || {
                            for r in 0..rows {
                                s.row_mut(r)[olo..ohi].copy_from_slice(s_panel.row(r));
                            }
                        });
                        ctx.allreduce_sum(s.data_mut(), &pn.row_group);
                        bufs.put_dense(s_panel);
                        s
                    }
                };

                // Weight gradient: this rank fills its panel's rows of
                // Y (all of them without a panel).
                let h_prev = &hs[l];
                let hp = panel.map(|_| {
                    ctx.compute((rows * ipw) as u64, || {
                        slice_panel(h_prev, ilo, ihi, &mut bufs)
                    })
                });
                let h_in = hp.as_ref().unwrap_or(h_prev);
                let mut y = match arch {
                    ArchKind::Gcn => {
                        let mut yp = bufs.take_dense(ipw, d_out);
                        ctx.compute((2 * rows * ipw * d_out) as u64, || {
                            h_in.transpose_matmul_into(&s, &mut yp)
                        });
                        let mut y = bufs.take_dense(d, d_out);
                        y.data_mut()[ilo * d_out..ihi * d_out].copy_from_slice(yp.data());
                        bufs.put_dense(yp);
                        y
                    }
                    ArchKind::Sage => {
                        let ah = &ahs[l];
                        let g_ref = &g;
                        let mut top = bufs.take_dense(ipw, d_out);
                        let mut bottom = bufs.take_dense(ipw, d_out);
                        ctx.compute((4 * rows * ipw * d_out) as u64, || {
                            h_in.transpose_matmul_into(g_ref, &mut top);
                            ah.transpose_matmul_into(g_ref, &mut bottom);
                        });
                        let mut y = bufs.take_dense(2 * d, d_out);
                        y.data_mut()[ilo * d_out..ihi * d_out].copy_from_slice(top.data());
                        y.data_mut()[(d + ilo) * d_out..(d + ihi) * d_out]
                            .copy_from_slice(bottom.data());
                        bufs.put_dense(top);
                        bufs.put_dense(bottom);
                        y
                    }
                };
                if let Some(hp) = hp {
                    bufs.put_dense(hp);
                }
                // Sums the distinct panel blocks and row blocks, plus
                // `c` identical layer copies, which are divided out.
                allreduce_all(ctx, y.data_mut());
                y.scale(1.0 / plan.layers() as f64);
                grads.push(y); // reverse layer order; fixed up below
                if l > 0 {
                    // Full-width local propagation (s and z_prev are
                    // full-width on every rank).
                    let w = &weights.mats[l];
                    let prev_z = &zs[l - 1];
                    let mut gg = bufs.take_dense(rows, d);
                    let mut tmp = bufs.take_dense(rows, d);
                    match arch {
                        ArchKind::Gcn => {
                            ctx.compute((2 * rows * d_out * d + 2 * rows * d) as u64, || {
                                s.matmul_transpose_into(w, &mut gg);
                                prev_z.relu_prime_into(&mut tmp);
                                gg.hadamard_assign(&tmp);
                            })
                        }
                        ArchKind::Sage => {
                            let g_ref = &g;
                            ctx.compute((4 * rows * d_out * d + 3 * rows * d) as u64, || {
                                g_ref.matmul_transpose_into(&w.row_slice(0, d), &mut gg);
                                s.matmul_transpose_into(&w.row_slice(d, 2 * d), &mut tmp);
                                gg.add_assign(&tmp);
                                prev_z.relu_prime_into(&mut tmp);
                                gg.hadamard_assign(&tmp);
                            })
                        }
                    }
                    bufs.put_dense(tmp);
                    bufs.put_dense(std::mem::replace(&mut g, gg));
                }
                bufs.put_dense(s);
            }
            grads.reverse();
            bufs.put_dense(g);
            ctx.span_end();
            ctx.span_end(); // epoch
            record
        }));

        match attempt {
            // Commit gate: true unless a rank died during the attempt
            // (always true outside failover mode).
            Ok(record) => {
                if ctx.commit_epoch() {
                    optimizer.step(&mut weights, &grads);
                    records.push(record);
                    let every = cfg.robust.checkpoint_every;
                    if every > 0 && (epoch + 1) % every == 0 && me == checkpoint_writer(ctx) {
                        store.save(Checkpoint {
                            next_epoch: epoch + 1,
                            weights: weights.clone(),
                            optimizer: optimizer.clone(),
                            records: records.clone(),
                        });
                    }
                    epoch += 1;
                }
                // Uncommitted: a peer died mid-attempt after our last
                // recv — discard and re-run the same epoch degraded.
            }
            Err(payload) => {
                // Only the failover abort is survivable here; injected
                // crashes, replica-group loss and genuine bugs keep
                // unwinding to the world boundary.
                if !payload.is::<EpochAbortPanic>() {
                    resume_unwind(payload);
                }
                let committed = ctx.commit_epoch();
                debug_assert!(!committed, "an aborted attempt cannot commit");
            }
        }
        // ---- retire attempt temporaries ----
        for d in hs
            .drain(..)
            .chain(zs.drain(..))
            .chain(ahs.drain(..))
            .chain(grads.drain(..))
        {
            bufs.put_dense(d);
        }
    }
    (records, weights)
}

/// The rank that snapshots a committed epoch: rank 0, or the lowest
/// survivor once failover has sealed a death. The state is replicated
/// and every rank reached the commit by completing every collective of
/// the epoch, so any survivor's copy is the consistent one; the sealed
/// set makes the choice identical on every rank.
fn checkpoint_writer(ctx: &RankCtx) -> usize {
    if !ctx.failover_enabled() {
        return 0;
    }
    let dead = ctx.sealed_dead_ranks();
    (0..ctx.p())
        .find(|r| !dead.contains(r))
        .expect("at least one survivor")
}

/// Copies the column panel `[lo, hi)` of `src` into a pooled matrix.
fn slice_panel(src: &Dense, lo: usize, hi: usize, bufs: &mut EpochBuffers) -> Dense {
    let mut out = bufs.take_dense(src.rows(), hi - lo);
    for r in 0..src.rows() {
        out.row_mut(r).copy_from_slice(&src.row(r)[lo..hi]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::plan::even_bounds;
    use crate::reference::ReferenceTrainer;
    use spmat::dataset::reddit_scaled;

    fn run(
        algo: Algo,
        bounds_parts: usize,
        epochs: usize,
    ) -> (DistOutcome, Vec<EpochRecord>, Weights) {
        let ds = reddit_scaled(7, 11); // 128 vertices
        let cfg = GcnConfig::paper_default(ds.f(), ds.num_classes);
        let mut reference = ReferenceTrainer::new(&ds, cfg.clone());
        let ref_records = reference.train(epochs);

        let bounds = even_bounds(ds.n(), bounds_parts);
        let dist_cfg = DistConfig::new(algo, cfg, epochs, CostModel::perlmutter_like());
        let out = train_distributed(&ds, &bounds, &dist_cfg);
        (out, ref_records, reference.weights)
    }

    #[test]
    fn oned_aware_matches_reference() {
        let (out, ref_records, ref_weights) = run(Algo::OneD { aware: true }, 4, 4);
        for (a, b) in out.records.iter().zip(&ref_records) {
            assert!(
                (a.loss - b.loss).abs() < 1e-9,
                "loss {} vs {}",
                a.loss,
                b.loss
            );
            assert!((a.train_accuracy - b.train_accuracy).abs() < 1e-9);
        }
        assert!(out.weights.max_abs_diff(&ref_weights) < 1e-9);
        assert_eq!(out.restarts, 0);
    }

    #[test]
    fn oned_oblivious_matches_reference() {
        let (out, ref_records, ref_weights) = run(Algo::OneD { aware: false }, 3, 3);
        for (a, b) in out.records.iter().zip(&ref_records) {
            assert!((a.loss - b.loss).abs() < 1e-9);
        }
        assert!(out.weights.max_abs_diff(&ref_weights) < 1e-9);
    }

    #[test]
    fn onefived_aware_matches_reference() {
        let (out, ref_records, ref_weights) = run(Algo::OneFiveD { aware: true, c: 2 }, 2, 3);
        for (a, b) in out.records.iter().zip(&ref_records) {
            assert!(
                (a.loss - b.loss).abs() < 1e-8,
                "loss {} vs {}",
                a.loss,
                b.loss
            );
        }
        assert!(out.weights.max_abs_diff(&ref_weights) < 1e-8);
    }

    #[test]
    fn onefived_oblivious_matches_reference() {
        let (out, ref_records, ref_weights) = run(Algo::OneFiveD { aware: false, c: 2 }, 2, 3);
        for (a, b) in out.records.iter().zip(&ref_records) {
            assert!((a.loss - b.loss).abs() < 1e-8);
        }
        assert!(out.weights.max_abs_diff(&ref_weights) < 1e-8);
    }

    #[test]
    fn twod_matches_reference() {
        for aware in [true, false] {
            let (out, ref_records, ref_weights) = run(Algo::TwoD { aware, pc: 2 }, 2, 3);
            for (a, b) in out.records.iter().zip(&ref_records) {
                assert!(
                    (a.loss - b.loss).abs() < 1e-8,
                    "aware={aware}: loss {} vs {}",
                    a.loss,
                    b.loss
                );
            }
            assert!(
                out.weights.max_abs_diff(&ref_weights) < 1e-8,
                "aware={aware}"
            );
        }
    }

    #[test]
    fn threed_matches_reference() {
        for aware in [true, false] {
            let (out, ref_records, ref_weights) = run(Algo::ThreeD { aware, pc: 2, c: 2 }, 2, 3);
            for (a, b) in out.records.iter().zip(&ref_records) {
                assert!(
                    (a.loss - b.loss).abs() < 1e-8,
                    "aware={aware}: loss {} vs {}",
                    a.loss,
                    b.loss
                );
            }
            assert!(
                out.weights.max_abs_diff(&ref_weights) < 1e-8,
                "aware={aware}"
            );
        }
    }

    #[test]
    fn grid_sage_matches_reference() {
        let ds = reddit_scaled(7, 11);
        let mut cfg = GcnConfig::paper_default(ds.f(), ds.num_classes);
        cfg.arch = ArchKind::Sage;
        let mut reference = ReferenceTrainer::new(&ds, cfg.clone());
        let ref_records = reference.train(3);
        for algo in [
            Algo::TwoD { aware: true, pc: 2 },
            Algo::ThreeD {
                aware: true,
                pc: 2,
                c: 2,
            },
        ] {
            let bounds = even_bounds(ds.n(), 2);
            let dist_cfg = DistConfig::new(algo, cfg.clone(), 3, CostModel::perlmutter_like());
            let out = train_distributed(&ds, &bounds, &dist_cfg);
            for (a, b) in out.records.iter().zip(&ref_records) {
                assert!(
                    (a.loss - b.loss).abs() < 1e-8,
                    "{}: loss {} vs {}",
                    algo.label(),
                    a.loss,
                    b.loss
                );
            }
            assert!(
                out.weights.max_abs_diff(&reference.weights) < 1e-8,
                "{}",
                algo.label()
            );
        }
    }

    #[test]
    fn algo_labels_and_replication() {
        assert_eq!(Algo::OneD { aware: true }.replication(), 1);
        assert_eq!(Algo::OneFiveD { aware: true, c: 4 }.replication(), 4);
        assert_eq!(Algo::TwoD { aware: true, pc: 2 }.replication(), 1);
        assert_eq!(
            Algo::ThreeD {
                aware: true,
                pc: 2,
                c: 2
            }
            .replication(),
            2
        );
        assert!(Algo::OneD { aware: false }.label().contains("CAGNET"));
        assert!(Algo::OneFiveD { aware: true, c: 2 }.label().contains("c=2"));
        assert!(Algo::TwoD { aware: true, pc: 2 }.label().contains("2D"));
        assert!(Algo::ThreeD {
            aware: false,
            pc: 1,
            c: 2
        }
        .label()
        .contains("3D"));
        assert!(Algo::TwoD { aware: true, pc: 2 }.aware());
        assert!(!Algo::ThreeD {
            aware: false,
            pc: 1,
            c: 2
        }
        .aware());
    }

    #[test]
    fn crash_then_restart_matches_fault_free_run() {
        let ds = reddit_scaled(7, 11);
        let cfg = GcnConfig::paper_default(ds.f(), ds.num_classes);
        let bounds = even_bounds(ds.n(), 4);
        let epochs = 5;

        let clean_cfg = DistConfig::new(
            Algo::OneD { aware: true },
            cfg.clone(),
            epochs,
            CostModel::perlmutter_like(),
        );
        let clean = train_distributed(&ds, &bounds, &clean_cfg);

        let mut faulty_cfg = clean_cfg.clone();
        faulty_cfg.robust = RobustnessConfig {
            faults: Some(FaultPlan::new(1).crash_at(2, 3, 0)),
            checkpoint_every: 2,
            max_restarts: 1,
            timeout: Duration::from_secs(10),
            failover: false,
        };
        let faulty = try_train_distributed(&ds, &bounds, &faulty_cfg)
            .expect("restart should recover the run");

        assert_eq!(faulty.restarts, 1);
        assert_eq!(
            faulty.resume_points,
            vec![2],
            "crash at epoch 3 with checkpoint_every=2 resumes from epoch 2"
        );
        assert_eq!(faulty.records.len(), clean.records.len());
        // Bit-for-bit: resume replays the deterministic epochs exactly.
        for (a, b) in faulty.records.iter().zip(&clean.records) {
            assert_eq!(a.loss.to_bits(), b.loss.to_bits());
            assert_eq!(a.train_accuracy.to_bits(), b.train_accuracy.to_bits());
        }
        assert_eq!(faulty.weights.max_abs_diff(&clean.weights), 0.0);
    }

    /// A backend whose every snapshot is damaged in flight, so *both*
    /// ring slots always fail verification — the double-corruption
    /// worst case of the checkpoint ring.
    struct CorruptingStore(Mutex<CheckpointStore>);

    impl CheckpointBackend for CorruptingStore {
        fn save(&self, ck: Checkpoint) {
            let mut inner = self.0.lock().unwrap();
            inner.save(ck);
            inner.corrupt_newest();
        }

        fn restore(&self) -> Option<Checkpoint> {
            self.0.lock().unwrap().restore()
        }
    }

    #[test]
    fn double_corrupted_checkpoints_force_bit_exact_scratch_restart() {
        let ds = reddit_scaled(7, 11);
        let cfg = GcnConfig::paper_default(ds.f(), ds.num_classes);
        let bounds = even_bounds(ds.n(), 4);
        let epochs = 5;

        let clean_cfg = DistConfig::new(
            Algo::OneD { aware: true },
            cfg,
            epochs,
            CostModel::perlmutter_like(),
        );
        let clean = train_distributed(&ds, &bounds, &clean_cfg);

        let mut faulty_cfg = clean_cfg.clone();
        faulty_cfg.robust = RobustnessConfig {
            faults: Some(FaultPlan::new(1).crash_at(2, 3, 0)),
            checkpoint_every: 2,
            max_restarts: 1,
            timeout: Duration::from_secs(10),
            failover: false,
        };
        let store = CorruptingStore(Mutex::new(CheckpointStore::new()));
        let out = try_train_distributed_with_store(&ds, &bounds, &faulty_cfg, &store)
            .expect("with no verifiable snapshot the ladder must restart from scratch, not abort");

        assert!(
            store.restore().is_none(),
            "every slot must have failed verification"
        );
        assert_eq!(out.restarts, 1);
        assert_eq!(
            out.resume_points,
            vec![0],
            "no slot verifies → scratch restart from epoch 0"
        );
        assert_eq!(out.records.len(), clean.records.len());
        for (a, b) in out.records.iter().zip(&clean.records) {
            assert_eq!(a.loss.to_bits(), b.loss.to_bits());
            assert_eq!(a.train_accuracy.to_bits(), b.train_accuracy.to_bits());
        }
        assert_eq!(out.weights.max_abs_diff(&clean.weights), 0.0);
    }

    #[test]
    fn crash_without_restart_budget_is_an_error() {
        let ds = reddit_scaled(7, 11);
        let cfg = GcnConfig::paper_default(ds.f(), ds.num_classes);
        let bounds = even_bounds(ds.n(), 4);
        let mut dist_cfg = DistConfig::new(
            Algo::OneD { aware: true },
            cfg,
            3,
            CostModel::perlmutter_like(),
        );
        dist_cfg.robust.faults = Some(FaultPlan::new(0).crash_at(1, 1, 0));
        dist_cfg.robust.timeout = Duration::from_secs(10);
        let err = try_train_distributed(&ds, &bounds, &dist_cfg).unwrap_err();
        match err {
            WorldError::InjectedCrash { rank, epoch, .. } => {
                assert_eq!(rank, 1);
                assert_eq!(epoch, Some(1));
            }
            other => panic!("expected InjectedCrash, got {other}"),
        }
    }

    #[test]
    fn failover_absorbs_crash_without_restart_and_matches_bits() {
        let ds = reddit_scaled(7, 11);
        let cfg = GcnConfig::paper_default(ds.f(), ds.num_classes);
        let bounds = even_bounds(ds.n(), 2); // pr = 2, c = 2 → p = 4
        let epochs = 5;

        let clean_cfg = DistConfig::new(
            Algo::OneFiveD { aware: true, c: 2 },
            cfg,
            epochs,
            CostModel::perlmutter_like(),
        );
        let clean = train_distributed(&ds, &bounds, &clean_cfg);

        let mut faulty_cfg = clean_cfg.clone();
        faulty_cfg.robust = RobustnessConfig {
            faults: Some(FaultPlan::new(3).crash_at(1, 2, 3)),
            checkpoint_every: 2,
            max_restarts: 0, // failover must succeed without the restart rung
            timeout: Duration::from_secs(10),
            failover: true,
        };
        let faulty = try_train_distributed(&ds, &bounds, &faulty_cfg)
            .expect("failover should absorb the crash in place");

        assert_eq!(faulty.restarts, 0, "no world restart");
        assert_eq!(faulty.failovers, 1, "exactly one death absorbed");
        assert_eq!(faulty.records.len(), clean.records.len());
        // Bit-for-bit: degraded collectives replay the fault-free fold.
        for (a, b) in faulty.records.iter().zip(&clean.records) {
            assert_eq!(a.loss.to_bits(), b.loss.to_bits());
            assert_eq!(a.train_accuracy.to_bits(), b.train_accuracy.to_bits());
        }
        assert_eq!(faulty.weights.max_abs_diff(&clean.weights), 0.0);
    }

    #[test]
    fn losing_a_whole_replica_group_falls_back_to_checkpoint_restart() {
        let ds = reddit_scaled(7, 11);
        let cfg = GcnConfig::paper_default(ds.f(), ds.num_classes);
        let bounds = even_bounds(ds.n(), 2); // pr = 2, c = 2 → p = 4
        let epochs = 5;

        let clean_cfg = DistConfig::new(
            Algo::OneFiveD { aware: true, c: 2 },
            cfg,
            epochs,
            CostModel::perlmutter_like(),
        );
        let clean = train_distributed(&ds, &bounds, &clean_cfg);

        // Ranks 0 and 1 are the two replicas of block row 0; killing
        // both exhausts the in-place rung and escalates to a restart.
        let mut faulty_cfg = clean_cfg.clone();
        faulty_cfg.robust = RobustnessConfig {
            faults: Some(FaultPlan::new(5).crash_at(0, 2, 0).crash_at(1, 2, 5)),
            checkpoint_every: 1,
            max_restarts: 1,
            timeout: Duration::from_secs(10),
            failover: true,
        };
        let faulty = try_train_distributed(&ds, &bounds, &faulty_cfg)
            .expect("checkpoint restart should recover the run");

        assert_eq!(faulty.restarts, 1, "escalated to the restart rung");
        assert_eq!(faulty.records.len(), clean.records.len());
        for (a, b) in faulty.records.iter().zip(&clean.records) {
            assert_eq!(a.loss.to_bits(), b.loss.to_bits());
        }
        assert_eq!(faulty.weights.max_abs_diff(&clean.weights), 0.0);
    }

    #[test]
    fn failover_run_matches_plain_run_with_and_without_overlap() {
        let ds = reddit_scaled(7, 11);
        let cfg = GcnConfig::paper_default(ds.f(), ds.num_classes);
        let bounds = even_bounds(ds.n(), 2); // pr = 2, c = 2 → p = 4
        for overlap in [OverlapConfig::off(), OverlapConfig::on(3)] {
            let mut plain_cfg = DistConfig::new(
                Algo::OneFiveD { aware: true, c: 2 },
                cfg.clone(),
                3,
                CostModel::perlmutter_like(),
            );
            plain_cfg.overlap = overlap;
            let plain = train_distributed(&ds, &bounds, &plain_cfg);
            let mut fo_cfg = plain_cfg.clone();
            fo_cfg.robust.failover = true;
            let fo = train_distributed(&ds, &bounds, &fo_cfg);

            assert_eq!(fo.failovers, 0);
            assert_eq!(fo.weights.max_abs_diff(&plain.weights), 0.0, "{overlap:?}");
            assert_eq!(fo.stats.p(), plain.stats.p());
            for (rank, (a, b)) in fo
                .stats
                .per_rank
                .iter()
                .zip(&plain.stats.per_rank)
                .enumerate()
            {
                for ph in gnn_comm::stats::PHASES {
                    let (a, b) = (a.phase(ph), b.phase(ph));
                    let what = format!("{overlap:?}: rank {rank} {ph:?}");
                    assert_eq!(a.ops, b.ops, "{what} ops");
                    assert_eq!(a.bytes_sent, b.bytes_sent, "{what} bytes_sent");
                    assert_eq!(a.bytes_recv, b.bytes_recv, "{what} bytes_recv");
                    assert_eq!(a.flops, b.flops, "{what} flops");
                    assert_eq!(
                        a.modeled_seconds.to_bits(),
                        b.modeled_seconds.to_bits(),
                        "{what} modeled_seconds"
                    );
                }
            }

            // A mid-epoch crash on a pipelined epoch is absorbed in
            // place and still reproduces the plain run's weights.
            let mut crash_cfg = fo_cfg.clone();
            crash_cfg.robust.faults = Some(FaultPlan::new(3).crash_at(1, 1, 7));
            crash_cfg.robust.timeout = Duration::from_secs(10);
            let crashed = try_train_distributed(&ds, &bounds, &crash_cfg)
                .expect("failover should absorb the crash in place");
            assert_eq!((crashed.failovers, crashed.restarts), (1, 0), "{overlap:?}");
            assert_eq!(
                crashed.weights.max_abs_diff(&plain.weights),
                0.0,
                "{overlap:?}"
            );
        }
    }

    #[test]
    fn failover_flag_on_1d_defers_to_restart_ladder() {
        let ds = reddit_scaled(7, 11);
        let cfg = GcnConfig::paper_default(ds.f(), ds.num_classes);
        let bounds = even_bounds(ds.n(), 4);
        let mut dist_cfg = DistConfig::new(
            Algo::OneD { aware: true },
            cfg,
            4,
            CostModel::perlmutter_like(),
        );
        dist_cfg.robust = RobustnessConfig {
            faults: Some(FaultPlan::new(2).crash_at(2, 1, 0)),
            checkpoint_every: 1,
            max_restarts: 1,
            timeout: Duration::from_secs(10),
            failover: true, // no replication → silently uses restarts
        };
        let out = try_train_distributed(&ds, &bounds, &dist_cfg)
            .expect("restart rung should recover the 1D run");
        assert_eq!(out.restarts, 1);
        assert_eq!(out.failovers, 0);
        assert_eq!(out.records.len(), 4);
    }

    #[test]
    fn overlapped_training_is_bit_identical_to_blocking() {
        let ds = reddit_scaled(7, 11);
        let cfg = GcnConfig::paper_default(ds.f(), ds.num_classes);
        for (algo, parts) in [
            (Algo::OneD { aware: true }, 4),
            (Algo::OneD { aware: false }, 4),
            (Algo::OneFiveD { aware: true, c: 2 }, 2),
            (Algo::TwoD { aware: true, pc: 2 }, 2),
            (
                Algo::ThreeD {
                    aware: true,
                    pc: 1,
                    c: 2,
                },
                2,
            ),
        ] {
            let bounds = even_bounds(ds.n(), parts);
            let base_cfg = DistConfig::new(algo, cfg.clone(), 3, CostModel::perlmutter_like());
            let base = train_distributed(&ds, &bounds, &base_cfg);
            let mut ov_cfg = base_cfg.clone();
            ov_cfg.overlap = OverlapConfig::on(3);
            let ov = train_distributed(&ds, &bounds, &ov_cfg);
            for (a, b) in ov.records.iter().zip(&base.records) {
                assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "{}", algo.label());
            }
            assert_eq!(
                ov.weights.max_abs_diff(&base.weights),
                0.0,
                "{}",
                algo.label()
            );
            assert!(ov.stats.total_overlap_stages() > 0, "{}", algo.label());
        }
    }

    #[test]
    fn link_faults_do_not_change_results() {
        let ds = reddit_scaled(7, 11);
        let cfg = GcnConfig::paper_default(ds.f(), ds.num_classes);
        let bounds = even_bounds(ds.n(), 3);
        let clean_cfg = DistConfig::new(
            Algo::OneD { aware: true },
            cfg,
            3,
            CostModel::perlmutter_like(),
        );
        let clean = train_distributed(&ds, &bounds, &clean_cfg);

        let mut faulty_cfg = clean_cfg.clone();
        faulty_cfg.robust.faults = Some(
            FaultPlan::new(9)
                .drop_messages(0, None, 0.2)
                .corrupt_messages(1, None, 0.2),
        );
        let faulty = train_distributed(&ds, &bounds, &faulty_cfg);

        assert_eq!(faulty.restarts, 0, "link faults recover in place");
        for (a, b) in faulty.records.iter().zip(&clean.records) {
            assert_eq!(a.loss.to_bits(), b.loss.to_bits());
        }
        assert_eq!(faulty.weights.max_abs_diff(&clean.weights), 0.0);
        assert!(
            faulty.stats.total_retries() > 0,
            "plan with p=0.2 on every message should have injected something"
        );
    }
}
