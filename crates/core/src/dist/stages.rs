//! The stage-loop SpMM shared by 1.5D, 2D and 3D (the paper's
//! Algorithm 2 and its SUMMA generalizations).
//!
//! All three are one family: every rank owns a block row `i` of `Aᵀ`
//! and `H` (a feature panel of it on a grid), the designated sender of
//! each block row ships the rows its consumers need, each rank folds
//! its stages `Aᵀ[i][k] · H[k]` into one accumulator, and an optional
//! all-reduce sums the replicas' partials — over the process row in
//! 1.5D, over the fiber in 3D, not at all in 2D. A [`StageLoop`] is one
//! rank's instance of that recipe; the plans build it
//! ([`crate::dist::plan::Plan15d::stage_loop`], `Plan2d::stage_loop`,
//! `Plan3d::stage_loop`), this module runs it, and
//! [`crate::analytic`] prices the same value op for op.
//!
//! Two schedules share the loop and differ only in the comm primitive:
//! blocking (`chunks = None`) sends each packed block and receives each
//! stage's rows just before its multiply; pipelined (`Some(chunks)`)
//! posts every send eagerly inside an overlap window, groups the stages
//! into `chunks` sections, and crosses a [`RankCtx::overlap_stage`]
//! boundary once a section's receives have landed. Folding stages in
//! ascending `k` either way makes the two bitwise identical.

use gnn_comm::msg::Payload;
use gnn_comm::{PendingOp, Phase, RankCtx, SpanKind};
use spmat::spmm::{spmm_acc, spmm_flops};
use spmat::Dense;

use super::buffers::EpochBuffers;
use super::overlap::chunk_groups;
use super::plan::Stage;

/// One rank's stage-loop SpMM: what it ships, what it folds, and which
/// replicas it sums with.
#[derive(Clone, Debug)]
pub struct StageLoop<'a> {
    /// Span the SpMM is traced under.
    pub span: SpanKind,
    /// Sparsity-aware (`NnzCols` rows) or oblivious (whole blocks).
    pub aware: bool,
    /// The owned block row `i`: the stage `k = i` is gathered locally.
    pub own: usize,
    /// Global row range `[lo, hi)` of the owned block.
    pub rows: (usize, usize),
    /// The stages, in fold order, each with the rank that ships its rows.
    pub stages: Vec<(usize, &'a Stage)>,
    /// Outbound blocks: destination rank and the owned rows it needs.
    pub sends: Vec<(usize, &'a [u32])>,
    /// Ranks whose partials are summed after the loop, if any.
    pub reduce: Option<Vec<usize>>,
}

impl<'a> StageLoop<'a> {
    /// A rank's loop from its plan fields: it owns block row `own`
    /// (global rows `[lo, hi)`), and `peer(k)` is the rank holding
    /// block row `k` in its grid column (and layer) — it ships stage
    /// `k` and receives `send_lists[k]`, and `peer(own)` is the rank
    /// itself. Self-sends and empty lists are dropped.
    pub fn new(
        span: SpanKind,
        aware: bool,
        (own, lo, hi): (usize, usize, usize),
        stages: &'a [Stage],
        send_lists: &'a [Vec<u32>],
        peer: impl Fn(usize) -> usize,
        reduce: Option<Vec<usize>>,
    ) -> Self {
        let me = peer(own);
        StageLoop {
            span,
            aware,
            own,
            rows: (lo, hi),
            stages: stages.iter().map(|st| (peer(st.k), st)).collect(),
            sends: (send_lists.iter().enumerate())
                .map(|(l, idx)| (peer(l), idx.as_slice()))
                .filter(|&(dst, idx)| dst != me && !idx.is_empty())
                .collect(),
            reduce,
        }
    }

    /// Whether stage `st`'s rows arrive from a peer.
    pub fn remote(&self, st: &Stage) -> bool {
        st.k != self.own && !st.needed.is_empty()
    }

    /// Packs and ships every outbound block to `host(dst)`. Blocking:
    /// each block is sent as soon as it is packed, and the pack compute
    /// is recorded after the last send. Pipelined: the pack compute is
    /// recorded, the overlap window opens, then every block is posted
    /// eagerly on the first section.
    pub fn ship(
        &self,
        ctx: &mut RankCtx,
        h_local: &Dense,
        host: impl Fn(usize) -> usize,
        chunks: Option<usize>,
        bufs: &mut EpochBuffers,
    ) {
        let f = h_local.cols();
        let (lo, hi) = self.rows;
        assert_eq!(h_local.rows(), hi - lo, "local H block shape mismatch");
        let mut pack_elems = 0u64;
        let mut posted = Vec::new();
        for &(dst, idx) in &self.sends {
            let payload = if self.aware {
                let mut data = bufs.take_zeroed(idx.len() * f);
                h_local.pack_rows_into(idx, lo, &mut data);
                pack_elems += (idx.len() * f) as u64;
                let mut ids = bufs.take_u32(idx.len());
                ids.extend_from_slice(idx);
                Payload::Rows { idx: ids, data }
            } else {
                let mut data = bufs.take_vec(h_local.data().len());
                data.extend_from_slice(h_local.data());
                Payload::F64(data)
            };
            let dst = host(dst);
            debug_assert_ne!(dst, ctx.rank(), "self-send in a stage loop");
            match chunks {
                None => ctx.send(dst, payload),
                Some(_) => posted.push((dst, payload)),
            }
        }
        if pack_elems > 0 {
            ctx.record_compute(pack_elems);
        }
        if let Some(chunks) = chunks {
            ctx.overlap_begin(chunk_groups(self.stages.len(), chunks).len());
            for (dst, payload) in posted {
                ctx.isend(dst, payload, Phase::P2p, 0);
            }
        }
    }

    /// Folds every stage into a fresh accumulator, receiving each remote
    /// stage from `host(src)`. Blocking: one `recv` per remote stage,
    /// just before its multiply. Pipelined: every receive is posted up
    /// front; each section waits for its own, crosses a stage boundary,
    /// then multiplies; the window [`Self::ship`] opened closes at the
    /// end.
    pub fn fold(
        &self,
        ctx: &mut RankCtx,
        h_local: &Dense,
        host: impl Fn(usize) -> usize,
        chunks: Option<usize>,
        bufs: &mut EpochBuffers,
    ) -> Dense {
        let f = h_local.cols();
        let (lo, hi) = self.rows;
        assert_eq!(h_local.rows(), hi - lo, "local H block shape mismatch");
        let n = self.stages.len();
        let (mut pending, groups): (Vec<Option<PendingOp>>, _) = match chunks {
            None => (Vec::new(), vec![(0, n)]),
            Some(chunks) => (
                (self.stages.iter())
                    .map(|&(src, st)| self.remote(st).then(|| ctx.irecv(host(src), Phase::P2p)))
                    .collect(),
                chunk_groups(n, chunks),
            ),
        };
        let mut staged: Vec<Option<Payload>> = (0..pending.len()).map(|_| None).collect();

        let mut z = bufs.take_dense(hi - lo, f);
        for &(slo, shi) in &groups {
            if chunks.is_some() {
                for si in slo..shi {
                    staged[si] = pending[si].take().map(|op| ctx.wait(op));
                }
                ctx.overlap_stage();
            }
            for si in slo..shi {
                let (src, st) = self.stages[si];
                let h_stage: Dense = if st.k == self.own {
                    // Local gather of our own block's needed rows.
                    let mut data = bufs.take_zeroed(st.needed.len() * f);
                    h_local.pack_rows_into(&st.needed, lo, &mut data);
                    ctx.record_compute((st.needed.len() * f) as u64);
                    Dense::from_vec(st.needed.len(), f, data)
                } else if st.needed.is_empty() {
                    Dense::zeros(0, f)
                } else {
                    let payload = match staged.get_mut(si).and_then(Option::take) {
                        Some(payload) => payload,
                        None => ctx.recv(host(src)),
                    };
                    self.decode(payload, st, f, src, bufs)
                };
                let block = &st.block_compact;
                ctx.compute(spmm_flops(block, f), || spmm_acc(block, &h_stage, &mut z));
                bufs.put_dense(h_stage);
            }
        }
        if chunks.is_some() {
            ctx.overlap_end();
        }
        z
    }

    /// One remote stage's payload as a dense `needed × f` operand.
    fn decode(
        &self,
        payload: Payload,
        st: &Stage,
        f: usize,
        src: usize,
        bufs: &mut EpochBuffers,
    ) -> Dense {
        if self.aware {
            let (idx, data) = payload.into_rows();
            debug_assert_eq!(idx, st.needed, "row ids mismatch from rank {src}");
            let d = Dense::from_vec(idx.len(), f, data);
            bufs.put_u32(idx);
            d
        } else {
            let data = payload.into_f64();
            assert_eq!(
                data.len(),
                st.needed.len() * f,
                "block size mismatch from {src}"
            );
            Dense::from_vec(st.needed.len(), f, data)
        }
    }
}

/// Runs rank `ctx.rank()`'s stage loop on `h_local` (its owned block, or
/// its feature panel of it): ship, fold, then the trailing all-reduce.
/// `chunks` selects the blocking (`None`) or pipelined schedule.
pub fn run_stage_loop(
    ctx: &mut RankCtx,
    sl: &StageLoop<'_>,
    h_local: &Dense,
    chunks: Option<usize>,
    bufs: &mut EpochBuffers,
) -> Dense {
    ctx.span_begin(sl.span, Phase::P2p);
    sl.ship(ctx, h_local, |r| r, chunks, bufs);
    let mut z = sl.fold(ctx, h_local, |r| r, chunks, bufs);
    if let Some(group) = &sl.reduce {
        ctx.allreduce_sum(z.data_mut(), group);
    }
    ctx.span_end();
    z
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::plan::{even_bounds, Plan15d};
    use crate::dist::threed::Plan3d;
    use crate::dist::twod::Plan2d;
    use gnn_comm::{CostModel, ThreadWorld, WorldStats};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spmat::gen::{rmat, RmatConfig};
    use spmat::graph::gcn_normalize;

    fn setup(scale: u32, seed: u64, f: usize) -> (spmat::Csr, Dense) {
        let adj = gcn_normalize(&rmat(RmatConfig::graph500(scale, 5, seed)));
        let mut rng = StdRng::seed_from_u64(seed ^ 31);
        let h = Dense::glorot(adj.rows(), f, &mut rng);
        (adj, h)
    }

    /// Runs every rank's stage loop on its block row of `h` (its panel
    /// of it when `panels > 1`).
    fn run<'a>(
        p: usize,
        h: &Dense,
        panels: usize,
        loop_of: impl Fn(usize) -> StageLoop<'a> + Sync,
        panel_of: impl Fn(usize) -> usize + Sync,
        chunks: Option<usize>,
    ) -> (Vec<Dense>, WorldStats) {
        let world = ThreadWorld::new(p, CostModel::perlmutter_like());
        world.run(|ctx| {
            let sl = loop_of(ctx.rank());
            let rows = h.row_slice(sl.rows.0, sl.rows.1);
            let pb = spmat::gen::sbm::block_bounds(h.cols(), panels);
            let j = panel_of(ctx.rank());
            let local = Dense::from_fn(rows.rows(), pb[j + 1] - pb[j], |r, c| {
                rows.get(r, pb[j] + c)
            });
            run_stage_loop(ctx, &sl, &local, chunks, &mut EpochBuffers::new())
        })
    }

    /// The pipelined schedule is a pure scheduling change: bitwise equal
    /// blocks, equal logical volumes, and never slower on the modeled
    /// clock (all sends land on the first boundary and each section
    /// charges `max(send, recv)` ≤ the blocking `send + recv`).
    fn assert_pipelined_matches(
        label: &str,
        run: impl Fn(Option<usize>) -> (Vec<Dense>, WorldStats),
    ) {
        let (base, st_base) = run(None);
        assert_eq!(st_base.total_overlap_stages(), 0, "{label}");
        for k in [1, 2, 7] {
            let (got, st) = run(Some(k));
            for (b, g) in base.iter().zip(&got) {
                assert_eq!(b.data(), g.data(), "{label} chunks={k} diverged");
            }
            for phase in [Phase::P2p, Phase::AllReduce] {
                assert_eq!(
                    st.phase_bytes_total(phase),
                    st_base.phase_bytes_total(phase),
                    "{label} chunks={k}: {phase:?} volume changed"
                );
            }
            assert!(st.total_overlap_stages() > 0, "{label} chunks={k}");
            assert!(
                st.modeled_epoch_time() <= st_base.modeled_epoch_time() + 1e-12,
                "{label} chunks={k}: overlapped slower than blocking"
            );
        }
    }

    #[test]
    fn fifteend_pipelined_bitwise_matches_blocking() {
        let (adj, h) = setup(6, 14, 5);
        for (p, c) in [(4, 1), (4, 2), (8, 2)] {
            for aware in [true, false] {
                let bounds = even_bounds(adj.rows(), p / c);
                let plan = Plan15d::build(&adj, p, c, &bounds, aware);
                let label = format!("1.5D p={p} c={c} aware={aware}");
                assert_pipelined_matches(&label, |chunks| {
                    run(p, &h, 1, |me| plan.stage_loop(me, aware), |_| 0, chunks)
                });
            }
        }
    }

    #[test]
    fn twod_pipelined_bitwise_matches_blocking() {
        let (adj, h) = setup(6, 17, 5);
        for (pr, pc) in [(2, 2), (4, 1), (4, 2)] {
            for aware in [true, false] {
                let bounds = even_bounds(adj.rows(), pr);
                let plan = Plan2d::build(&adj, pr, pc, &bounds, aware);
                let label = format!("2D pr={pr} pc={pc} aware={aware}");
                assert_pipelined_matches(&label, |chunks| {
                    let panel = |me: usize| plan.ranks[me].j;
                    run(pr * pc, &h, pc, |me| plan.stage_loop(me), panel, chunks)
                });
            }
        }
    }

    #[test]
    fn threed_pipelined_bitwise_matches_blocking() {
        let (adj, h) = setup(6, 18, 5);
        for (pr, pc, c) in [(2, 1, 2), (2, 2, 2), (4, 1, 2)] {
            for aware in [true, false] {
                let bounds = even_bounds(adj.rows(), pr);
                let plan = Plan3d::build(&adj, pr, pc, c, &bounds, aware);
                let label = format!("3D pr={pr} pc={pc} c={c} aware={aware}");
                assert_pipelined_matches(&label, |chunks| {
                    let panel = |me: usize| plan.ranks[me].j;
                    run(pr * pc * c, &h, pc, |me| plan.stage_loop(me), panel, chunks)
                });
            }
        }
    }

    #[test]
    fn loops_drop_self_sends_and_empty_lists() {
        let (adj, _) = setup(6, 19, 4);
        let bounds = even_bounds(adj.rows(), 4);
        let plan = Plan15d::build(&adj, 8, 2, &bounds, true);
        for me in 0..8 {
            let sl = plan.stage_loop(me, true);
            let rp = &plan.ranks[me];
            assert_eq!(sl.own, rp.i);
            for &(dst, idx) in &sl.sends {
                assert_ne!(dst, me, "rank {me} ships to itself");
                assert!(!idx.is_empty(), "rank {me} ships an empty block");
            }
            for &(src, st) in &sl.stages {
                assert_eq!(src, plan.rank_of(st.k, rp.j), "rank {me} stage {}", st.k);
            }
            assert_eq!(sl.reduce, Some(vec![rp.i * 2, rp.i * 2 + 1]));
        }
    }
}
