//! 3D (2.5D-style) distributed SpMM — the CAGNET family member that
//! trades memory for communication by replicating the dense operand.
//!
//! Layout: a `pr × pc × c` grid; rank `(i, j, l)` is linear rank
//! `l·pr·pc + i·pc + j`. Within each replication layer `l` the ranks
//! form the same `pr × pc` grid as the 2D algorithm: `Aᵀ` is blocked
//! both ways and the dense matrices are blocked by rows across grid
//! rows and feature panels across grid columns. The dense block
//! `H[i][j]` is **replicated across all `c` layers** — every rank
//! `(i, j, ·)` holds an identical copy.
//!
//! The `pr` SUMMA stages are split across the layers: layer `l` folds
//! only stages `k ∈ [s_l, s_{l+1})` (an even split of `0..pr`), so each
//! layer computes a *partial* `Z[i][j]` over its stage slice and the
//! full result is recovered by an all-reduce over the `c` replicas of
//! each block — the fiber group `{(i, j, l') : l'}`. Point-to-point
//! traffic therefore stays entirely within layers and each rank
//! exchanges only `~1/c` of the 2D stage volume; the price is the
//! fiber all-reduce of one `rows_i × panel` block per call.
//!
//! Sparsity-awareness is inherited unchanged from the 2D plan: the
//! sender for stage `k` inside layer `l` ships only the `NnzCols(i, k)`
//! rows each grid-row peer actually touches.

use gnn_comm::{RankCtx, SpanKind};
use spmat::{Csr, Dense};

use super::buffers::EpochBuffers;
use super::plan::{BlockTable, Stage};
use super::stages::{run_stage_loop, StageLoop};

/// Per-rank plan for the 3D algorithm.
#[derive(Clone, Debug)]
pub struct RankPlan3d {
    /// Grid row.
    pub i: usize,
    /// Grid column.
    pub j: usize,
    /// Replication layer.
    pub l: usize,
    /// Global row range of the owned `H`/`Z` block.
    pub row_lo: usize,
    /// End of the global row range.
    pub row_hi: usize,
    /// SUMMA stages this rank's layer folds (`k ∈ [s_l, s_{l+1})`).
    pub stages: Vec<Stage>,
    /// `send_lists[t]` — rows of the owned `H` block to ship to grid row
    /// `t` of the same column and layer. Non-empty only on the layer
    /// that folds stage `k = i` (the designated sender replica).
    pub send_lists: Vec<Vec<u32>>,
}

/// The 3D distribution plan.
#[derive(Clone, Debug)]
pub struct Plan3d {
    /// Matrix dimension.
    pub n: usize,
    /// Grid rows.
    pub pr: usize,
    /// Grid columns.
    pub pc: usize,
    /// Replication layers.
    pub c: usize,
    /// Row-block boundaries (`pr + 1`).
    pub bounds: Vec<usize>,
    /// Stage-slice boundaries per layer (`c + 1` entries over `0..pr`).
    pub layer_slices: Vec<usize>,
    /// Whether exchanges are sparsity-aware.
    pub aware: bool,
    /// Rank-indexed plans (`rank = l·pr·pc + i·pc + j`).
    pub ranks: Vec<RankPlan3d>,
}

impl Plan3d {
    /// Linear rank of `(i, j, l)`.
    pub fn rank_of(&self, i: usize, j: usize, l: usize) -> usize {
        l * self.pr * self.pc + i * self.pc + j
    }

    /// Splits a feature width into `pc` panel boundaries.
    pub fn panel_bounds(&self, f: usize) -> Vec<usize> {
        spmat::gen::sbm::block_bounds(f, self.pc)
    }

    /// The fiber group holding the `c` replicas of block `(i, j)`.
    pub fn fiber_group(&self, i: usize, j: usize) -> Vec<usize> {
        (0..self.c).map(|l| self.rank_of(i, j, l)).collect()
    }

    /// Builds the plan from an already-permuted adjacency and `pr + 1`
    /// row boundaries.
    ///
    /// # Panics
    /// Panics if `bounds` doesn't cover `0..n` with `pr` parts or if
    /// `c` is not in `1..=pr`.
    pub fn build(
        adj: &Csr,
        pr: usize,
        pc: usize,
        c: usize,
        bounds: &[usize],
        aware: bool,
    ) -> Plan3d {
        let n = adj.rows();
        assert_eq!(bounds.len(), pr + 1, "bounds must have pr + 1 entries");
        assert_eq!(bounds[pr], n);
        assert!(pc >= 1);
        assert!(c >= 1 && c <= pr, "need 1 <= c <= pr (got c={c}, pr={pr})");
        let layer_slices = spmat::gen::sbm::block_bounds(pr, c);
        // Layer folding stage k (inverse of layer_slices).
        let layer_of = |k: usize| -> usize {
            (0..c)
                .find(|&l| layer_slices[l] <= k && k < layer_slices[l + 1])
                .expect("stage outside layer slices")
        };

        // Every tile is shared by the panel and layer replicas of its
        // grid row.
        let mut table = BlockTable::new(adj, bounds, aware);
        let mut ranks = Vec::with_capacity(pr * pc * c);
        for l in 0..c {
            for i in 0..pr {
                for j in 0..pc {
                    let stages: Vec<Stage> = (layer_slices[l]..layer_slices[l + 1])
                        .map(|k| table.stage(i, k))
                        .collect();
                    // Only the replica living on the layer that folds
                    // stage k = i ships its block; all p2p stays within
                    // that layer.
                    let send_lists: Vec<Vec<u32>> = if layer_of(i) == l {
                        (0..pr).map(|t| table.needed(t, i)).collect()
                    } else {
                        Vec::new()
                    };
                    ranks.push(RankPlan3d {
                        i,
                        j,
                        l,
                        row_lo: bounds[i],
                        row_hi: bounds[i + 1],
                        stages,
                        send_lists,
                    });
                }
            }
        }
        Plan3d {
            n,
            pr,
            pc,
            c,
            bounds: bounds.to_vec(),
            layer_slices,
            aware,
            ranks,
        }
    }

    /// Rank `me`'s stage loop: its layer's slice of the SUMMA stages,
    /// shipped within its grid column and layer, then the fiber
    /// all-reduce over the `c` replicas of its block.
    pub(crate) fn stage_loop(&self, me: usize) -> StageLoop<'_> {
        let rp = &self.ranks[me];
        StageLoop::new(
            SpanKind::Spmm3d,
            self.aware,
            (rp.i, rp.row_lo, rp.row_hi),
            &rp.stages,
            &rp.send_lists,
            |k| self.rank_of(k, rp.j, rp.l),
            Some(self.fiber_group(rp.i, rp.j)),
        )
    }
}

/// One 3D SpMM: computes `Z[i][j] = (Aᵀ H)[i][j]` from the local block
/// `h_local` (`rows_i × panel_width`, replicated across layers). Each
/// layer folds its stage slice, then the `c` partials are summed over
/// the fiber group so every replica ends with the full block.
pub fn spmm_3d(ctx: &mut RankCtx, plan: &Plan3d, h_local: &Dense) -> Dense {
    spmm_3d_buf(ctx, plan, h_local, &mut EpochBuffers::new())
}

/// [`spmm_3d`] with caller-provided scratch: staging, per-stage blocks
/// and the accumulator come from `bufs`; received buffers retire into it,
/// so repeated calls are allocation-free once the pool is warm.
pub fn spmm_3d_buf(
    ctx: &mut RankCtx,
    plan: &Plan3d,
    h_local: &Dense,
    bufs: &mut EpochBuffers,
) -> Dense {
    run_stage_loop(ctx, &plan.stage_loop(ctx.rank()), h_local, None, bufs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::plan::even_bounds;
    use gnn_comm::{CostModel, Phase, ThreadWorld};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spmat::gen::{rmat, RmatConfig};
    use spmat::graph::gcn_normalize;
    use spmat::spmm::spmm;

    fn setup(scale: u32, seed: u64, f: usize) -> (Csr, Dense) {
        let adj = gcn_normalize(&rmat(RmatConfig::graph500(scale, 5, seed)));
        let mut rng = StdRng::seed_from_u64(seed ^ 31);
        let h = Dense::glorot(adj.rows(), f, &mut rng);
        (adj, h)
    }

    /// Extracts rank (i,j)'s 2D block of a full dense matrix (identical
    /// for every layer replica).
    fn block_of(h: &Dense, plan: &Plan3d, i: usize, j: usize, f: usize) -> Dense {
        let rows = h.row_slice(plan.bounds[i], plan.bounds[i + 1]);
        let pb = plan.panel_bounds(f);
        Dense::from_fn(rows.rows(), pb[j + 1] - pb[j], |r, c| {
            rows.get(r, pb[j] + c)
        })
    }

    /// Reassembles the full matrix from layer 0's blocks.
    fn assemble(blocks: &[Dense], plan: &Plan3d, n: usize, f: usize) -> Dense {
        let pb = plan.panel_bounds(f);
        let mut out = Dense::zeros(n, f);
        for i in 0..plan.pr {
            for j in 0..plan.pc {
                let b = &blocks[plan.rank_of(i, j, 0)];
                for r in 0..b.rows() {
                    for c in 0..b.cols() {
                        out.set(plan.bounds[i] + r, pb[j] + c, b.get(r, c));
                    }
                }
            }
        }
        out
    }

    fn run_spmm(
        adj: &Csr,
        h: &Dense,
        pr: usize,
        pc: usize,
        c: usize,
        aware: bool,
    ) -> (Vec<Dense>, Plan3d, gnn_comm::WorldStats) {
        let bounds = even_bounds(adj.rows(), pr);
        let plan = Plan3d::build(adj, pr, pc, c, &bounds, aware);
        let world = ThreadWorld::new(pr * pc * c, CostModel::perlmutter_like());
        let f = h.cols();
        let (blocks, stats) = world.run(|ctx| {
            let rp = &plan.ranks[ctx.rank()];
            let local = block_of(h, &plan, rp.i, rp.j, f);
            spmm_3d(ctx, &plan, &local)
        });
        (blocks, plan, stats)
    }

    #[test]
    fn aware_matches_sequential() {
        let (adj, h) = setup(6, 1, 8);
        let expected = spmm(&adj, &h);
        for (pr, pc, c) in [(2, 1, 2), (2, 2, 2), (4, 1, 2), (4, 2, 4), (4, 2, 1)] {
            let (blocks, plan, _) = run_spmm(&adj, &h, pr, pc, c, true);
            let got = assemble(&blocks, &plan, adj.rows(), h.cols());
            assert!(got.approx_eq(&expected, 1e-11), "pr={pr} pc={pc} c={c}");
        }
    }

    #[test]
    fn oblivious_matches_sequential() {
        let (adj, h) = setup(6, 2, 8);
        let expected = spmm(&adj, &h);
        let (blocks, plan, _) = run_spmm(&adj, &h, 2, 2, 2, false);
        let got = assemble(&blocks, &plan, adj.rows(), h.cols());
        assert!(got.approx_eq(&expected, 1e-11));
    }

    #[test]
    fn replicas_agree_bitwise() {
        // Every layer holds the same fiber-reduced block, bit for bit.
        let (adj, h) = setup(6, 3, 8);
        let (blocks, plan, _) = run_spmm(&adj, &h, 2, 2, 2, true);
        for i in 0..plan.pr {
            for j in 0..plan.pc {
                let base = &blocks[plan.rank_of(i, j, 0)];
                for l in 1..plan.c {
                    let rep = &blocks[plan.rank_of(i, j, l)];
                    assert_eq!(base.data(), rep.data(), "replica ({i},{j},{l}) diverged");
                }
            }
        }
    }

    #[test]
    fn aware_communicates_less() {
        let (adj, h) = setup(8, 3, 8);
        let (_, _, st_a) = run_spmm(&adj, &h, 4, 1, 2, true);
        let (_, _, st_o) = run_spmm(&adj, &h, 4, 1, 2, false);
        let a = st_a.phase_recv_bytes_total(Phase::P2p);
        let o = st_o.phase_recv_bytes_total(Phase::P2p);
        assert!(a > 0 && a < o, "aware {a} vs oblivious {o}");
    }

    #[test]
    fn replication_divides_p2p_volume() {
        // With c layers each rank folds ~pr/c stages, so its p2p bytes
        // shrink accordingly; the fiber allreduce is the price.
        let (adj, h) = setup(8, 4, 16);
        let (_, _, c1) = run_spmm(&adj, &h, 4, 1, 1, true);
        let (_, _, c4) = run_spmm(&adj, &h, 4, 1, 4, true);
        let max_recv = |st: &gnn_comm::WorldStats| {
            st.per_rank
                .iter()
                .map(|r| r.phase(Phase::P2p).bytes_recv)
                .max()
                .unwrap()
        };
        assert!(
            max_recv(&c4) < max_recv(&c1),
            "c=4 {} !< c=1 {}",
            max_recv(&c4),
            max_recv(&c1)
        );
        // The fiber allreduce is charged on every member (even the
        // degenerate c=1 singleton, matching the collective's uniform
        // accounting), so replication multiplies the total volume.
        assert!(
            c4.phase_recv_bytes_total(Phase::AllReduce)
                > c1.phase_recv_bytes_total(Phase::AllReduce)
        );
    }

    #[test]
    fn c_equals_one_matches_2d_traffic() {
        // A single layer degenerates to the 2D algorithm: same stages,
        // same designated senders, same p2p bytes.
        use crate::dist::twod::{spmm_2d, Plan2d};
        let (adj, h) = setup(6, 5, 8);
        let bounds = even_bounds(adj.rows(), 2);
        let plan2 = Plan2d::build(&adj, 2, 2, &bounds, true);
        let world = ThreadWorld::new(4, CostModel::perlmutter_like());
        let (_, st2) = world.run(|ctx| {
            let rp = &plan2.ranks[ctx.rank()];
            let rows = h.row_slice(plan2.bounds[rp.i], plan2.bounds[rp.i + 1]);
            let pb = plan2.panel_bounds(h.cols());
            let local = Dense::from_fn(rows.rows(), pb[rp.j + 1] - pb[rp.j], |r, c| {
                rows.get(r, pb[rp.j] + c)
            });
            spmm_2d(ctx, &plan2, &local)
        });
        let (_, _, st3) = run_spmm(&adj, &h, 2, 2, 1, true);
        assert_eq!(
            st2.phase_recv_bytes_total(Phase::P2p),
            st3.phase_recv_bytes_total(Phase::P2p)
        );
    }
}
