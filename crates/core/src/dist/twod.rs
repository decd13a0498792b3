//! 2D (SUMMA-style) distributed SpMM — the generalization the paper's
//! conclusion points to ("the same idea of sparsity-awareness ... can be
//! applied to other communication-avoiding schemes, such as 2D").
//!
//! Layout: a `pr × pc` grid. `Aᵀ` is blocked both ways — rank `(i, j)`
//! owns `Aᵀ[i][k]` for all `k` handled in stages — and the dense
//! matrices (`H`, `Z`) are blocked by **rows across grid rows** and
//! **feature panels across grid columns**: rank `(i, j)` owns the
//! `n/pr × f/pc` block `H[i][j]`. One layer step computes
//!
//! ```text
//! Z[i][j] = Σₖ Aᵀ[i][k] · H[k][j]          (SUMMA stages over k)
//! out     = (Z · W)[i][j]                   (row-allreduce of partials)
//! ```
//!
//! so the output has the same layout as the input and layers compose.
//!
//! Communication per stage: the owner `(k, j)` of `H[k][j]` sends to the
//! grid column's ranks `(i, j)`. The sparsity-oblivious variant ships the
//! whole block; the sparsity-aware variant ships only `NnzCols(i, k)`
//! rows — the same sets as the 1D/1.5D algorithms, reused unchanged.
//! The `× W` step costs an `n/pr × f_out` all-reduce over each grid row,
//! which is exactly why the paper finds 2D less performant for
//! tall-skinny GNN operands (the reduction doesn't shrink with `pc`).

use gnn_comm::{RankCtx, SpanKind};
use spmat::{Csr, Dense};

use super::buffers::EpochBuffers;
use super::plan::{BlockTable, Stage};
use super::stages::{run_stage_loop, StageLoop};

/// Per-rank plan for the 2D algorithm.
#[derive(Clone, Debug)]
pub struct RankPlan2d {
    /// Grid row.
    pub i: usize,
    /// Grid column.
    pub j: usize,
    /// Global row range of the owned `H`/`Z` block.
    pub row_lo: usize,
    /// End of the global row range.
    pub row_hi: usize,
    /// The `pr` SUMMA stages `k = 0..pr` this rank folds.
    pub stages: Vec<Stage>,
    /// `send_lists[l]` — rows of the owned `H` block to ship to grid row
    /// `l` of the same column (this rank owns block row `i`, needed by
    /// `(l, j)` at stage `k = i`).
    pub send_lists: Vec<Vec<u32>>,
}

/// The 2D distribution plan.
#[derive(Clone, Debug)]
pub struct Plan2d {
    /// Matrix dimension.
    pub n: usize,
    /// Grid rows.
    pub pr: usize,
    /// Grid columns.
    pub pc: usize,
    /// Row-block boundaries (`pr + 1`).
    pub bounds: Vec<usize>,
    /// Whether exchanges are sparsity-aware.
    pub aware: bool,
    /// Rank-indexed plans (`rank = i·pc + j`).
    pub ranks: Vec<RankPlan2d>,
}

impl Plan2d {
    /// Linear rank of `(i, j)`.
    pub fn rank_of(&self, i: usize, j: usize) -> usize {
        i * self.pc + j
    }

    /// Splits a feature width into `pc` panel boundaries.
    pub fn panel_bounds(&self, f: usize) -> Vec<usize> {
        spmat::gen::sbm::block_bounds(f, self.pc)
    }

    /// Builds the plan from an already-permuted adjacency and `pr + 1`
    /// row boundaries.
    ///
    /// # Panics
    /// Panics if `bounds` doesn't cover `0..n` with `pr` parts.
    pub fn build(adj: &Csr, pr: usize, pc: usize, bounds: &[usize], aware: bool) -> Plan2d {
        let n = adj.rows();
        assert_eq!(bounds.len(), pr + 1, "bounds must have pr + 1 entries");
        assert_eq!(bounds[pr], n);
        assert!(pc >= 1);

        // Every tile is shared by the pc panel ranks of its grid row.
        let mut table = BlockTable::new(adj, bounds, aware);
        let mut ranks = Vec::with_capacity(pr * pc);
        for i in 0..pr {
            for j in 0..pc {
                let stages: Vec<Stage> = (0..pr).map(|k| table.stage(i, k)).collect();
                // This rank owns H block-row i, panel j; at stage k = i
                // every rank (l, j) of its grid column needs rows
                // NnzCols(l, i) of it.
                let send_lists: Vec<Vec<u32>> = (0..pr).map(|l| table.needed(l, i)).collect();
                ranks.push(RankPlan2d {
                    i,
                    j,
                    row_lo: bounds[i],
                    row_hi: bounds[i + 1],
                    stages,
                    send_lists,
                });
            }
        }
        Plan2d {
            n,
            pr,
            pc,
            bounds: bounds.to_vec(),
            aware,
            ranks,
        }
    }

    /// Rank `me`'s stage loop: the ranks of its grid column ship to
    /// it, and no all-reduce follows (the dense step sums panels).
    pub(crate) fn stage_loop(&self, me: usize) -> StageLoop<'_> {
        let rp = &self.ranks[me];
        StageLoop::new(
            SpanKind::Spmm2d,
            self.aware,
            (rp.i, rp.row_lo, rp.row_hi),
            &rp.stages,
            &rp.send_lists,
            |k| self.rank_of(k, rp.j),
            None,
        )
    }
}

/// One 2D SpMM: computes `Z[i][j] = (Aᵀ H)[i][j]` from the local block
/// `h_local` (`rows_i × panel_width`). All communication stays within
/// grid columns (every rank exchanges only its own feature panel).
pub fn spmm_2d(ctx: &mut RankCtx, plan: &Plan2d, h_local: &Dense) -> Dense {
    spmm_2d_buf(ctx, plan, h_local, &mut EpochBuffers::new())
}

/// [`spmm_2d`] with caller-provided scratch: staging, per-stage blocks
/// and the accumulator come from `bufs`; received buffers retire into it,
/// so repeated calls are allocation-free once the pool is warm.
pub fn spmm_2d_buf(
    ctx: &mut RankCtx,
    plan: &Plan2d,
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

    /// Extracts rank (i,j)'s 2D block of a full dense matrix.
    fn block_of(h: &Dense, plan: &Plan2d, i: usize, j: usize, f: usize) -> Dense {
        let rows = h.row_slice(plan.bounds[i], plan.bounds[i + 1]);
        let pb = plan.panel_bounds(f);
        Dense::from_fn(rows.rows(), pb[j + 1] - pb[j], |r, c| {
            rows.get(r, pb[j] + c)
        })
    }

    /// Reassembles the full matrix from 2D blocks.
    fn assemble(blocks: &[Dense], plan: &Plan2d, n: usize, f: usize) -> Dense {
        let pb = plan.panel_bounds(f);
        let mut out = Dense::zeros(n, f);
        for i in 0..plan.pr {
            for j in 0..plan.pc {
                let b = &blocks[plan.rank_of(i, j)];
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
        aware: bool,
    ) -> (Dense, gnn_comm::WorldStats) {
        let f = h.cols();
        let bounds = even_bounds(adj.rows(), pr);
        let plan = Plan2d::build(adj, pr, pc, &bounds, aware);
        let world = ThreadWorld::new(pr * pc, CostModel::perlmutter_like());
        let (blocks, stats) = world.run(|ctx| {
            let rp = &plan.ranks[ctx.rank()];
            let local = block_of(h, &plan, rp.i, rp.j, f);
            spmm_2d(ctx, &plan, &local)
        });
        (assemble(&blocks, &plan, adj.rows(), f), stats)
    }

    #[test]
    fn aware_matches_sequential() {
        let (adj, h) = setup(6, 1, 8);
        let expected = spmm(&adj, &h);
        for (pr, pc) in [(2, 2), (4, 2), (2, 4), (4, 1), (1, 4)] {
            let (got, _) = run_spmm(&adj, &h, pr, pc, true);
            assert!(got.approx_eq(&expected, 1e-11), "pr={pr} pc={pc}");
        }
    }

    #[test]
    fn oblivious_matches_sequential() {
        let (adj, h) = setup(6, 2, 8);
        let expected = spmm(&adj, &h);
        let (got, _) = run_spmm(&adj, &h, 2, 2, false);
        assert!(got.approx_eq(&expected, 1e-11));
    }

    #[test]
    fn aware_communicates_less() {
        let (adj, h) = setup(8, 3, 8);
        let (_, st_a) = run_spmm(&adj, &h, 4, 2, true);
        let (_, st_o) = run_spmm(&adj, &h, 4, 2, false);
        let a = st_a.phase_recv_bytes_total(Phase::P2p);
        let o = st_o.phase_recv_bytes_total(Phase::P2p);
        assert!(a > 0 && a < o, "aware {a} vs oblivious {o}");
    }

    #[test]
    fn panels_shrink_per_rank_traffic() {
        // Widening the grid (more feature panels) divides each rank's
        // exchanged bytes, the 2D scaling promise.
        let (adj, h) = setup(8, 4, 16);
        let (_, pc1) = run_spmm(&adj, &h, 4, 1, true);
        let (_, pc4) = run_spmm(&adj, &h, 4, 4, true);
        let max_recv = |st: &gnn_comm::WorldStats| {
            st.per_rank
                .iter()
                .map(|r| r.phase(Phase::P2p).bytes_recv)
                .max()
                .unwrap()
        };
        assert!(
            max_recv(&pc4) < max_recv(&pc1) / 2,
            "pc=4 {} !< pc=1 {} / 2",
            max_recv(&pc4),
            max_recv(&pc1)
        );
    }

    #[test]
    fn communication_stays_within_grid_columns() {
        // pc=2: the SpMM's traffic is all point-to-point within grid
        // columns; the grid-row all-reduce belongs to the dense step.
        let (adj, h) = setup(6, 6, 8);
        let (_, st) = run_spmm(&adj, &h, 2, 2, true);
        assert!(st.phase_recv_bytes_total(Phase::P2p) > 0);
        assert_eq!(st.phase_recv_bytes_total(Phase::AllReduce), 0);
    }
}
