//! 1.5D distributed SpMM (Algorithm 2): a `p/c × c` process grid where
//! each block row of `Aᵀ` and `H` is replicated on `c` ranks. Each rank
//! multiplies `s = p/c²` column blocks against received `H` blocks and
//! the partial results are summed with an all-reduce over the process
//! row.
//!
//! Communication: block row `q`'s data is consumed only by grid column
//! `j* = q / s`, and the replica of `H_q` living in that column —
//! rank `(q, j*)` — is the designated sender. The sparsity-aware variant
//! ships only `NnzCols(l, q)` rows to each consumer `(l, j*)`; the
//! oblivious variant ships the whole block.

use gnn_comm::RankCtx;
use spmat::Dense;

use super::buffers::EpochBuffers;
use super::plan::Plan15d;
use super::stages::run_stage_loop;

/// Executes one 1.5D SpMM on the calling rank. `h_local` is this rank's
/// replicated block row `H_i`; `aware` must match the plan's build flag.
///
/// Returns the full `Zᵢ = (Aᵀ H)ᵢ`, replicated across the process row.
pub fn spmm_15d(ctx: &mut RankCtx, plan: &Plan15d, h_local: &Dense, aware: bool) -> Dense {
    spmm_15d_buf(ctx, plan, h_local, aware, &mut EpochBuffers::new())
}

/// [`spmm_15d`] with caller-provided scratch: staging, per-stage blocks
/// and the partial accumulator come from `bufs`; received buffers retire
/// into it, so repeated calls are allocation-free once the pool is warm.
pub fn spmm_15d_buf(
    ctx: &mut RankCtx,
    plan: &Plan15d,
    h_local: &Dense,
    aware: bool,
    bufs: &mut EpochBuffers,
) -> Dense {
    run_stage_loop(
        ctx,
        &plan.stage_loop(ctx.rank(), aware),
        h_local,
        None,
        bufs,
    )
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

    fn setup(scale: u32, seed: u64, f: usize) -> (spmat::Csr, Dense) {
        let adj = gcn_normalize(&rmat(RmatConfig::graph500(scale, 5, seed)));
        let mut rng = StdRng::seed_from_u64(seed ^ 7);
        let h = Dense::glorot(adj.rows(), f, &mut rng);
        (adj, h)
    }

    fn run_dist(
        adj: &spmat::Csr,
        h: &Dense,
        p: usize,
        c: usize,
        aware: bool,
    ) -> (Dense, gnn_comm::WorldStats) {
        let pr = p / c;
        let bounds = even_bounds(adj.rows(), pr);
        let plan = Plan15d::build(adj, p, c, &bounds, aware);
        let world = ThreadWorld::new(p, CostModel::perlmutter_like());
        let (blocks, stats) = world.run(|ctx| {
            let rp = &plan.ranks[ctx.rank()];
            let local = h.row_slice(rp.row_lo, rp.row_hi);
            spmm_15d(ctx, &plan, &local, aware)
        });
        // Grid column 0's results stacked = full Z; other columns hold
        // replicas (verified in replicas_agree).
        let col0: Vec<&Dense> = (0..pr).map(|i| &blocks[i * c]).collect();
        (Dense::vstack(&col0), stats)
    }

    #[test]
    fn aware_matches_sequential_for_various_grids() {
        let (adj, h) = setup(6, 1, 5);
        let expected = spmm(&adj, &h);
        for (p, c) in [(4, 1), (4, 2), (8, 2), (16, 4), (9, 3)] {
            let (got, _) = run_dist(&adj, &h, p, c, true);
            assert!(got.approx_eq(&expected, 1e-11), "p={p} c={c}");
        }
    }

    #[test]
    fn oblivious_matches_sequential() {
        let (adj, h) = setup(6, 2, 5);
        let expected = spmm(&adj, &h);
        for (p, c) in [(4, 2), (8, 2), (16, 4)] {
            let (got, _) = run_dist(&adj, &h, p, c, false);
            assert!(got.approx_eq(&expected, 1e-11), "p={p} c={c}");
        }
    }

    #[test]
    fn replicas_agree() {
        let (adj, h) = setup(6, 3, 4);
        let p = 8;
        let c = 2;
        let pr = p / c;
        let bounds = even_bounds(adj.rows(), pr);
        let plan = Plan15d::build(&adj, p, c, &bounds, true);
        let world = ThreadWorld::new(p, CostModel::perlmutter_like());
        let (blocks, _) = world.run(|ctx| {
            let rp = &plan.ranks[ctx.rank()];
            let local = h.row_slice(rp.row_lo, rp.row_hi);
            spmm_15d(ctx, &plan, &local, true)
        });
        for i in 0..pr {
            for j in 1..c {
                assert!(
                    blocks[i * c].approx_eq(&blocks[i * c + j], 0.0),
                    "replica divergence at row {i} col {j}"
                );
            }
        }
    }

    #[test]
    fn aware_sends_fewer_bytes_than_oblivious() {
        let (adj, h) = setup(8, 4, 6);
        let (_, st_a) = run_dist(&adj, &h, 8, 2, true);
        let (_, st_o) = run_dist(&adj, &h, 8, 2, false);
        let a = st_a.phase_bytes_total(Phase::P2p);
        let o = st_o.phase_bytes_total(Phase::P2p);
        assert!(a > 0 && a < o, "aware {a} vs oblivious {o}");
    }

    #[test]
    fn replication_reduces_p2p_volume() {
        // Same p, larger c → fewer, bigger blocks → less total traffic
        // (each block row is fetched by fewer distinct consumers).
        let (adj, h) = setup(8, 5, 6);
        let (_, c2) = run_dist(&adj, &h, 16, 2, true);
        let (_, c4) = run_dist(&adj, &h, 16, 4, true);
        assert!(
            c4.phase_bytes_total(Phase::P2p) < c2.phase_bytes_total(Phase::P2p),
            "c=4 {} vs c=2 {}",
            c4.phase_bytes_total(Phase::P2p),
            c2.phase_bytes_total(Phase::P2p)
        );
    }

    #[test]
    fn allreduce_volume_grows_with_c() {
        let (adj, h) = setup(7, 6, 6);
        let (_, c2) = run_dist(&adj, &h, 16, 2, true);
        let (_, c4) = run_dist(&adj, &h, 16, 4, true);
        // Larger c → bigger block rows (n/(p/c) rows) and bigger groups.
        assert!(
            c4.phase_time(Phase::AllReduce) > c2.phase_time(Phase::AllReduce),
            "c=4 {} vs c=2 {}",
            c4.phase_time(Phase::AllReduce),
            c2.phase_time(Phase::AllReduce)
        );
    }

    #[test]
    fn c_equals_one_reduces_to_1d_pattern() {
        // With c = 1 the result must still be correct and all traffic is
        // point-to-point.
        let (adj, h) = setup(6, 7, 3);
        let expected = spmm(&adj, &h);
        let (got, stats) = run_dist(&adj, &h, 4, 1, true);
        assert!(got.approx_eq(&expected, 1e-11));
        assert_eq!(stats.phase_time(Phase::AllReduce), 0.0);
    }
}
