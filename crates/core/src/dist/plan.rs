//! Communication plans: everything derivable from the sparsity pattern
//! before training starts.
//!
//! Because the adjacency pattern never changes during training (§1 of the
//! paper), the `NnzCols(i, j)` sets, the compacted local blocks, and the
//! send/receive row lists are computed **once** and reused by every SpMM
//! of every epoch — this is what amortizes the preprocessing.
//!
//! * [`Plan1d`] — block-row distribution over `p` ranks (Algorithm 1).
//! * [`Plan15d`] — `p/c × c` grid with block rows replicated `c` times
//!   (Algorithm 2).
//! * `BlockTable` — the `Aᵀ[i][k]` tiles every stage-loop plan (1.5D,
//!   2D, 3D) is assembled from.

use gnn_comm::SpanKind;
use spmat::Csr;

use super::stages::StageLoop;

/// Per-rank plan for the 1D algorithms.
#[derive(Clone, Debug)]
pub struct RankPlan1d {
    /// First global row owned.
    pub row_lo: usize,
    /// One past the last global row owned.
    pub row_hi: usize,
    /// `Aᵀᵢ`: this rank's block row, columns still global.
    pub block: Csr,
    /// Sorted distinct global columns of `block` — the union of all
    /// `NnzCols(i, ·)`, i.e. exactly the rows of `H` the local SpMM reads.
    pub cols: Vec<u32>,
    /// `block` with columns remapped to positions in `cols` (the compact
    /// matrix multiplied against the gathered `H̃`).
    pub block_compact: Csr,
    /// `col_ranges[j] = (start, len)`: the slice of `cols` lying in rank
    /// `j`'s row range. Because ownership ranges are contiguous in global
    /// id space and `cols` is sorted, each rank's needed rows occupy a
    /// contiguous slice — `cols[start..start+len]` is `NnzCols(i, j)`.
    pub col_ranges: Vec<(usize, usize)>,
    /// `send_to[j]`: global row ids (within our range) whose `H` rows rank
    /// `j` needs from us. `send_to[i]` is empty.
    pub send_to: Vec<Vec<u32>>,
}

impl RankPlan1d {
    /// `NnzCols(i, j)`: the global rows of `Hⱼ` this rank must receive.
    pub fn recv_from(&self, j: usize) -> &[u32] {
        let (start, len) = self.col_ranges[j];
        &self.cols[start..start + len]
    }

    /// Rows of `H` received from anyone (excludes locally-owned columns).
    pub fn recv_row_count(&self, own_rank: usize) -> u64 {
        self.col_ranges
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != own_rank)
            .map(|(_, &(_, len))| len as u64)
            .sum()
    }

    /// Rows of `H` sent to anyone.
    pub fn send_row_count(&self) -> u64 {
        self.send_to.iter().map(|v| v.len() as u64).sum()
    }
}

/// The 1D distribution plan for all ranks.
#[derive(Clone, Debug)]
pub struct Plan1d {
    /// Global matrix dimension.
    pub n: usize,
    /// World size.
    pub p: usize,
    /// Row ownership boundaries (`p + 1` entries).
    pub bounds: Vec<usize>,
    /// Per-rank plans.
    pub ranks: Vec<RankPlan1d>,
}

impl Plan1d {
    /// Builds the plan from an already-permuted adjacency matrix and part
    /// boundaries (from [`partition::Partition::block_bounds`] or an even
    /// split).
    ///
    /// # Panics
    /// Panics if `bounds` is not a monotone cover of `0..n`.
    pub fn build(adj: &Csr, bounds: &[usize]) -> Plan1d {
        let n = adj.rows();
        let p = bounds.len() - 1;
        assert_eq!(bounds[0], 0);
        assert_eq!(bounds[p], n, "bounds must cover all rows");

        let mut ranks: Vec<RankPlan1d> = (0..p)
            .map(|i| {
                let (lo, hi) = (bounds[i], bounds[i + 1]);
                let block = adj.row_block(lo, hi);
                let cols = block.distinct_cols();
                let block_compact = block.remap_cols(&cols);
                // Slice `cols` by ownership ranges.
                let mut col_ranges = Vec::with_capacity(p);
                let mut start = 0usize;
                for j in 0..p {
                    let end = start
                        + cols[start..]
                            .iter()
                            .take_while(|&&c| (c as usize) < bounds[j + 1])
                            .count();
                    col_ranges.push((start, end - start));
                    start = end;
                }
                debug_assert_eq!(start, cols.len());
                RankPlan1d {
                    row_lo: lo,
                    row_hi: hi,
                    block,
                    cols,
                    block_compact,
                    col_ranges,
                    send_to: vec![Vec::new(); p],
                }
            })
            .collect();

        // Mirror receive lists into send lists: what i needs from j is
        // what j sends to i.
        for i in 0..p {
            for j in 0..p {
                if i == j {
                    continue;
                }
                let needed = ranks[i].recv_from(j).to_vec();
                ranks[j].send_to[i] = needed;
            }
        }
        Plan1d {
            n,
            p,
            bounds: bounds.to_vec(),
            ranks,
        }
    }

    /// Rows owned by rank `i`.
    pub fn rows_of(&self, i: usize) -> usize {
        self.bounds[i + 1] - self.bounds[i]
    }
}

/// One stage of a stage-loop SpMM (1.5D, 2D, 3D) on one rank: the tile
/// `Aᵀ[i][k]` of the owned block row and the `H` rows it reads.
#[derive(Clone, Debug)]
pub struct Stage {
    /// Block-row index `k` of `H` this stage consumes.
    pub k: usize,
    /// `Aᵀ[i][k]` with columns remapped to positions in `needed`.
    pub block_compact: Csr,
    /// Global row ids of `H_k` this stage reads (`NnzCols(i, k)` for the
    /// sparsity-aware variant; the whole of `k`'s range for the
    /// oblivious variant).
    pub needed: Vec<u32>,
}

/// The `Aᵀ[i][k]` tiles of a block-row distribution, each cut once and
/// shared by every replica, panel and layer that folds it.
pub(crate) struct BlockTable<'a> {
    adj: &'a Csr,
    bounds: &'a [usize],
    aware: bool,
    /// `tiles[i][k]`: stage `k` of block row `i`, once built.
    tiles: Vec<Vec<Option<Stage>>>,
}

impl<'a> BlockTable<'a> {
    /// An empty table over block rows `bounds`; `aware` selects
    /// `NnzCols` (sparsity-aware) or whole blocks (oblivious).
    pub fn new(adj: &'a Csr, bounds: &'a [usize], aware: bool) -> Self {
        let parts = bounds.len() - 1;
        let tiles = (0..parts).map(|_| vec![None; parts]).collect();
        BlockTable {
            adj,
            bounds,
            aware,
            tiles,
        }
    }

    fn tile(&mut self, i: usize, k: usize) -> &Stage {
        let (adj, b, aware) = (self.adj, self.bounds, self.aware);
        self.tiles[i][k].get_or_insert_with(|| {
            // Aᵀ[i][k]: rows [b_i, b_{i+1}), cols restricted to block k.
            let (klo, khi) = (b[k], b[k + 1]);
            let block = adj.row_block(b[i], b[i + 1]).col_range_block(klo, khi);
            let needed: Vec<u32> = if aware {
                block.distinct_cols_in_range(klo, khi)
            } else {
                (klo as u32..khi as u32).collect()
            };
            Stage {
                k,
                block_compact: block.remap_cols(&needed),
                needed,
            }
        })
    }

    /// Stage `k` of block row `i`.
    pub fn stage(&mut self, i: usize, k: usize) -> Stage {
        self.tile(i, k).clone()
    }

    /// The rows of `H_k` block row `i` reads: what `k`'s designated
    /// sender ships to `i`'s consumer.
    pub fn needed(&mut self, i: usize, k: usize) -> Vec<u32> {
        self.tile(i, k).needed.clone()
    }
}

/// Per-rank plan for the 1.5D algorithms.
#[derive(Clone, Debug)]
pub struct RankPlan15d {
    /// Grid row (block row owned, replicated).
    pub i: usize,
    /// Grid column.
    pub j: usize,
    /// First global row of the owned block.
    pub row_lo: usize,
    /// One past the last global row of the owned block.
    pub row_hi: usize,
    /// The `s = p/c²` stages this rank executes.
    pub stages: Vec<Stage>,
    /// If this rank is its block row's designated sender (its grid column
    /// consumes block row `i`), `send_lists[l]` holds the global rows of
    /// `H_i` to ship to grid-row `l` in the same column. Empty otherwise.
    pub send_lists: Vec<Vec<u32>>,
}

/// The 1.5D distribution plan.
#[derive(Clone, Debug)]
pub struct Plan15d {
    /// Global matrix dimension.
    pub n: usize,
    /// Total ranks (`pr · c`).
    pub p: usize,
    /// Replication factor.
    pub c: usize,
    /// Grid rows (`p / c`).
    pub pr: usize,
    /// Stages per rank (`pr / c = p / c²`).
    pub s: usize,
    /// Block-row boundaries (`pr + 1`).
    pub bounds: Vec<usize>,
    /// Rank-indexed plans (`rank = i·c + j`).
    pub ranks: Vec<RankPlan15d>,
}

impl Plan15d {
    /// Linear rank of grid position `(i, j)`.
    pub fn rank_of(&self, i: usize, j: usize) -> usize {
        i * self.c + j
    }

    /// Builds the plan. `bounds` has `p/c + 1` entries; `aware` selects
    /// sparsity-aware (`NnzCols`) vs oblivious (whole block) exchanges.
    ///
    /// # Panics
    /// Panics unless `p` is divisible by `c²` (the paper's grid
    /// requirement) and `bounds` covers `0..n` with `p/c` parts.
    pub fn build(adj: &Csr, p: usize, c: usize, bounds: &[usize], aware: bool) -> Plan15d {
        assert!(
            c >= 1 && p.is_multiple_of(c * c),
            "need c² | p (got p={p}, c={c})"
        );
        let pr = p / c;
        let s = pr / c;
        let n = adj.rows();
        assert_eq!(bounds.len(), pr + 1, "bounds must have p/c + 1 entries");
        assert_eq!(bounds[pr], n);

        let mut table = BlockTable::new(adj, bounds, aware);
        let mut ranks = Vec::with_capacity(p);
        for i in 0..pr {
            for j in 0..c {
                let stages: Vec<Stage> = (j * s..(j + 1) * s).map(|k| table.stage(i, k)).collect();
                // Designated sender of block row i is the replica in the
                // grid column that consumes block row i: j* = i / s.
                let is_sender = j == i / s;
                let send_lists: Vec<Vec<u32>> = if is_sender {
                    (0..pr).map(|l| table.needed(l, i)).collect()
                } else {
                    Vec::new()
                };
                ranks.push(RankPlan15d {
                    i,
                    j,
                    row_lo: bounds[i],
                    row_hi: bounds[i + 1],
                    stages,
                    send_lists,
                });
            }
        }
        Plan15d {
            n,
            p,
            c,
            pr,
            s,
            bounds: bounds.to_vec(),
            ranks,
        }
    }

    /// Rank `me`'s stage loop: its grid column's designated senders
    /// ship to it, and the `c` replicas of its block row sum their
    /// partials.
    pub(crate) fn stage_loop(&self, me: usize, aware: bool) -> StageLoop<'_> {
        let rp = &self.ranks[me];
        StageLoop::new(
            SpanKind::Spmm15d,
            aware,
            (rp.i, rp.row_lo, rp.row_hi),
            &rp.stages,
            &rp.send_lists,
            |k| self.rank_of(k, rp.j),
            Some((0..self.c).map(|j| self.rank_of(rp.i, j)).collect()),
        )
    }
}

/// Even `p + 1` boundaries over `0..n` (the no-partitioner distribution).
pub fn even_bounds(n: usize, p: usize) -> Vec<usize> {
    spmat::gen::sbm::block_bounds(n, p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmat::gen::{grid2d, rmat, RmatConfig};

    #[test]
    fn plan1d_recv_matches_distinct_cols() {
        let adj = rmat(RmatConfig::graph500(7, 6, 1));
        let bounds = even_bounds(adj.rows(), 4);
        let plan = Plan1d::build(&adj, &bounds);
        for i in 0..4 {
            let rp = &plan.ranks[i];
            for j in 0..4 {
                let expected = rp.block.distinct_cols_in_range(bounds[j], bounds[j + 1]);
                assert_eq!(rp.recv_from(j), &expected[..], "rank {i} from {j}");
            }
        }
    }

    #[test]
    fn plan1d_send_mirrors_recv() {
        let adj = rmat(RmatConfig::graph500(7, 6, 2));
        let bounds = even_bounds(adj.rows(), 4);
        let plan = Plan1d::build(&adj, &bounds);
        for i in 0..4 {
            for j in 0..4 {
                if i == j {
                    assert!(plan.ranks[j].send_to[i].is_empty());
                    continue;
                }
                assert_eq!(plan.ranks[j].send_to[i], plan.ranks[i].recv_from(j));
            }
        }
    }

    #[test]
    fn plan1d_send_rows_lie_in_own_range() {
        let adj = rmat(RmatConfig::graph500(7, 6, 3));
        let bounds = even_bounds(adj.rows(), 4);
        let plan = Plan1d::build(&adj, &bounds);
        for j in 0..4 {
            for row_list in &plan.ranks[j].send_to {
                for &r in row_list {
                    assert!((r as usize) >= bounds[j] && (r as usize) < bounds[j + 1]);
                }
            }
        }
    }

    #[test]
    fn plan1d_compact_block_dims() {
        let adj = grid2d(8);
        let bounds = even_bounds(64, 4);
        let plan = Plan1d::build(&adj, &bounds);
        for rp in &plan.ranks {
            assert_eq!(rp.block_compact.rows(), rp.row_hi - rp.row_lo);
            assert_eq!(rp.block_compact.cols(), rp.cols.len());
            assert_eq!(rp.block_compact.nnz(), rp.block.nnz());
        }
    }

    #[test]
    fn plan15d_grid_structure() {
        let adj = rmat(RmatConfig::graph500(7, 6, 4));
        let p = 8;
        let c = 2;
        let bounds = even_bounds(adj.rows(), p / c);
        let plan = Plan15d::build(&adj, p, c, &bounds, true);
        assert_eq!(plan.pr, 4);
        assert_eq!(plan.s, 2);
        assert_eq!(plan.ranks.len(), 8);
        for i in 0..4 {
            for j in 0..2 {
                let rp = &plan.ranks[plan.rank_of(i, j)];
                assert_eq!((rp.i, rp.j), (i, j));
                assert_eq!(rp.stages.len(), 2);
                // Stages cover k = j*s..(j+1)*s.
                let ks: Vec<usize> = rp.stages.iter().map(|st| st.k).collect();
                assert_eq!(ks, vec![j * 2, j * 2 + 1]);
            }
        }
    }

    #[test]
    fn plan15d_exactly_one_sender_column_per_block_row() {
        let adj = rmat(RmatConfig::graph500(7, 6, 5));
        let p = 8;
        let c = 2;
        let bounds = even_bounds(adj.rows(), p / c);
        let plan = Plan15d::build(&adj, p, c, &bounds, true);
        for i in 0..plan.pr {
            let senders: Vec<usize> = (0..c)
                .filter(|&j| !plan.ranks[plan.rank_of(i, j)].send_lists.is_empty())
                .collect();
            assert_eq!(senders.len(), 1, "block row {i}");
            assert_eq!(senders[0], i / plan.s);
        }
    }

    #[test]
    fn plan15d_stage_blocks_partition_the_block_row() {
        // Union of all stages' nnz across the c ranks of a grid row must
        // equal the block row's nnz.
        let adj = rmat(RmatConfig::graph500(7, 6, 6));
        let p = 8;
        let c = 2;
        let bounds = even_bounds(adj.rows(), p / c);
        let plan = Plan15d::build(&adj, p, c, &bounds, true);
        for i in 0..plan.pr {
            let total: usize = (0..c)
                .map(|j| {
                    plan.ranks[plan.rank_of(i, j)]
                        .stages
                        .iter()
                        .map(|st| st.block_compact.nnz())
                        .sum::<usize>()
                })
                .sum();
            let block_nnz = adj.row_block(bounds[i], bounds[i + 1]).nnz();
            assert_eq!(total, block_nnz, "block row {i}");
        }
    }

    #[test]
    fn oblivious_plan_needs_full_ranges() {
        let adj = grid2d(8);
        let bounds = even_bounds(64, 4);
        let plan = Plan15d::build(&adj, 4, 1, &bounds, false);
        for rp in &plan.ranks {
            for st in &rp.stages {
                assert_eq!(
                    st.needed.len(),
                    bounds[st.k + 1] - bounds[st.k],
                    "oblivious stage must need the whole block"
                );
            }
        }
    }

    #[test]
    fn aware_needs_subset_of_oblivious() {
        let adj = rmat(RmatConfig::graph500(8, 4, 7));
        let bounds = even_bounds(adj.rows(), 4);
        let aware = Plan15d::build(&adj, 8, 2, &bounds, true);
        let obliv = Plan15d::build(&adj, 8, 2, &bounds, false);
        let mut strictly_smaller = false;
        for (ra, ro) in aware.ranks.iter().zip(&obliv.ranks) {
            for (sa, so) in ra.stages.iter().zip(&ro.stages) {
                assert!(sa.needed.len() <= so.needed.len());
                if sa.needed.len() < so.needed.len() {
                    strictly_smaller = true;
                }
            }
        }
        assert!(strictly_smaller, "sparsity-awareness saved nothing");
    }

    #[test]
    #[should_panic(expected = "need c² | p")]
    fn invalid_grid_panics() {
        let adj = grid2d(4);
        let bounds = even_bounds(16, 3);
        Plan15d::build(&adj, 6, 2, &bounds, true);
    }
}
