//! The analytic cost estimator must reproduce the threaded executor's
//! accounting *exactly* — same bytes, same flops, same modeled seconds,
//! phase by phase, rank by rank. The figure sweeps rely on the analytic
//! path; this test is what makes its numbers trustworthy.

use gnn_comm::stats::PHASES;
use gnn_comm::{CostModel, OverlapConfig};
use gnn_core::analytic::{estimate, AnalyticInput};
use gnn_core::dist::even_bounds;
use gnn_core::{train_distributed, Algo, DistConfig, GcnConfig};
use spmat::dataset::{amazon_scaled, protein_scaled, Dataset};

fn assert_stats_equal(
    executor: &gnn_comm::WorldStats,
    analytic: &gnn_comm::WorldStats,
    label: &str,
) {
    assert_eq!(executor.p(), analytic.p(), "{label}: rank count");
    for (rank, (e, a)) in executor.per_rank.iter().zip(&analytic.per_rank).enumerate() {
        for phase in PHASES {
            let pe = e.phase(phase);
            let pa = a.phase(phase);
            assert_eq!(pe.ops, pa.ops, "{label}: rank {rank} {phase:?} ops");
            assert_eq!(
                pe.bytes_sent, pa.bytes_sent,
                "{label}: rank {rank} {phase:?} bytes_sent"
            );
            assert_eq!(
                pe.bytes_recv, pa.bytes_recv,
                "{label}: rank {rank} {phase:?} bytes_recv"
            );
            assert_eq!(pe.flops, pa.flops, "{label}: rank {rank} {phase:?} flops");
            let d = (pe.modeled_seconds - pa.modeled_seconds).abs();
            assert!(
                d <= 1e-9 * pe.modeled_seconds.abs().max(1e-12),
                "{label}: rank {rank} {phase:?} modeled {} vs {}",
                pe.modeled_seconds,
                pa.modeled_seconds
            );
        }
        // The measured-overlap counters must agree too: same stage
        // count, same hidden-comm bookkeeping.
        assert_eq!(
            e.overlap.stages, a.overlap.stages,
            "{label}: rank {rank} overlap stages"
        );
        let dh = (e.overlap.hidden_seconds - a.overlap.hidden_seconds).abs();
        assert!(
            dh <= 1e-9 * e.overlap.hidden_seconds.abs().max(1e-12),
            "{label}: rank {rank} hidden {} vs {}",
            e.overlap.hidden_seconds,
            a.overlap.hidden_seconds
        );
    }
}

fn check_overlap(ds: &Dataset, algo: Algo, block_rows: usize, epochs: usize, ov: OverlapConfig) {
    let bounds = even_bounds(ds.n(), block_rows);
    let gcn = GcnConfig::paper_default(ds.f(), ds.num_classes);
    let model = CostModel::perlmutter_like();
    let mut cfg = DistConfig::new(algo, gcn.clone(), epochs, model);
    cfg.overlap = ov;
    let out = train_distributed(ds, &bounds, &cfg);
    let est = estimate(&AnalyticInput {
        adj: &ds.norm_adj,
        bounds: &bounds,
        algo,
        dims: &gcn.dims,
        model,
        epochs,
        arch: gnn_core::model::ArchKind::Gcn,
        overlap: ov,
    });
    let label = format!("{} overlap={ov:?}", algo.label());
    assert_stats_equal(&out.stats, &est, &label);
}

fn check(ds: &Dataset, algo: Algo, block_rows: usize, epochs: usize) {
    check_overlap(ds, algo, block_rows, epochs, OverlapConfig::off());
}

#[test]
fn one_d_aware_matches() {
    let ds = amazon_scaled(8, 42);
    check(&ds, Algo::OneD { aware: true }, 4, 2);
}

#[test]
fn one_d_oblivious_matches() {
    let ds = amazon_scaled(8, 42);
    check(&ds, Algo::OneD { aware: false }, 4, 2);
}

#[test]
fn one_five_d_aware_matches() {
    let ds = amazon_scaled(8, 43);
    // p = 8, c = 2 → 4 block rows.
    check(&ds, Algo::OneFiveD { aware: true, c: 2 }, 4, 2);
}

#[test]
fn one_five_d_oblivious_matches() {
    let ds = amazon_scaled(8, 43);
    check(&ds, Algo::OneFiveD { aware: false, c: 2 }, 4, 2);
}

#[test]
fn one_five_d_c4_matches() {
    let ds = protein_scaled(512, 8, 7);
    // p = 16, c = 4 → 4 block rows, s = 1.
    check(&ds, Algo::OneFiveD { aware: true, c: 4 }, 4, 1);
}

#[test]
fn overlapped_one_d_aware_matches() {
    let ds = amazon_scaled(8, 46);
    for chunks in [1, 2, 7] {
        check_overlap(
            &ds,
            Algo::OneD { aware: true },
            4,
            2,
            OverlapConfig::on(chunks),
        );
    }
}

#[test]
fn overlapped_one_d_oblivious_matches() {
    let ds = amazon_scaled(8, 46);
    for chunks in [1, 3] {
        check_overlap(
            &ds,
            Algo::OneD { aware: false },
            4,
            2,
            OverlapConfig::on(chunks),
        );
    }
}

#[test]
fn overlapped_one_five_d_matches() {
    let ds = amazon_scaled(8, 47);
    for aware in [true, false] {
        for chunks in [1, 2, 7] {
            check_overlap(
                &ds,
                Algo::OneFiveD { aware, c: 2 },
                4,
                2,
                OverlapConfig::on(chunks),
            );
        }
    }
}

#[test]
fn two_d_matches() {
    let ds = amazon_scaled(8, 48);
    // pr = 4, pc = 2 → p = 8.
    for aware in [true, false] {
        check(&ds, Algo::TwoD { aware, pc: 2 }, 4, 2);
    }
}

#[test]
fn three_d_matches() {
    let ds = amazon_scaled(8, 48);
    // pr = 4, pc = 2, c = 2 → p = 16.
    for aware in [true, false] {
        check(&ds, Algo::ThreeD { aware, pc: 2, c: 2 }, 4, 2);
    }
}

#[test]
fn overlapped_grid_matches() {
    let ds = amazon_scaled(8, 49);
    for chunks in [1, 2, 7] {
        check_overlap(
            &ds,
            Algo::TwoD { aware: true, pc: 2 },
            4,
            2,
            OverlapConfig::on(chunks),
        );
        check_overlap(
            &ds,
            Algo::ThreeD {
                aware: true,
                pc: 1,
                c: 2,
            },
            4,
            2,
            OverlapConfig::on(chunks),
        );
    }
}

#[test]
fn sage_grid_matches() {
    // The grid trainer's SAGE panels (H·W1 top block, AᵀH·W2 bottom
    // block) have their own charge shapes; mirror those too.
    let ds = amazon_scaled(8, 45);
    let bounds = even_bounds(ds.n(), 4);
    let gcn = GcnConfig::paper_default(ds.f(), ds.num_classes).with_sage();
    let model = CostModel::perlmutter_like();
    for algo in [
        Algo::TwoD { aware: true, pc: 2 },
        Algo::ThreeD {
            aware: true,
            pc: 2,
            c: 2,
        },
    ] {
        let out = train_distributed(&ds, &bounds, &DistConfig::new(algo, gcn.clone(), 2, model));
        let est = estimate(&AnalyticInput {
            adj: &ds.norm_adj,
            bounds: &bounds,
            algo,
            dims: &gcn.dims,
            model,
            epochs: 2,
            arch: gnn_core::model::ArchKind::Sage,
            overlap: OverlapConfig::off(),
        });
        assert_stats_equal(&out.stats, &est, &format!("sage {}", algo.label()));
    }
}

#[test]
fn sage_architecture_matches() {
    // SAGE's different local-compute and gradient-reduce sizes must be
    // mirrored exactly too.
    let ds = amazon_scaled(8, 45);
    let bounds = even_bounds(ds.n(), 4);
    let gcn = GcnConfig::paper_default(ds.f(), ds.num_classes).with_sage();
    let model = CostModel::perlmutter_like();
    let algo = Algo::OneD { aware: true };
    let out = train_distributed(&ds, &bounds, &DistConfig::new(algo, gcn.clone(), 2, model));
    let est = estimate(&AnalyticInput {
        adj: &ds.norm_adj,
        bounds: &bounds,
        algo,
        dims: &gcn.dims,
        model,
        epochs: 2,
        arch: gnn_core::model::ArchKind::Sage,
        overlap: OverlapConfig::off(),
    });
    assert_stats_equal(&out.stats, &est, "sage 1D aware");
}

#[test]
fn uneven_bounds_match() {
    // Partitioner-produced bounds are uneven; accounting must still agree.
    let ds = amazon_scaled(8, 44);
    let n = ds.n();
    let bounds = vec![0, n / 5, n / 2, (n * 4) / 5, n];
    let gcn = GcnConfig::paper_default(ds.f(), ds.num_classes);
    let model = CostModel::perlmutter_like();
    for algo in [Algo::OneD { aware: true }, Algo::OneD { aware: false }] {
        let out = train_distributed(&ds, &bounds, &DistConfig::new(algo, gcn.clone(), 1, model));
        let est = estimate(&AnalyticInput {
            adj: &ds.norm_adj,
            bounds: &bounds,
            algo,
            dims: &gcn.dims,
            model,
            epochs: 1,
            arch: gnn_core::model::ArchKind::Gcn,
            overlap: OverlapConfig::off(),
        });
        assert_stats_equal(&out.stats, &est, &algo.label());
    }
}
