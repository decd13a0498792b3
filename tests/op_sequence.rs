//! Pins the exact op sequence of the stage-loop SpMMs (1.5D, 2D, 3D)
//! across commits.
//!
//! The golden-trace tests in `overlap_parity.rs` compare two runs of the
//! same build, so they cannot see a refactor that moves, adds or drops
//! an op. This test compares against constants instead: for each small
//! seeded run it digests the thread-backend JSONL trace (64-bit FNV-1a
//! over the bytes) and every rank's per-phase counters `(ops,
//! bytes_sent, bytes_recv, flops, modeled_seconds bits)`. The digests
//! were recorded from the build that still had one blocking and one
//! pipelined loop per family; any change to what a rank issues, in
//! which order, or how it is priced fails here by name.
//!
//! Thread-backend traces are modeled-only (no wall stamps) and carry no
//! numeric results, so the digests do not depend on the kernel thread
//! count or the SIMD backend.

use gnn_bench::{prepare_full, Scheme};
use gnn_comm::stats::PHASES;
use gnn_comm::{CostModel, OverlapConfig, WorldStats};
use gnn_core::{train_distributed, Algo, DistConfig, GcnConfig};
use gnn_trace::jsonl_string;
use spmat::dataset::amazon_scaled;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn stats_digest(stats: &WorldStats) -> u64 {
    let mut h = Fnv::new();
    for rank in &stats.per_rank {
        for &phase in PHASES.iter() {
            let c = rank.phase(phase);
            h.u64(c.ops);
            h.u64(c.bytes_sent);
            h.u64(c.bytes_recv);
            h.u64(c.flops);
            h.u64(c.modeled_seconds.to_bits());
        }
    }
    h.0
}

/// `(label, algo, block rows, chunks, trace digest, stats digest)`.
type Pin = (&'static str, Algo, usize, Option<usize>, u64, u64);

const PINS: [Pin; 12] = [
    (
        "1.5d-sa",
        Algo::OneFiveD { aware: true, c: 2 },
        4,
        None,
        0xe4ce6e78e259a018,
        0xa5565e32f78abfc2,
    ),
    (
        "1.5d-sa-ov3",
        Algo::OneFiveD { aware: true, c: 2 },
        4,
        Some(3),
        0xa313831b27f1c6ca,
        0x8871ebb514d72e9c,
    ),
    (
        "1.5d-ob",
        Algo::OneFiveD { aware: false, c: 2 },
        4,
        None,
        0xa9471598e0978e28,
        0x5acde09f300dad4c,
    ),
    (
        "1.5d-ob-ov3",
        Algo::OneFiveD { aware: false, c: 2 },
        4,
        Some(3),
        0xa178871a9a50e695,
        0xbd53d4948d7dc5cb,
    ),
    (
        "2d-sa",
        Algo::TwoD { aware: true, pc: 2 },
        4,
        None,
        0xa3478c13bd669b22,
        0x6b37bb975542af55,
    ),
    (
        "2d-sa-ov3",
        Algo::TwoD { aware: true, pc: 2 },
        4,
        Some(3),
        0x3cda106301182e70,
        0x6d09e3258909acd5,
    ),
    (
        "2d-ob",
        Algo::TwoD {
            aware: false,
            pc: 2,
        },
        4,
        None,
        0xe14c03b77914fa23,
        0xbb1e6e6de1913ced,
    ),
    (
        "2d-ob-ov3",
        Algo::TwoD {
            aware: false,
            pc: 2,
        },
        4,
        Some(3),
        0xd3c9459baa865a53,
        0x3448ebf2d331580d,
    ),
    (
        "3d-sa",
        Algo::ThreeD {
            aware: true,
            pc: 2,
            c: 2,
        },
        2,
        None,
        0x225cbbfcae244cf1,
        0xd70e44afd79e3141,
    ),
    (
        "3d-sa-ov3",
        Algo::ThreeD {
            aware: true,
            pc: 2,
            c: 2,
        },
        2,
        Some(3),
        0x0462f2d89b6d6d8d,
        0x5ef59cd9313a6779,
    ),
    (
        "3d-ob",
        Algo::ThreeD {
            aware: false,
            pc: 2,
            c: 2,
        },
        2,
        None,
        0x23b69cab20b4638c,
        0xea8b9caf0e583945,
    ),
    (
        "3d-ob-ov3",
        Algo::ThreeD {
            aware: false,
            pc: 2,
            c: 2,
        },
        2,
        Some(3),
        0x7648fa100e4b8dfb,
        0x969ed1fb0fda32b5,
    ),
];

#[test]
fn stage_loop_op_sequences_match_pinned_digests() {
    let ds = amazon_scaled(7, 37);
    let mut failures = Vec::new();
    for (label, algo, parts, chunks, want_trace, want_stats) in PINS {
        let scheme = if algo.aware() {
            Scheme::Sa
        } else {
            Scheme::Cagnet
        };
        let (pds, bounds) = prepare_full(&ds, parts, scheme, 9);
        let gcn = GcnConfig::paper_default(pds.f(), pds.num_classes);
        let mut cfg = DistConfig::new(algo, gcn, 2, CostModel::perlmutter_like());
        cfg.trace = true;
        cfg.overlap = chunks.map_or(OverlapConfig::off(), OverlapConfig::on);
        let out = train_distributed(&pds, &bounds, &cfg);

        let mut h = Fnv::new();
        h.bytes(jsonl_string(out.trace.as_ref().expect("trace requested")).as_bytes());
        let (trace, stats) = (h.0, stats_digest(&out.stats));
        if (trace, stats) != (want_trace, want_stats) {
            failures.push(format!(
                "(\"{label}\", .., {trace:#018x}, {stats:#018x}) != pinned ({want_trace:#018x}, {want_stats:#018x})"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "op sequence moved:\n{}",
        failures.join("\n")
    );
}
