//! The traced run: times the calls into each layer's public functions
//! from the benchmark's own code, records every timed call as a span,
//! and derives the per-layer metrics and the unattributed residue.
//!
//! Layer calls that belong to an epoch (`kernel`, `dist`, `ctx`) run on
//! `P` rank threads of a `ThreadWorld`, started together by a barrier,
//! at the shapes each rank has in the workload. A call's time is the
//! slowest rank's; a layer's time per epoch is the sum over the calls
//! an epoch makes (one SpMM per layer and direction, at the widths of
//! `GcnConfig::paper_default`).
//!
//! The residue is what those layers do not explain:
//! `unattributed_frac = 1 - (dist.spmm + kernel.gemm + weight-gradient
//! allreduce + optim.step) / epoch_s`, where
//! `dist.spmm` already contains its own local kernel and collectives.

use std::collections::BTreeMap;
use std::time::Instant;

use gnn_comm::msg::Payload;
use gnn_comm::{Phase, RankCtx, ThreadWorld};
use gnn_core::dist::oned::{spmm_1d_aware_buf, spmm_1d_oblivious_buf};
use gnn_core::dist::onefived::spmm_15d_buf;
use gnn_core::dist::EpochBuffers;
use gnn_core::{Optimizer, Weights};
use partition::metrics::volume_metrics;
use partition::wgraph::WGraph;
use partition::Partition;
use spmat::spmm::{spmm_flops, spmm_with};
use spmat::Dense;

use crate::gate::{self, Gate};
use crate::report::{out_dir, Report};
use crate::spans::{self, Recorder};
use crate::stats::median;
use crate::workload::{train_proc, train_thread, Call, Plan, Prepared, Workload, P};

/// One per-layer metric: its unit, which direction is better, and the
/// end-to-end metric and workload it should move.
pub struct LayerMetric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// The timed call or source, then what it should move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
    }
}

/// Every per-layer metric the traced run reports, in output order.
/// `BENCHMARK.json` lists the same names, units and directions.
pub static PER_LAYER: &[LayerMetric] = &[
    m("dataset.gen_s", "s", "lower", "*_scaled generator; setup_s, all (most in protein-15d)"),
    m("partition.s", "s", "lower", "partition_graph; setup_s in protein-15d, ~0 in amazon-cagnet1d"),
    m("partition.max_send_rows", "count", "lower", "volume_metrics; guards comm_max_rank_mb_per_epoch in amazon-sa1d"),
    m("partition.total_send_rows", "count", "lower", "volume_metrics; guards comm_mb_per_epoch in amazon-sa1d"),
    m("permute.s", "s", "lower", "Dataset::permute; setup_s, all"),
    m("plan.build_s", "s", "lower", "Plan1d/Plan15d::build; setup_s, all"),
    m("world.spawn_s", "s", "lower", "ThreadWorld::run of a no-op; run_s, all"),
    m("train.first_epoch_s", "s", "lower", "first training call's excess over steady state; run_s, all"),
    m("kernel.spmm_s", "s", "lower", "spmm_with(local block, H, 1) per epoch; epoch_cpu_s in protein-15d, little in amazon-cagnet1d"),
    m("kernel.spmm_gflops", "GFLOP/s", "higher", "local SpMM flops / kernel.spmm_s; epoch_cpu_s in protein-15d"),
    m("kernel.gemm_s", "s", "lower", "Dense matmul/transpose_matmul/matmul_transpose per epoch; epoch_cpu_s in protein-15d"),
    m("kernel.flops_per_epoch", "count", "lower", "Phase::LocalCompute flops; guard, all"),
    m("dist.spmm_s", "s", "lower", "the workload's distributed SpMM per epoch, slowest rank; epoch_s, all"),
    m("ctx.alltoallv_s", "s", "lower", "RankCtx::alltoallv with the plan's payloads per epoch; epoch_s in amazon-sa1d, absent in protein-15d"),
    m("ctx.allreduce_s", "s", "lower", "RankCtx::allreduce_sum over the workload's groups per epoch; epoch_s in protein-15d, small in amazon-sa1d"),
    m("ctx.bcast_s", "s", "lower", "RankCtx::bcast with block-row payloads per epoch; epoch_s in amazon-cagnet1d only"),
    m("msg.checksum_gbps", "GB/s", "higher", "Payload::checksum at the mean message size; epoch_s in amazon-sa1d"),
    m("comm.bytes_per_epoch.alltoall", "B", "lower", "WorldStats alltoall bytes sent; explains comm_mb_per_epoch"),
    m("comm.bytes_per_epoch.bcast", "B", "lower", "WorldStats bcast bytes sent; explains comm_mb_per_epoch"),
    m("comm.bytes_per_epoch.allreduce", "B", "lower", "WorldStats allreduce bytes sent; explains comm_mb_per_epoch"),
    m("comm.bytes_per_epoch.p2p", "B", "lower", "WorldStats p2p bytes sent; explains comm_mb_per_epoch"),
    m("comm.ops_per_epoch.alltoall", "count", "lower", "WorldStats alltoall ops; explains comm_mb_per_epoch"),
    m("comm.ops_per_epoch.bcast", "count", "lower", "WorldStats bcast ops; explains comm_mb_per_epoch"),
    m("comm.ops_per_epoch.allreduce", "count", "lower", "WorldStats allreduce ops; explains comm_mb_per_epoch"),
    m("comm.ops_per_epoch.p2p", "count", "lower", "WorldStats p2p ops; explains comm_mb_per_epoch"),
    m("transport.overhead_s_per_epoch", "s", "lower", "proc-launch epoch minus thread epoch of the same job (amazon-cagnet1d only); the proc backend's cost"),
    m("transport.wire_over_logical", "ratio", "lower", "proc socket bytes / DATA body bytes (amazon-cagnet1d only); transport.overhead_s_per_epoch"),
    m("transport.replayed_frames", "count", "lower", "proc replayed frames (amazon-cagnet1d only); transport.overhead_s_per_epoch and failed calls"),
    m("transport.reconnects", "count", "lower", "proc reconnects (amazon-cagnet1d only); transport.overhead_s_per_epoch and failed calls"),
    m("optim.step_s", "s", "lower", "Optimizer::step at the weight shapes; negligible, a change here should move nothing"),
    m("trace.overhead_frac", "frac", "lower", "traced epoch_s / untraced - 1 with DistConfig::trace; epoch_s, all (budget 2%)"),
    m("reference.epoch_s", "s", "lower", "ReferenceTrainer::epoch on the same inputs; the single-worker baseline"),
    m("unattributed_frac", "frac", "lower", "1 - sum of layer time per epoch / epoch_s; reported per workload"),
];

/// Repetitions of each timed layer call (after one untimed warm-up).
const REPS: usize = 5;

/// SpMM widths of one epoch with their multiplicity: forward at
/// `dims[0..L]`, backward at `dims[1..=L]`.
fn spmm_widths(dims: &[usize]) -> BTreeMap<usize, usize> {
    let l = dims.len() - 1;
    let mut out = BTreeMap::new();
    for &f in dims[..l].iter().chain(&dims[1..]) {
        *out.entry(f).or_insert(0) += 1;
    }
    out
}

/// Runs `call` `REPS + 1` times on every rank of a fresh world (the
/// first untimed), each repetition released by a barrier and recorded
/// as a span named `name`. `make` builds the call's operands outside
/// the timed region. Returns the median over repetitions of the slowest
/// rank's seconds.
fn in_world<S, I, R>(
    rec: &Recorder,
    parent: u64,
    name: &str,
    init: impl Fn(&mut RankCtx) -> S + Sync,
    make: impl Fn(&mut RankCtx, &mut S) -> I + Sync,
    call: impl Fn(&mut RankCtx, &mut S, I) -> R + Sync,
) -> f64 {
    let world = ThreadWorld::new(P, Workload::model());
    let (per_rank, _) = rec
        .span(&format!("{name}.world"), Some(parent), |wid| {
            world.run(|ctx| {
                let mut st = init(ctx);
                let mut times = Vec::with_capacity(REPS);
                for rep in 0..=REPS {
                    let input = make(ctx, &mut st);
                    ctx.barrier();
                    let (out, dt) = rec.span(name, Some(wid), |_| call(ctx, &mut st, input));
                    drop(out);
                    if rep > 0 {
                        times.push(dt);
                    }
                }
                times
            })
        })
        .0;
    let slowest: Vec<f64> = (0..REPS)
        .map(|i| per_rank.iter().map(|t| t[i]).fold(0.0, f64::max))
        .collect();
    median(&slowest)
}

/// Deterministic operand of the given shape.
fn operand(rows: usize, cols: usize, salt: usize) -> Dense {
    Dense::from_fn(rows, cols, |r, c| {
        ((r * 31 + c * 17 + salt) % 97) as f64 / 97.0 - 0.5
    })
}

/// Rows of the block each rank owns.
fn rank_rows(plan: &Plan, rank: usize) -> (usize, usize) {
    match plan {
        Plan::OneD(pl) => (pl.ranks[rank].row_lo, pl.ranks[rank].row_hi),
        Plan::OneFiveD(pl) => (pl.ranks[rank].row_lo, pl.ranks[rank].row_hi),
    }
}

/// Per-epoch times of the layers measured in rank worlds.
#[derive(Default)]
struct EpochLayers {
    dist_spmm: f64,
    kernel_spmm: f64,
    spmm_flops: u64,
    gemm: f64,
    alltoallv: f64,
    bcast: f64,
    allreduce_grad: f64,
    allreduce_replica: f64,
}

fn epoch_layers(w: &Workload, prep: &Prepared, rec: &Recorder, parent: u64) -> EpochLayers {
    let dims = w.gcn(&prep.ds).dims;
    let widths = spmm_widths(&dims);
    let plan = &prep.plan;
    let aware = w.algo.aware();
    let mut e = EpochLayers::default();
    for (&f, &mult) in &widths {
        let k = mult as f64;
        e.dist_spmm += k * in_world(
            rec,
            parent,
            "dist.spmm",
            |ctx| {
                let (lo, hi) = rank_rows(plan, ctx.rank());
                (operand(hi - lo, f, ctx.rank()), EpochBuffers::new())
            },
            |_, _| (),
            |ctx, (h, bufs), ()| {
                let z = match plan {
                    Plan::OneD(pl) if aware => spmm_1d_aware_buf(ctx, pl, h, bufs),
                    Plan::OneD(pl) => spmm_1d_oblivious_buf(ctx, pl, h, bufs),
                    Plan::OneFiveD(pl) => spmm_15d_buf(ctx, pl, h, aware, bufs),
                };
                bufs.put_dense(z);
            },
        );

        // The local kernel(s) of one SpMM: (sparse block, dense rows).
        let blocks = |rank: usize| -> Vec<(&spmat::Csr, usize)> {
            match plan {
                Plan::OneD(pl) if aware => {
                    let rp = &pl.ranks[rank];
                    vec![(&rp.block_compact, rp.cols.len())]
                }
                Plan::OneD(pl) => vec![(&pl.ranks[rank].block, pl.n)],
                Plan::OneFiveD(pl) => pl.ranks[rank]
                    .stages
                    .iter()
                    .map(|st| (&st.block_compact, st.needed.len()))
                    .collect(),
            }
        };
        e.spmm_flops += mult as u64
            * (0..P)
                .flat_map(|r| blocks(r).into_iter().map(|(b, _)| spmm_flops(b, f)))
                .sum::<u64>();
        e.kernel_spmm += k * in_world(
            rec,
            parent,
            "kernel.spmm",
            |ctx| {
                blocks(ctx.rank())
                    .into_iter()
                    .enumerate()
                    .map(|(i, (b, rows))| (b, operand(rows, f, i)))
                    .collect::<Vec<_>>()
            },
            |_, _| (),
            |_, ops, ()| {
                ops.iter()
                    .map(|(b, h)| spmm_with(b, h, 1))
                    .collect::<Vec<_>>()
            },
        );

        if let Plan::OneD(pl) = plan {
            if aware {
                e.alltoallv += k * in_world(
                    rec,
                    parent,
                    "ctx.alltoallv",
                    |_| (),
                    |ctx, _| {
                        let rp = &pl.ranks[ctx.rank()];
                        (0..P)
                            .map(|j| {
                                if j == ctx.rank() || rp.send_to[j].is_empty() {
                                    Payload::Empty
                                } else {
                                    let idx = rp.send_to[j].clone();
                                    let data = vec![0.5; idx.len() * f];
                                    Payload::Rows { idx, data }
                                }
                            })
                            .collect::<Vec<_>>()
                    },
                    |ctx, _, sends| ctx.alltoallv(sends),
                );
            } else {
                e.bcast += k * in_world(
                    rec,
                    parent,
                    "ctx.bcast",
                    |_| (),
                    |ctx, _| {
                        let rows = pl.rows_of(ctx.rank());
                        Some(Payload::F64(vec![0.5; rows * f]))
                    },
                    |ctx, _, mut own| {
                        let me = ctx.rank();
                        (0..P)
                            .map(|j| ctx.bcast(j, if j == me { own.take() } else { None }))
                            .collect::<Vec<_>>()
                    },
                );
            }
        }
        if let Plan::OneFiveD(pl) = plan {
            e.allreduce_replica += k * in_world(
                rec,
                parent,
                "ctx.allreduce",
                |ctx| {
                    let rp = &pl.ranks[ctx.rank()];
                    let group: Vec<usize> = (0..pl.c).map(|j| pl.rank_of(rp.i, j)).collect();
                    (group, vec![0.5; (rp.row_hi - rp.row_lo) * f])
                },
                |_, _| (),
                |ctx, (group, buf), ()| ctx.allreduce_sum(buf, group),
            );
        }
    }

    // Weight-gradient and loss allreduces over all ranks.
    let sizes: Vec<usize> = std::iter::once(3)
        .chain(dims.windows(2).map(|d| d[0] * d[1]))
        .collect();
    e.allreduce_grad = in_world(
        rec,
        parent,
        "ctx.allreduce",
        |_| sizes.iter().map(|&n| vec![0.5; n]).collect::<Vec<_>>(),
        |_, _| (),
        |ctx, bufs, ()| {
            let all: Vec<usize> = (0..P).collect();
            for b in bufs.iter_mut() {
                ctx.allreduce_sum(b, &all);
            }
        },
    );

    // Dense layers: forward Z = (AH)W, backward Y = HᵀS and G = SWᵀ.
    let l_total = dims.len() - 1;
    e.gemm = in_world(
        rec,
        parent,
        "kernel.gemm",
        |ctx| {
            let (lo, hi) = rank_rows(plan, ctx.rank());
            let rows = hi - lo;
            (0..l_total)
                .map(|l| {
                    let (d, o) = (dims[l], dims[l + 1]);
                    (
                        operand(rows, d, l),
                        operand(d, o, l + 1),
                        operand(rows, o, l + 2),
                        Dense::zeros(rows, o),
                        Dense::zeros(d, o),
                        Dense::zeros(rows, d),
                    )
                })
                .collect::<Vec<_>>()
        },
        |_, _| (),
        |_, layers, ()| {
            for (l, (h, wt, s, z, y, g)) in layers.iter_mut().enumerate() {
                h.matmul_into(wt, z);
                h.transpose_matmul_into(s, y);
                if l > 0 {
                    s.matmul_transpose_into(wt, g);
                }
            }
        },
    );
    e
}

/// `Payload::checksum` throughput in GB/s at `bytes` per message.
fn checksum_gbps(bytes: usize, rec: &Recorder, parent: u64) -> f64 {
    let payload = Payload::F64(vec![0.25; (bytes / 8).max(1)]);
    let mut rates = Vec::new();
    for _ in 0..REPS {
        let (sum, dt) = rec.span("msg.checksum", Some(parent), |_| {
            let mut acc = 0u64;
            let t = Instant::now();
            let mut n = 0u64;
            while t.elapsed().as_secs_f64() < 0.02 || n == 0 {
                acc ^= std::hint::black_box(&payload).checksum();
                n += 1;
            }
            (acc, n)
        });
        std::hint::black_box(sum.0);
        rates.push(payload.bytes() as f64 * sum.1 as f64 / dt / 1e9);
    }
    median(&rates)
}

/// Median seconds of `Optimizer::step` at the workload's weight shapes.
fn optim_step_s(w: &Workload, prep: &Prepared, rec: &Recorder, parent: u64) -> f64 {
    let gcn = w.gcn(&prep.ds);
    let mut weights = Weights::init(&gcn);
    let grads: Vec<Dense> = weights
        .mats
        .iter()
        .map(|m| operand(m.rows(), m.cols(), 3))
        .collect();
    let mut opt = Optimizer::from_config(&gcn);
    let times: Vec<f64> = (0..50)
        .map(|_| {
            rec.span("optim.step", Some(parent), |_| {
                opt.step(&mut weights, &grads)
            })
            .1
        })
        .collect();
    median(&times)
}

/// Per-epoch counters of the communication phases, summed over ranks:
/// `(phase, bytes metric, ops metric)`.
const COMM_PHASES: [(Phase, &str, &str); 4] = [
    (
        Phase::AllToAll,
        "comm.bytes_per_epoch.alltoall",
        "comm.ops_per_epoch.alltoall",
    ),
    (
        Phase::Bcast,
        "comm.bytes_per_epoch.bcast",
        "comm.ops_per_epoch.bcast",
    ),
    (
        Phase::AllReduce,
        "comm.bytes_per_epoch.allreduce",
        "comm.ops_per_epoch.allreduce",
    ),
    (
        Phase::P2p,
        "comm.bytes_per_epoch.p2p",
        "comm.ops_per_epoch.p2p",
    ),
];

/// Training calls alternating untraced and traced
/// (`DistConfig::trace`) until `deadline`, at least two of each.
/// Returns the first call and the median steady epoch `(untraced,
/// traced)`.
fn thread_calls(
    w: &Workload,
    prep: &Prepared,
    (rec, parent): (&Recorder, u64),
    deadline: Instant,
    gate: &mut Gate,
) -> Option<(Call, f64, f64)> {
    let mut first: Option<Call> = None;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut i = 0;
    while i < 4 || Instant::now() < deadline {
        let trace = i % 2 == 1;
        i += 1;
        let name = if trace {
            "train.traced_call"
        } else {
            "train.call"
        };
        let res = rec
            .span(name, Some(parent), |_| {
                train_thread(w, prep, w.epochs, trace)
            })
            .0;
        let Some(call) = gate.record(name, w.epochs, res) else {
            continue;
        };
        let into = if trace { &mut traced } else { &mut plain };
        into.extend(call.steady_epochs().into_iter().map(|e| e.wall));
        first.get_or_insert(call);
    }
    if plain.is_empty() || traced.is_empty() {
        return None;
    }
    Some((first?, median(&plain), median(&traced)))
}

/// `pairs` back-to-back proc launches of the job length and of one
/// epoch. Each launch contains `P` copies of set-up; they cancel in the
/// slope between the two lengths. Returns the first long launch and the
/// median slope.
fn proc_pairs(
    w: &Workload,
    seed: u64,
    pairs: usize,
    (rec, parent): (&Recorder, u64),
    gate: &mut Gate,
) -> Option<(Call, f64)> {
    let name = "train.launch";
    let mut first: Option<Call> = None;
    let mut slopes = Vec::new();
    for _ in 0..pairs {
        let mut got = [None, None];
        for (slot, epochs) in [w.epochs, 1].into_iter().enumerate() {
            let res = rec
                .span(name, Some(parent), |_| train_proc(w, seed, epochs, false))
                .0;
            let Some(call) = gate.record(name, epochs, res) else {
                continue;
            };
            got[slot] = Some(call.wall_s);
            if slot == 0 {
                first.get_or_insert(call);
            }
        }
        if let [Some(l), Some(s)] = got {
            slopes.push((l - s) / (w.epochs - 1) as f64);
        }
    }
    if slopes.is_empty() {
        return None;
    }
    Some((first?, median(&slopes)))
}

/// The proc backend on the same job: launch pairs (the epoch slope),
/// and one launch with live metrics for the transport counters. The
/// gate checks every launch against the thread calls bit for bit.
/// Returns the proc epoch seconds.
fn proc_transport(
    w: &Workload,
    seed: u64,
    at: (&Recorder, u64),
    gate: &mut Gate,
    vals: &mut BTreeMap<&'static str, f64>,
) -> Option<f64> {
    let (_, epoch_s) = proc_pairs(w, seed, 2, at, gate)?;
    let (rec, parent) = at;
    let name = "train.metrics_launch";
    let res = rec
        .span(name, Some(parent), |_| train_proc(w, seed, w.epochs, true))
        .0;
    let call = gate.record(name, w.epochs, res)?;
    let stats = &call.out.stats;
    vals.insert(
        "transport.wire_over_logical",
        call.wire_ratio.unwrap_or(f64::NAN),
    );
    vals.insert(
        "transport.replayed_frames",
        stats.total_replayed_frames() as f64,
    );
    vals.insert("transport.reconnects", stats.total_reconnects() as f64);
    Some(epoch_s)
}

/// Row-block partition of the permuted vertices (parts are contiguous
/// after permutation), for volume metrics on the permuted graph.
fn block_partition(bounds: &[usize]) -> Partition {
    let k = bounds.len() - 1;
    let parts: Vec<u32> = (0..k)
        .flat_map(|b| std::iter::repeat_n(b as u32, bounds[b + 1] - bounds[b]))
        .collect();
    Partition::new(parts, k)
}

/// Share of `--seconds` the traced run spends on training calls; the
/// layer calls take most of the rest.
const TRAIN_SHARE: f64 = 0.6;

/// Runs the traced measurement of `w` and reports its per-layer metrics.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> Report {
    let mut r = Report::new(w, seed, true);
    let rec = Recorder::new();
    let mut gate = Gate::default();
    let t0 = Instant::now();
    let mut vals: BTreeMap<&'static str, f64> = BTreeMap::new();

    rec.span("run", None, |root| {
        let prep = w.setup(seed, &rec, Some(root));
        vals.insert("dataset.gen_s", prep.times.gen_s);
        vals.insert("partition.s", prep.times.partition_s);
        vals.insert("permute.s", prep.times.permute_s);
        vals.insert("plan.build_s", prep.times.plan_s);
        let (vm, _) = rec.span("partition.metrics", Some(root), |_| {
            volume_metrics(
                &WGraph::from_csr(&prep.ds.adj),
                &block_partition(&prep.bounds),
            )
        });
        vals.insert("partition.max_send_rows", vm.max_send as f64);
        vals.insert("partition.total_send_rows", vm.total as f64);

        // Training first, so that the first call is the process's first.
        let deadline = t0 + std::time::Duration::from_secs_f64(seconds * TRAIN_SHARE);
        let (trained, _) = rec.span("train", Some(root), |tid| {
            let trained = thread_calls(w, &prep, (&rec, tid), deadline, &mut gate)?;
            if w.transport {
                let proc_s = proc_transport(w, seed, (&rec, tid), &mut gate, &mut vals)?;
                vals.insert("transport.overhead_s_per_epoch", proc_s - trained.1);
            }
            Some(trained)
        });
        let Some((first, epoch_s, traced_s)) = trained else {
            gate.fail("no training job completed".into());
            return;
        };
        let epochs = w.epochs;
        vals.insert(
            "train.first_epoch_s",
            first.wall_s - epochs as f64 * epoch_s,
        );
        vals.insert("trace.overhead_frac", traced_s / epoch_s - 1.0);
        let stats = &first.out.stats;
        let per_epoch = |x: u64| x as f64 / epochs as f64;
        let flops = stats
            .per_rank
            .iter()
            .map(|s| s.phase(Phase::LocalCompute).flops)
            .sum();
        vals.insert("kernel.flops_per_epoch", per_epoch(flops));
        let (mut bytes_all, mut ops_all) = (0.0, 0.0);
        for (phase, bytes_name, ops_name) in COMM_PHASES {
            let bytes = per_epoch(
                stats
                    .per_rank
                    .iter()
                    .map(|s| s.phase(phase).bytes_sent)
                    .sum(),
            );
            let ops = per_epoch(stats.per_rank.iter().map(|s| s.phase(phase).ops).sum());
            bytes_all += bytes;
            ops_all += ops;
            vals.insert(bytes_name, bytes);
            vals.insert(ops_name, ops);
        }

        // Correctness of the first job against the models.
        let (reference, _) = rec.span("reference", Some(root), |rid| {
            gate::check_against_models(w, &prep, epochs, &first, &rec, Some(rid))
        });
        match reference {
            Ok(times) => {
                vals.insert("reference.epoch_s", median(&times));
            }
            Err(e) => gate.fail_all(e),
        }

        // Layers of an epoch, on rank threads at the workload's shapes.
        let (spawn, _) = rec.span("world.spawn", Some(root), |sid| {
            let world = ThreadWorld::new(P, Workload::model());
            let times: Vec<f64> = (0..20)
                .map(|_| rec.span("world.run", Some(sid), |_| world.run(|_| ())).1)
                .collect();
            median(&times)
        });
        vals.insert("world.spawn_s", spawn);
        let (layers, _) = rec.span("layers", Some(root), |lid| {
            epoch_layers(w, &prep, &rec, lid)
        });
        vals.insert("dist.spmm_s", layers.dist_spmm);
        vals.insert("kernel.spmm_s", layers.kernel_spmm);
        vals.insert(
            "kernel.spmm_gflops",
            layers.spmm_flops as f64 / layers.kernel_spmm / 1e9,
        );
        vals.insert("kernel.gemm_s", layers.gemm);
        vals.insert("ctx.alltoallv_s", layers.alltoallv);
        vals.insert("ctx.bcast_s", layers.bcast);
        vals.insert(
            "ctx.allreduce_s",
            layers.allreduce_grad + layers.allreduce_replica,
        );
        let mean_msg = if ops_all > 0.0 {
            bytes_all / ops_all
        } else {
            8.0
        };
        let (gbps, _) = rec.span("msg", Some(root), |mid| {
            checksum_gbps(mean_msg as usize, &rec, mid)
        });
        vals.insert("msg.checksum_gbps", gbps);
        r.note(format!(
            "msg.checksum_gbps measured at {mean_msg:.0} B, the mean bytes per communication op"
        ));
        let (step, _) = rec.span("optim", Some(root), |oid| optim_step_s(w, &prep, &rec, oid));
        vals.insert("optim.step_s", step);

        let attributed = layers.dist_spmm + layers.gemm + layers.allreduce_grad + step;
        vals.insert("unattributed_frac", 1.0 - attributed / epoch_s);
        r.note(format!(
            "epoch {:.4} s = dist.spmm {:.4} + kernel.gemm {:.4} + gradient allreduce {:.4} \
             + optim.step {:.6} + unattributed",
            epoch_s, layers.dist_spmm, layers.gemm, layers.allreduce_grad, step
        ));
    });

    // Layers a workload does not exercise read zero.
    for lm in PER_LAYER {
        let v = vals.get(lm.name).copied().unwrap_or(0.0);
        r.metric_with(
            lm.name,
            v,
            lm.unit,
            format!("[{} is better] {}", lm.better, lm.moves),
        );
    }

    let spans = rec.finish();
    let path = out_dir()
        .join("spans")
        .join(format!("{}-seed{seed}.jsonl", w.name));
    match write_spans(&path, w.name, &spans) {
        Ok(()) => r.note(format!(
            "{} spans written to {} and validated",
            spans.len(),
            path.display()
        )),
        Err(e) => gate.fail(format!("span file {}: {e}", path.display())),
    }
    let mut top: Vec<_> = spans::summarize(&spans).into_iter().collect();
    top.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
    for (name, t) in top.iter().take(12) {
        r.note(format!(
            "self time {name:<24} {:>9.4} s over {} span(s)",
            t.self_s, t.count
        ));
    }
    r.finish(gate);
    r
}

/// Writes the span file, reads it back and validates it.
fn write_spans(
    path: &std::path::Path,
    workload: &str,
    spans: &[spans::Span],
) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(path, spans::to_jsonl(workload, spans)).map_err(|e| e.to_string())?;
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let (back_workload, back) = spans::parse_jsonl(&text)?;
    if back_workload != workload || back.len() != spans.len() {
        return Err("file does not hold the recorded spans".into());
    }
    spans::validate(&back)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_widths_of_the_paper_gcn() {
        let w = spmm_widths(&[300, 16, 16, 24]);
        assert_eq!(
            w.into_iter().collect::<Vec<_>>(),
            vec![(16, 4), (24, 1), (300, 1)]
        );
    }

    #[test]
    fn block_partition_follows_bounds() {
        let p = block_partition(&[0, 2, 5]);
        assert_eq!(p.parts(), &[0, 0, 1, 1, 1]);
    }
}
