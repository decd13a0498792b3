//! The benchmark's workloads, their set-up, and the two ways of running
//! a training job: rank threads in this process, or rank processes that
//! re-execute this binary in child mode.

use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use gnn_comm::CostModel;
use gnn_core::dist::{Checkpoint, CheckpointBackend, Plan15d, Plan1d};
use gnn_core::{Algo, DistConfig, DistOutcome, GcnConfig};
use partition::{partition_graph, Method, PartitionConfig};
use spmat::dataset::{amazon_scaled, protein_scaled, Dataset};

use crate::report::out_dir;
use crate::spans::Recorder;
use crate::sys;

/// Ranks in every workload. With two cores this oversubscribes 2:1,
/// which is why CPU seconds are reported beside wall seconds; 1.5D also
/// needs `p` to be a multiple of `c² = 4`.
pub const P: usize = 4;

/// Input graph generator.
#[derive(Clone, Copy, Debug)]
pub enum Data {
    /// `amazon_scaled(scale)`.
    Amazon { scale: u32 },
    /// `protein_scaled(n, blocks)`.
    Protein { n: usize, blocks: usize },
}

/// One benchmark workload: a GCN at `GcnConfig::paper_default` trained
/// on `P` rank threads with one kernel thread each.
#[derive(Debug)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the benchmark runs it.
    pub why: &'static str,
    /// Input generator (seeded by `--seed`).
    pub data: Data,
    /// Distributed SpMM variant.
    pub algo: Algo,
    /// Partitioner.
    pub method: Method,
    /// Whether the traced run also launches the job as `P` rank
    /// processes over Unix-domain sockets, to measure the transport.
    pub transport: bool,
    /// Epochs per training job.
    pub epochs: usize,
}

/// Every workload. The reasons are repeated in `BENCHMARK.json`.
pub static WORKLOADS: [Workload; 3] = [
    Workload {
        name: "amazon-sa1d",
        why: "The paper's headline scheme: 1D sparsity-aware SpMM with GVB on amazon_scaled(14); \
              the epoch is dominated by the alltoallv payload path (pack, checksum, channel move).",
        data: Data::Amazon { scale: 14 },
        algo: Algo::OneD { aware: true },
        method: Method::VolumeBalanced,
        transport: false,
        epochs: 8,
    },
    Workload {
        name: "protein-15d",
        why:
            "Dense, regular protein_scaled(2^14, 32) with 1.5D c=2 and GVB: most kernel flops per \
              epoch, replica allreduce instead of alltoallv, and GVB dominating set-up.",
        data: Data::Protein {
            n: 1 << 14,
            blocks: 32,
        },
        algo: Algo::OneFiveD { aware: true, c: 2 },
        method: Method::VolumeBalanced,
        transport: false,
        epochs: 5,
    },
    Workload {
        name: "amazon-cagnet1d",
        why: "The paper's CAGNET baseline (1D oblivious, block partition) on amazon_scaled(14): \
              flat-loop bcast of whole blocks; its traced run also trains on rank processes to \
              time the transport.",
        data: Data::Amazon { scale: 14 },
        algo: Algo::OneD { aware: false },
        method: Method::Block,
        transport: true,
        epochs: 4,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The communication plan the workload's SpMM runs on.
pub enum Plan {
    /// 1D block rows.
    OneD(Plan1d),
    /// 1.5D replicated block rows.
    OneFiveD(Plan15d),
}

/// Wall seconds of each set-up step.
#[derive(Clone, Copy, Debug)]
pub struct SetupTimes {
    /// Dataset generation.
    pub gen_s: f64,
    /// Partitioning.
    pub partition_s: f64,
    /// Permuting the dataset into part order.
    pub permute_s: f64,
    /// Building the communication plan.
    pub plan_s: f64,
}

impl SetupTimes {
    /// Whole set-up.
    pub fn total(&self) -> f64 {
        self.gen_s + self.partition_s + self.permute_s + self.plan_s
    }
}

/// Inputs ready for training.
pub struct Prepared {
    /// Permuted dataset (parts are contiguous row blocks).
    pub ds: Dataset,
    /// Block-row boundaries.
    pub bounds: Vec<usize>,
    /// The communication plan (training builds its own copy).
    pub plan: Plan,
    /// How long each step took.
    pub times: SetupTimes,
}

impl Workload {
    /// Parts the partitioner makes: `P / c` block rows.
    pub fn block_rows(&self) -> usize {
        P / self.algo.replication()
    }

    /// Whole set-up inside a `setup` span: generation from `seed`,
    /// partitioning, permutation into part order and the plan build,
    /// each timed as a child span.
    pub fn setup(&self, seed: u64, rec: &Recorder, parent: Option<u64>) -> Prepared {
        rec.span("setup", parent, |id| {
            let (raw, gen_s) = rec.span("dataset.gen", Some(id), |_| match self.data {
                Data::Amazon { scale } => amazon_scaled(scale, seed),
                Data::Protein { n, blocks } => protein_scaled(n, blocks, seed),
            });
            let (part, partition_s) = rec.span("partition", Some(id), |_| {
                let cfg = PartitionConfig::new(self.method).with_seed(seed);
                partition_graph(&raw.adj, self.block_rows(), &cfg)
            });
            let (ds, permute_s) =
                rec.span("permute", Some(id), |_| raw.permute(&part.to_permutation()));
            let bounds = part.block_bounds();
            let (plan, plan_s) = rec.span("plan.build", Some(id), |_| match self.algo {
                Algo::OneD { .. } => Plan::OneD(Plan1d::build(&ds.norm_adj, &bounds)),
                Algo::OneFiveD { aware, c } => {
                    Plan::OneFiveD(Plan15d::build(&ds.norm_adj, P, c, &bounds, aware))
                }
                other => unreachable!("no workload runs {other:?}"),
            });
            Prepared {
                ds,
                bounds,
                plan,
                times: SetupTimes {
                    gen_s,
                    partition_s,
                    permute_s,
                    plan_s,
                },
            }
        })
        .0
    }

    /// The GCN every workload trains.
    pub fn gcn(&self, ds: &Dataset) -> GcnConfig {
        GcnConfig::paper_default(ds.f(), ds.num_classes)
    }

    /// The machine model pricing the run (one kernel thread per rank).
    pub fn model() -> CostModel {
        CostModel::perlmutter_like().with_threads(1)
    }

    /// A fault-free training configuration.
    pub fn config(&self, ds: &Dataset, epochs: usize, trace: bool) -> DistConfig {
        let mut cfg = DistConfig::new(self.algo, self.gcn(ds), epochs, Self::model());
        cfg.trace = trace;
        cfg
    }
}

/// One training job and what it cost.
pub struct Call {
    /// The job's result.
    pub out: DistOutcome,
    /// Wall seconds of the call.
    pub wall_s: f64,
    /// One mark per epoch end (thread backend only; empty for proc
    /// launches).
    pub marks: Vec<Mark>,
    /// Host CPU ticks when the call started and ended.
    pub ticks: (Option<sys::CpuTicks>, Option<sys::CpuTicks>),
    /// Proc launches with live metrics: socket bytes over DATA frame
    /// body bytes, summed over the ranks' last snapshots.
    pub wire_ratio: Option<f64>,
}

/// The end of one epoch as rank 0 saw it.
#[derive(Clone, Copy, Debug)]
pub struct Mark {
    /// Wall seconds since the call started.
    pub wall: f64,
    /// CPU seconds (this process and reaped children) since then.
    pub cpu: f64,
    /// Host CPU ticks (`None` without `/proc/stat`).
    pub ticks: Option<sys::CpuTicks>,
}

/// One steady-state epoch.
#[derive(Clone, Copy, Debug)]
pub struct Epoch {
    /// Wall seconds.
    pub wall: f64,
    /// CPU seconds.
    pub cpu: f64,
    /// Share of the time the host wanted a CPU that was stolen.
    pub steal: f64,
}

impl Call {
    /// Steady-state epochs: every epoch after the first, whose time
    /// includes plan build, rank start and warm-up.
    pub fn steady_epochs(&self) -> Vec<Epoch> {
        self.marks
            .windows(2)
            .map(|w| Epoch {
                wall: w[1].wall - w[0].wall,
                cpu: w[1].cpu - w[0].cpu,
                steal: match (w[0].ticks, w[1].ticks) {
                    (Some(a), Some(b)) => sys::steal_share(a, b),
                    _ => 0.0,
                },
            })
            .collect()
    }
}

/// Observes epoch ends through the trainer's checkpoint hook: rank 0
/// saves a snapshot after every epoch when `checkpoint_every = 1`, and
/// this store keeps only the time instead of the snapshot.
struct EpochClock {
    t0: Instant,
    cpu0: f64,
    marks: Mutex<Vec<Mark>>,
}

impl CheckpointBackend for EpochClock {
    fn save(&self, _ck: Checkpoint) {
        let mark = Mark {
            wall: self.t0.elapsed().as_secs_f64(),
            cpu: sys::cpu_now() - self.cpu0,
            ticks: sys::cpu_ticks(),
        };
        self.marks
            .lock()
            .expect("a rank panicked while stamping an epoch")
            .push(mark);
    }

    fn restore(&self) -> Option<Checkpoint> {
        None
    }
}

/// Trains on rank threads in this process.
pub fn train_thread(
    w: &Workload,
    prep: &Prepared,
    epochs: usize,
    trace: bool,
) -> Result<Call, String> {
    let mut cfg = w.config(&prep.ds, epochs, trace);
    cfg.robust.checkpoint_every = 1;
    let ticks0 = sys::cpu_ticks();
    let clock = EpochClock {
        t0: Instant::now(),
        cpu0: sys::cpu_now(),
        marks: Mutex::new(Vec::with_capacity(epochs)),
    };
    let out = gnn_core::try_train_distributed_with_store(&prep.ds, &prep.bounds, &cfg, &clock)
        .map_err(|e| format!("thread training failed: {e}"))?;
    let wall_s = clock.t0.elapsed().as_secs_f64();
    let marks = clock
        .marks
        .into_inner()
        .expect("a rank panicked while stamping an epoch");
    if marks.len() != epochs {
        return Err(format!("{} epoch stamps for {epochs} epochs", marks.len()));
    }
    Ok(Call {
        out,
        wall_s,
        marks,
        ticks: (ticks0, sys::cpu_ticks()),
        wire_ratio: None,
    })
}

/// Live-metrics period for proc launches that read transport counters.
pub const METRICS_PERIOD: Duration = Duration::from_millis(100);

/// Launches `P` rank processes (this binary in child mode) and
/// supervises them to completion. Each child rebuilds the inputs from
/// `seed`. The rendezvous directory is made under `out_dir()` and
/// removed afterwards.
pub fn train_proc(w: &Workload, seed: u64, epochs: usize, metrics: bool) -> Result<Call, String> {
    static LAUNCHES: AtomicUsize = AtomicUsize::new(0);
    let n = LAUNCHES.fetch_add(1, Ordering::Relaxed);
    let dir = out_dir().join(format!("proc-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let res = launch(w, seed, epochs, metrics, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    res
}

fn launch(
    w: &Workload,
    seed: u64,
    epochs: usize,
    metrics: bool,
    dir: &Path,
) -> Result<Call, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let t0 = Instant::now();
    let out = gnn_core::supervise_proc_training_with(
        P,
        dir,
        0,
        metrics.then_some(METRICS_PERIOD),
        |rank| {
            let mut cmd = Command::new(&exe);
            cmd.arg("--proc-child")
                .arg(rank.to_string())
                .arg("--proc-dir")
                .arg(dir)
                .args(["--workload", w.name])
                .args(["--seed", &seed.to_string()])
                .args(["--epochs", &epochs.to_string()])
                .args(["--trace", "0"])
                .stdin(Stdio::null())
                .stdout(Stdio::null());
            if metrics {
                cmd.env(
                    "GNN_PROC_METRICS_MS",
                    METRICS_PERIOD.as_millis().to_string(),
                );
            }
            cmd.spawn()
        },
    )
    .map_err(|e| format!("proc training failed: {e}"))?;
    let wall_s = t0.elapsed().as_secs_f64();
    Ok(Call {
        out,
        wall_s,
        marks: Vec::new(),
        ticks: (None, None),
        wire_ratio: metrics.then(|| wire_ratio(dir)).flatten(),
    })
}

/// Socket bytes over DATA frame body bytes from each rank's last
/// live-metrics snapshot (`None` when no rank reported DATA bytes).
fn wire_ratio(dir: &Path) -> Option<f64> {
    let (mut wire, mut data) = (0.0, 0.0);
    for rank in 0..P {
        let text =
            std::fs::read_to_string(gnn_core::metrics_rank_path(dir, rank)).unwrap_or_default();
        let Some(v) = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .and_then(|l| gnn_trace::json::parse(l).ok())
        else {
            continue;
        };
        let get = |k: &str| {
            v.get("metrics")
                .and_then(|m| m.get(k))
                .and_then(|x| x.as_f64())
                .unwrap_or(0.0)
        };
        wire += get("proc.wire_bytes_sent");
        data += get("proc.data_bytes_sent");
    }
    (data > 0.0).then(|| wire / data)
}

/// Child mode: rank `rank` of a proc launch. Repeats the set-up (the
/// plan it builds is unused: the rank builds its own) and runs the rank
/// to completion.
pub fn run_child(
    w: &Workload,
    seed: u64,
    epochs: usize,
    dir: &Path,
    rank: usize,
) -> Result<(), String> {
    let prep = w.setup(seed, &Recorder::off(), None);
    let cfg = w.config(&prep.ds, epochs, false);
    gnn_core::run_rank_proc(&prep.ds, &prep.bounds, &cfg, dir, rank)
        .map_err(|e| format!("rank {rank}: {e}"))
}
