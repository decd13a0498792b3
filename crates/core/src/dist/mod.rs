//! Distributed training: communication plans, the four SpMM algorithm
//! variants, and the SPMD trainer that runs full GCN training over a
//! [`gnn_comm::ThreadWorld`].

pub mod buffers;
pub mod checkpoint;
pub mod failover;
pub mod oned;
pub mod onefived;
pub mod overlap;
pub mod plan;
#[cfg(unix)]
pub mod proc;
pub(crate) mod stages;
pub mod threed;
pub mod trainer;
pub mod twod;

pub use buffers::EpochBuffers;
pub use checkpoint::{
    clear_disk_checkpoints, Checkpoint, CheckpointBackend, CheckpointStore, DiskCheckpointStore,
};
pub use failover::{failover_allreduce_replicated, spmm_15d_failover_buf, FailoverView};
pub use overlap::{spmm_1d_aware_pipelined_buf, spmm_1d_oblivious_pipelined_buf, OverlapPlan1d};
pub use plan::{even_bounds, Plan15d, Plan1d};
#[cfg(unix)]
pub use proc::{
    metrics_aggregate_path, metrics_rank_path, run_rank_proc, supervise_proc_training,
    supervise_proc_training_with, trace_rank_path, ProcTrainError,
};
pub use threed::Plan3d;
pub use trainer::{
    train_distributed, try_train_distributed, try_train_distributed_with_store, Algo, DistConfig,
    DistOutcome, RobustnessConfig,
};
pub use twod::Plan2d;
