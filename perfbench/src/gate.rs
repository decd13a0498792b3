//! Correctness gate. Every training call the benchmark makes is checked
//! outside its timed region; a call that errors or fails a check counts
//! toward `failed`, and any failure makes the command exit non-zero.

use gnn_comm::OverlapConfig;
use gnn_core::analytic::{estimate, AnalyticInput};
use gnn_core::model::ArchKind;
use gnn_core::{EpochRecord, ReferenceTrainer, Weights};

use crate::spans::Recorder;
use crate::workload::{Call, Prepared, Workload};

/// Largest weight difference allowed against the sequential reference.
const REFERENCE_TOL: f64 = 1e-8;

/// Relative tolerance between executed and analytic modeled time (the
/// executor and the estimator sum the same terms in different orders).
const MODEL_RTOL: f64 = 1e-9;

/// Bitwise equality of two weight sets.
fn same_weights(a: &Weights, b: &Weights) -> bool {
    a.mats.len() == b.mats.len()
        && a.mats.iter().zip(&b.mats).all(|(x, y)| {
            x.rows() == y.rows()
                && x.cols() == y.cols()
                && x.data()
                    .iter()
                    .zip(y.data())
                    .all(|(u, v)| u.to_bits() == v.to_bits())
        })
}

/// Bitwise equality of two loss/accuracy trajectories.
fn same_records(a: &[EpochRecord], b: &[EpochRecord]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.loss.to_bits() == y.loss.to_bits()
                && x.train_accuracy.to_bits() == y.train_accuracy.to_bits()
        })
}

/// Modeled seconds per epoch: the run total divided by its epochs (the
/// exported `world.modeled_epoch_seconds` gauge is a whole-run total).
pub fn modeled_epoch_s(call: &Call, epochs: usize) -> f64 {
    call.out.stats.modeled_epoch_time() / epochs as f64
}

/// The analytic model's prediction for the same run, per epoch.
fn analytic_epoch_s(w: &Workload, prep: &Prepared, epochs: usize) -> f64 {
    let gcn = w.gcn(&prep.ds);
    let est = estimate(&AnalyticInput {
        adj: &prep.ds.norm_adj,
        bounds: &prep.bounds,
        algo: w.algo,
        dims: &gcn.dims,
        model: Workload::model(),
        epochs,
        arch: ArchKind::Gcn,
        overlap: OverlapConfig::off(),
    });
    est.modeled_epoch_time() / epochs as f64
}

/// Tally of the training calls a run made: every call is counted, and
/// each must reproduce the first call of its length bit for bit (a
/// shorter call's losses must be a prefix of a longer one's).
#[derive(Default)]
pub struct Gate {
    /// Training calls made.
    pub attempted: u64,
    /// Calls that errored or failed a check.
    pub failed: u64,
    /// One line per failure.
    pub notes: Vec<String>,
    firsts: Vec<(usize, Vec<EpochRecord>, Weights)>,
}

impl Gate {
    /// Records a failure that is not tied to one call.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.notes.push(why);
    }

    /// Records a failed check of a result every call reproduced: all
    /// calls made so far count as failed.
    pub fn fail_all(&mut self, why: String) {
        self.failed = self.attempted;
        self.notes.push(why);
    }

    /// Whether every call passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Counts a call of `epochs` epochs and checks its result; returns
    /// the call if it completed. `what` names it in failure notes.
    pub fn record(&mut self, what: &str, epochs: usize, res: Result<Call, String>) -> Option<Call> {
        self.attempted += 1;
        match res {
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
            Ok(call) => {
                if let Err(e) = self.check(epochs, &call) {
                    self.fail(format!("{what}: {e}"));
                }
                Some(call)
            }
        }
    }

    fn check(&mut self, epochs: usize, call: &Call) -> Result<(), String> {
        let out = &call.out;
        if out.records.len() != epochs {
            return Err(format!("{} records for {epochs} epochs", out.records.len()));
        }
        for (e, records, weights) in &self.firsts {
            let n = (*e).min(epochs);
            if !same_records(&records[..n], &out.records[..n]) {
                return Err(format!(
                    "losses of a {epochs}-epoch call differ from the first {e}-epoch call's"
                ));
            }
            if *e == epochs && !same_weights(weights, &out.weights) {
                return Err(format!(
                    "weights differ from the first {epochs}-epoch call's"
                ));
            }
        }
        if !self.firsts.iter().any(|(e, _, _)| *e == epochs) {
            self.firsts
                .push((epochs, out.records.clone(), out.weights.clone()));
        }
        Ok(())
    }
}

/// Checks a finished job against the sequential reference trained on
/// the same permuted inputs, and its modeled time against the analytic
/// model. Returns the reference's epoch times (each a `reference.epoch`
/// span under `parent`).
pub fn check_against_models(
    w: &Workload,
    prep: &Prepared,
    epochs: usize,
    call: &Call,
    rec: &Recorder,
    parent: Option<u64>,
) -> Result<Vec<f64>, String> {
    let mut reference = ReferenceTrainer::new(&prep.ds, w.gcn(&prep.ds));
    let times: Vec<f64> = (0..epochs)
        .map(|_| rec.span("reference.epoch", parent, |_| reference.epoch()).1)
        .collect();
    let diff = reference.weights.max_abs_diff(&call.out.weights);
    if diff.is_nan() || diff > REFERENCE_TOL {
        return Err(format!(
            "weights differ from the sequential reference by {diff:e}"
        ));
    }
    let executed = modeled_epoch_s(call, epochs);
    let analytic = analytic_epoch_s(w, prep, epochs);
    let gap = (executed - analytic).abs();
    if gap.is_nan() || gap > MODEL_RTOL * analytic.abs() {
        return Err(format!(
            "modeled epoch {executed:e} s differs from the analytic model's {analytic:e} s"
        ));
    }
    Ok(times)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{train_thread, WORKLOADS};

    /// The per-epoch modeled time the benchmark reports equals the
    /// analytic model's prediction for every workload's config. Rank
    /// processes cannot be launched from the test harness, so the proc
    /// workload's config runs on rank threads here; its logical
    /// accounting is the same on both backends, which the benchmark's
    /// own gate checks on real processes.
    #[test]
    fn modeled_epoch_matches_analytic_for_every_workload() {
        spmat::pool::set_threads(1);
        let epochs = 2;
        for w in &WORKLOADS {
            let prep = w.setup(11, &Recorder::off(), None);
            let call = train_thread(w, &prep, epochs, false).expect("training");
            let executed = modeled_epoch_s(&call, epochs);
            let analytic = analytic_epoch_s(w, &prep, epochs);
            assert!(analytic > 0.0, "{}", w.name);
            assert!(
                (executed - analytic).abs() <= MODEL_RTOL * analytic,
                "{}: executed {executed:e} s vs analytic {analytic:e} s per epoch",
                w.name
            );
            // Per epoch, not per run: doubling the epochs keeps it.
            let twice = analytic_epoch_s(w, &prep, 2 * epochs);
            assert!(
                (twice - analytic).abs() <= MODEL_RTOL * analytic,
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn repeated_calls_must_agree_bit_for_bit() {
        let w = &WORKLOADS[0];
        spmat::pool::set_threads(1);
        let prep = w.setup(3, &Recorder::off(), None);
        let call = |e| train_thread(w, &prep, e, false);
        let mut gate = Gate::default();
        let a = gate.record("a", 2, call(2)).unwrap();
        gate.record("b", 2, call(2)).unwrap();
        gate.record("short", 1, call(1)).unwrap();
        assert!(gate.correct(), "{:?}", gate.notes);
        let mut flipped = call(2).unwrap();
        let x = flipped.out.weights.mats[0].data()[0];
        flipped.out.weights.mats[0].data_mut()[0] = f64::from_bits(x.to_bits() ^ 1);
        gate.record("flipped", 2, Ok(flipped));
        assert_eq!(gate.failed, 1);
        gate.record("miscounted", 3, Ok(a));
        gate.record("errored", 2, Err("boom".into()));
        assert_eq!((gate.attempted, gate.failed), (6, 3));
        assert!(!gate.correct());
    }
}
