//! The untraced run: end-to-end metrics of real training jobs.
//!
//! Each job's epochs are timed at their ends, wall and CPU (see
//! `EpochClock`). The first epoch of a job carries the plan build, rank
//! start and warm-up and is left out of the steady-state samples.
//!
//! Wall times are reported net of hypervisor steal: every timed
//! interval (an epoch, a set-up, a job) is scaled by one minus the share
//! of the CPU time the guest wanted in it that the hypervisor stole
//! (`/proc/stat`). On a shared guest the steal share moves from run to
//! run and raw wall times move with it; on a host without steal the two
//! are the same. The raw medians and the steal are printed beside the
//! metrics.

use std::time::Instant;

use crate::gate::{self, Gate};
use crate::report::Report;
use crate::spans::Recorder;
use crate::stats::{median, tail};
use crate::sys::{self, CpuTicks};
use crate::workload::{train_thread, Call, Prepared, Workload};

/// The end-to-end metrics and their units, in output order.
/// `BENCHMARK.json` lists the same names and units. `failed_frac` is
/// printed with them but reaches the result line as `attempted` and
/// `failed`: it reads zero on a correct run.
pub static END_TO_END: &[(&str, &str)] = &[
    ("epoch_s", "s"),
    ("epoch_s_tail", "s"),
    ("epoch_cpu_s", "s"),
    ("setup_s", "s"),
    ("run_s", "s"),
    ("modeled_epoch_ms", "ms"),
    ("comm_mb_per_epoch", "MB"),
    ("comm_max_rank_mb_per_epoch", "MB"),
    ("peak_rss_mb", "MB"),
];

fn put(r: &mut Report, name: &str, value: f64) {
    let (_, unit) = END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not an end-to-end metric"));
    r.metric(name, value, unit);
}

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Metrics every workload derives from one representative job.
fn job_metrics(r: &mut Report, call: &Call, epochs: usize) {
    let e = epochs as f64;
    let stats = &call.out.stats;
    let sent: Vec<u64> = stats
        .per_rank
        .iter()
        .map(|s| s.bytes_sent_total())
        .collect();
    put(
        r,
        "modeled_epoch_ms",
        gate::modeled_epoch_s(call, epochs) * 1e3,
    );
    put(
        r,
        "comm_mb_per_epoch",
        sent.iter().sum::<u64>() as f64 / e / 1e6,
    );
    put(
        r,
        "comm_max_rank_mb_per_epoch",
        sent.iter().copied().max().unwrap_or(0) as f64 / e / 1e6,
    );
}

/// `wall` seconds net of the steal between the `before` and `after`
/// readings.
fn net(wall: f64, before: Option<CpuTicks>, after: Option<CpuTicks>) -> f64 {
    match (before, after) {
        (Some(a), Some(b)) => wall * (1.0 - sys::steal_share(a, b)),
        _ => wall,
    }
}

/// Runs `w` for `seconds` of measurement and reports its end-to-end
/// metrics: set-up and a job `SETUP_REPS` times, then jobs on the last
/// inputs until the time is up.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> Report {
    let mut report = Report::new(w, seed, false);
    let r = &mut report;
    let rec = Recorder::off();
    let mut gate = Gate::default();
    // Net of steal, and raw.
    let (mut setups, mut jobs, mut epochs) = (vec![], vec![], vec![]);
    let (mut raw_setups, mut raw_jobs, mut raw_epochs) = (vec![], vec![], vec![]);
    let (mut cpu, mut steal) = (vec![], vec![]);
    let mut first: Option<Call> = None;
    let mut prep: Option<Prepared> = None;
    let t0 = Instant::now();
    let mut k = 0;
    while k < SETUP_REPS || t0.elapsed().as_secs_f64() < seconds {
        let fresh = k < SETUP_REPS;
        let mut setup_net = 0.0;
        if fresh {
            drop(prep.take());
            let before = sys::cpu_ticks();
            let p = w.setup(seed, &rec, None);
            setup_net = net(p.times.total(), before, sys::cpu_ticks());
            setups.push(setup_net);
            raw_setups.push(p.times.total());
            prep = Some(p);
        }
        k += 1;
        let p = prep.as_ref().expect("set up before the first call");
        let Some(call) = gate.record("thread call", w.epochs, train_thread(w, p, w.epochs, false))
        else {
            continue;
        };
        if fresh {
            jobs.push(setup_net + net(call.wall_s, call.ticks.0, call.ticks.1));
            raw_jobs.push(p.times.total() + call.wall_s);
        }
        for e in call.steady_epochs() {
            epochs.push(e.wall * (1.0 - e.steal));
            raw_epochs.push(e.wall);
            cpu.push(e.cpu);
            steal.push(e.steal);
        }
        first.get_or_insert(call);
    }
    let peak_kib = sys::self_usage().maxrss_kib;
    let prep = prep.expect("at least one set-up");
    if let Some(first) = &first {
        if let Err(e) = gate::check_against_models(w, &prep, w.epochs, first, &rec, None) {
            gate.fail_all(e);
        }
        let t = tail(&epochs);
        put(r, "epoch_s", median(&epochs));
        put(r, "epoch_s_tail", t.value);
        put(r, "epoch_cpu_s", median(&cpu));
        put(r, "setup_s", median(&setups));
        put(r, "run_s", median(&jobs));
        job_metrics(r, first, w.epochs);
        put(r, "peak_rss_mb", peak_kib as f64 / 1024.0);
        r.note(format!(
            "epoch_s_tail is p{:.1} of {} steady-state epoch samples",
            t.percentile, t.n
        ));
        r.note(format!(
            "raw wall medians (not net of steal): epoch_s {:.6}, setup_s {:.6}, run_s {:.6}; \
             median steal share of wanted CPU per epoch {:.2}%",
            median(&raw_epochs),
            median(&raw_setups),
            median(&raw_jobs),
            100.0 * median(&steal)
        ));
    }
    r.finish(gate);
    report
}
