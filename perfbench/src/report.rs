//! Run records: the human-readable lines, the record file, and the
//! final one-line JSON result.

use std::path::PathBuf;
use std::time::Instant;

use gnn_trace::json::{fmt_f64, quote};

use crate::gate::Gate;
use crate::sys::{self, CpuTicks, Host};
use crate::workload::Workload;

/// Where runs leave their records, span files and rank-process
/// directories, relative to the checkout root the benchmark runs from.
/// Relative on purpose: Unix socket paths must stay short.
pub fn out_dir() -> PathBuf {
    PathBuf::from("perfbench/out")
}

/// Everything one run reports.
pub struct Report {
    workload: &'static str,
    why: &'static str,
    seed: u64,
    traced: bool,
    host: Host,
    ticks0: Option<CpuTicks>,
    started: Instant,
    metrics: Vec<(String, f64, &'static str, String)>,
    notes: Vec<String>,
    gate: Gate,
    steal: Option<f64>,
}

impl Report {
    /// Starts a record (and the steal reading) for one run.
    pub fn new(w: &Workload, seed: u64, traced: bool) -> Self {
        Report {
            workload: w.name,
            why: w.why,
            seed,
            traced,
            host: Host::detect(),
            ticks0: sys::cpu_ticks(),
            started: Instant::now(),
            metrics: Vec::new(),
            notes: Vec::new(),
            gate: Gate::default(),
            steal: None,
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metric_with(name, value, unit, String::new());
    }

    /// Adds a metric with a remark printed beside it.
    pub fn metric_with(&mut self, name: &str, value: f64, unit: &'static str, remark: String) {
        self.metrics.push((name.to_string(), value, unit, remark));
    }

    /// Adds a line to the human-readable output.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Closes the record with the run's call tally.
    pub fn finish(&mut self, gate: Gate) {
        self.steal = match (self.ticks0, sys::cpu_ticks()) {
            (Some(a), Some(b)) => Some(sys::steal_share(a, b)),
            _ => None,
        };
        self.gate = gate;
        if let Some((name, v, _, _)) = self.metrics.iter().find(|(_, v, _, _)| !v.is_finite()) {
            let why = format!("metric {name} is not finite ({v})");
            self.gate.fail(why);
        }
    }

    /// Whether every call passed the gate.
    pub fn correct(&self) -> bool {
        self.gate.correct()
    }

    /// The final result line.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u, _)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(n),
                    fmt_f64(*v),
                    quote(u)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.gate.attempted,
            self.gate.failed,
            metrics.join(", ")
        )
    }

    fn host_line(&self) -> String {
        format!(
            "host: nproc={} kernels={} steal={}",
            self.host.nproc,
            self.host.kernels,
            self.steal
                .map_or("unknown".into(), |s| format!("{:.2}%", 100.0 * s)),
        )
    }

    /// Prints the record and writes it to `out_dir()/runs/`. The JSON
    /// result is the last line of standard output.
    pub fn emit(&self) {
        println!(
            "workload {} seed {} ({} run, {:.1} s)",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.started.elapsed().as_secs_f64()
        );
        println!("why: {}", self.why);
        println!("{}", self.host_line());
        for (n, v, u, remark) in &self.metrics {
            println!("  {n:<32} {v:>18.6} {u:<8} {remark}");
        }
        for n in &self.notes {
            println!("  note: {n}");
        }
        let frac = if self.gate.attempted == 0 {
            1.0
        } else {
            self.gate.failed as f64 / self.gate.attempted as f64
        };
        println!(
            "  failed_frac = {frac} ({} of {} training calls)",
            self.gate.failed, self.gate.attempted
        );
        for n in &self.gate.notes {
            println!("  FAILED: {n}");
        }
        let result = self.result_json();
        let dir = out_dir().join("runs");
        let path = dir.join(format!(
            "{}-seed{}-trace{}.txt",
            self.workload,
            self.seed,
            u8::from(self.traced)
        ));
        let text = format!("{}\n{}\n", self.host_line(), result);
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, text)) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
        println!("{result}");
    }
}
