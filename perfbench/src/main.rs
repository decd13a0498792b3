//! Measured wall-clock benchmark of distributed GCN training.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload amazon-sa1d --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. Each run generates its workload's
//! inputs from `--seed`, trains for `--seconds` of measurement, checks
//! every training call (see `gate`), prints its metrics by name with
//! units and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` reports the end-to-end metrics of untraced jobs;
//! `--trace 1` times the calls into each layer, records them as spans
//! (written to `perfbench/out/spans/`) and reports the per-layer
//! metrics. The exit code is 0 only when every call passed.
//!
//! The workloads and the reason each is run are in `workload.rs` and
//! `BENCHMARK.json`; the per-layer metrics, with the end-to-end metric
//! and workload each should move, are in `layers.rs`.

mod e2e;
mod gate;
mod layers;
mod report;
mod spans;
mod stats;
mod sys;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    epochs: Option<usize>,
    proc_child: Option<usize>,
    proc_dir: Option<PathBuf>,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args::default();
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = Some(val()?),
            "--seed" => a.seed = Some(val()?.parse().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s: f64 = val()?.parse().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = Some(match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--epochs" => a.epochs = Some(val()?.parse().map_err(|e| bad(&e))?),
            "--proc-child" => a.proc_child = Some(val()?.parse().map_err(|e| bad(&e))?),
            "--proc-dir" => a.proc_dir = Some(PathBuf::from(val()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    let Some(w) = args.workload.as_deref().and_then(workload::find) else {
        eprintln!("--workload must be one of {}\n{USAGE}", names.join(", "));
        return ExitCode::from(2);
    };
    let (Some(seed), Some(trace)) = (args.seed, args.trace) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    // One kernel thread per rank in every process.
    spmat::pool::set_threads(1);

    if let Some(rank) = args.proc_child {
        let (Some(dir), Some(epochs)) = (args.proc_dir.as_deref(), args.epochs) else {
            eprintln!("--proc-child needs --proc-dir and --epochs");
            return ExitCode::from(2);
        };
        return match workload::run_child(w, seed, epochs, dir, rank) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }

    let Some(seconds) = args.seconds else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let report = if trace {
        layers::run(w, seed, seconds)
    } else {
        e2e::run(w, seed, seconds)
    };
    report.emit();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use gnn_trace::json::{parse, Json};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
    }

    fn list<'a>(v: &'a Json, key: &str) -> &'a [Json] {
        match v.get(key) {
            Some(Json::Arr(a)) => a,
            _ => panic!("{key} is not a list"),
        }
    }

    fn s<'a>(v: &'a Json, key: &str) -> &'a str {
        v.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("no {key}"))
    }

    #[test]
    fn benchmark_json_matches_the_code() {
        let b = benchmark_json();
        let workloads: Vec<(&str, &str)> = list(&b, "workloads")
            .iter()
            .map(|w| (s(w, "name"), s(w, "why")))
            .collect();
        let ours: Vec<(&str, &str)> = crate::workload::WORKLOADS
            .iter()
            .map(|w| (w.name, w.why))
            .collect();
        assert_eq!(workloads, ours);

        let e2e: Vec<(&str, &str)> = list(&b, "end_to_end")
            .iter()
            .map(|m| (s(m, "name"), s(m, "unit")))
            .collect();
        assert_eq!(e2e, crate::e2e::END_TO_END.to_vec());
        for m in list(&b, "end_to_end") {
            assert_eq!(s(m, "better"), "lower");
        }

        let layers: Vec<(&str, &str, &str)> = list(&b, "per_layer")
            .iter()
            .map(|m| (s(m, "name"), s(m, "unit"), s(m, "better")))
            .collect();
        let ours: Vec<(&str, &str, &str)> = crate::layers::PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .collect();
        assert_eq!(layers, ours);
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let args = [
            "--workload",
            "amazon-sa1d",
            "--seed",
            "4",
            "--seconds",
            "25",
            "--trace",
            "1",
        ];
        let a = super::parse(args.iter().map(|s| s.to_string())).unwrap();
        assert_eq!(a.workload.as_deref(), Some("amazon-sa1d"));
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (Some(4), Some(25.0), Some(true))
        );
        for bad in [
            &["--trace", "2"][..],
            &["--seconds", "0"],
            &["--seed"],
            &["--frobnicate"],
        ] {
            assert!(
                super::parse(bad.iter().map(|s| s.to_string())).is_err(),
                "{bad:?}"
            );
        }
    }
}
