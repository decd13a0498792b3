//! Spans the benchmark records around its calls into each layer.
//!
//! Spans stay in memory while the run measures and are written as JSON
//! lines when it ends, one object per span:
//!
//! ```text
//! {"schema":"perfbench-spans/1","workload":"amazon-sa1d","id":3,"parent":1,
//!  "name":"partition","start_s":0.131,"end_s":0.402}
//! ```
//!
//! Times are seconds since the recorder was made. A span's self time is
//! its duration minus the part of it that its children cover (children
//! recorded on concurrent rank threads may overlap each other; their
//! union is what counts). Lines are written and read back with the
//! workspace's `gnn_trace::json` helpers.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use gnn_trace::json::{self, Json};

/// Schema tag on every line.
pub const SCHEMA: &str = "perfbench-spans/1";

/// One timed section.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique, assigned when the span opens (so a parent's id is
    /// smaller than its children's).
    pub id: u64,
    /// Enclosing span, `None` for a root.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `kernel.spmm`.
    pub name: String,
    /// Open time, seconds since the recorder's origin.
    pub start_s: f64,
    /// Close time, seconds since the recorder's origin.
    pub end_s: f64,
}

impl Span {
    /// Closed duration in seconds.
    pub fn dur(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Thread-safe in-memory span store. A disabled recorder still times
/// the closures it runs but keeps nothing.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder that keeps spans.
    pub fn new() -> Self {
        Self::with(true)
    }

    /// A recorder that only times.
    pub fn off() -> Self {
        Self::with(false)
    }

    fn with(enabled: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            enabled,
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` under `parent`. `f` receives
    /// the new span's id (for children); the call returns `f`'s result
    /// and the span's duration in seconds.
    pub fn span<R>(&self, name: &str, parent: Option<u64>, f: impl FnOnce(u64) -> R) -> (R, f64) {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let out = f(id);
        let t1 = Instant::now();
        if self.enabled {
            let at = |t: Instant| t.duration_since(self.origin).as_secs_f64();
            self.spans
                .lock()
                .expect("a thread panicked while recording a span")
                .push(Span {
                    id,
                    parent,
                    name: name.to_string(),
                    start_s: at(t0),
                    end_s: at(t1),
                });
        }
        (out, t1.duration_since(t0).as_secs_f64())
    }

    /// The recorded spans, ordered by id.
    pub fn finish(self) -> Vec<Span> {
        let mut spans = self
            .spans
            .into_inner()
            .expect("a thread panicked while recording a span");
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Renders spans as JSON lines.
pub fn to_jsonl(workload: &str, spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"schema\":{},\"workload\":{},\"id\":{},\"parent\":{parent},\"name\":{},\"start_s\":{},\"end_s\":{}}}\n",
            json::quote(SCHEMA),
            json::quote(workload),
            s.id,
            json::quote(&s.name),
            json::fmt_f64(s.start_s),
            json::fmt_f64(s.end_s),
        ));
    }
    out
}

/// Reads a span file back: `(workload, spans)`.
pub fn parse_jsonl(text: &str) -> Result<(String, Vec<Span>), String> {
    let mut workload: Option<String> = None;
    let mut spans = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = |m: &str| format!("line {}: {m}", i + 1);
        let v = json::parse(line).map_err(|e| at(&e.to_string()))?;
        let str_field = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .ok_or_else(|| at(&format!("missing string `{k}`")))
        };
        let num_field = |k: &str| {
            v.get(k)
                .and_then(Json::as_f64)
                .filter(|x| x.is_finite())
                .ok_or_else(|| at(&format!("missing number `{k}`")))
        };
        if str_field("schema")? != SCHEMA {
            return Err(at("unknown schema"));
        }
        let w = str_field("workload")?;
        match &workload {
            None => workload = Some(w.to_string()),
            Some(prev) if prev != w => return Err(at("spans of two workloads in one file")),
            Some(_) => {}
        }
        let id = v
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| at("missing integer `id`"))?;
        let parent = match v.get("parent") {
            Some(Json::Null) => None,
            Some(p) => Some(p.as_u64().ok_or_else(|| at("bad `parent`"))?),
            None => return Err(at("missing `parent`")),
        };
        spans.push(Span {
            id,
            parent,
            name: str_field("name")?.to_string(),
            start_s: num_field("start_s")?,
            end_s: num_field("end_s")?,
        });
    }
    Ok((workload.ok_or("no spans")?, spans))
}

/// Checks the span tree: unique ids, every parent recorded with a
/// smaller id, `start <= end`, and every child inside its parent.
pub fn validate(spans: &[Span]) -> Result<(), String> {
    let mut by_id: BTreeMap<u64, &Span> = BTreeMap::new();
    for s in spans {
        if s.name.is_empty() {
            return Err(format!("span {} has no name", s.id));
        }
        if s.end_s < s.start_s {
            return Err(format!("span {} `{}` ends before it starts", s.id, s.name));
        }
        if by_id.insert(s.id, s).is_some() {
            return Err(format!("duplicate span id {}", s.id));
        }
    }
    for s in spans {
        let Some(pid) = s.parent else { continue };
        let p = by_id
            .get(&pid)
            .ok_or_else(|| format!("span {} `{}` has unknown parent {pid}", s.id, s.name))?;
        if pid >= s.id {
            return Err(format!("span {} opened before its parent {pid}", s.id));
        }
        if s.start_s < p.start_s || s.end_s > p.end_s {
            return Err(format!(
                "span {} `{}` [{}, {}] escapes parent {pid} `{}` [{}, {}]",
                s.id, s.name, s.start_s, s.end_s, p.name, p.start_s, p.end_s
            ));
        }
    }
    Ok(())
}

/// Length of the union of intervals.
fn covered(mut iv: Vec<(f64, f64)>) -> f64 {
    iv.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite span times"));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (lo, hi) in iv {
        match cur {
            Some((clo, chi)) if lo <= chi => cur = Some((clo, chi.max(hi))),
            Some((clo, chi)) => {
                total += chi - clo;
                cur = Some((lo, hi));
            }
            None => cur = Some((lo, hi)),
        }
    }
    if let Some((clo, chi)) = cur {
        total += chi - clo;
    }
    total
}

/// Per span: `(duration, part covered by its children)`, indexed like
/// `spans`. Self time is the difference.
pub fn child_cover(spans: &[Span]) -> Vec<(f64, f64)> {
    let mut kids: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            kids.entry(p).or_default().push((s.start_s, s.end_s));
        }
    }
    spans
        .iter()
        .map(|s| {
            let c = kids.remove(&s.id).map_or(0.0, covered);
            (s.dur(), c)
        })
        .collect()
}

/// Totals per span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotal {
    /// Spans with this name.
    pub count: usize,
    /// Summed duration.
    pub total_s: f64,
    /// Summed self time.
    pub self_s: f64,
}

/// Self-time summary: per name, how many spans, their summed duration
/// and summed self time.
pub fn summarize(spans: &[Span]) -> BTreeMap<String, NameTotal> {
    let mut out: BTreeMap<String, NameTotal> = BTreeMap::new();
    for (s, (dur, kids)) in spans.iter().zip(child_cover(spans)) {
        let e = out.entry(s.name.clone()).or_default();
        e.count += 1;
        e.total_s += dur;
        e.self_s += dur - kids;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < us as u128 {
            std::hint::spin_loop();
        }
    }

    fn sample() -> Vec<Span> {
        let rec = Recorder::new();
        rec.span("run", None, |root| {
            rec.span("setup", Some(root), |s| {
                rec.span("dataset.gen", Some(s), |_| busy(300));
                busy(100);
                rec.span("partition", Some(s), |_| busy(200));
            });
            // Concurrent children, as rank threads record them.
            rec.span("world", Some(root), |w| {
                std::thread::scope(|sc| {
                    for _ in 0..3 {
                        sc.spawn(|| rec.span("kernel.spmm", Some(w), |_| busy(400)));
                    }
                });
            });
        });
        rec.finish()
    }

    #[test]
    fn children_stay_inside_parents() {
        let spans = sample();
        assert_eq!(spans.len(), 8);
        validate(&spans).unwrap();
        let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
        for s in &spans {
            if let Some(p) = s.parent {
                let p = by_id[&p];
                assert!(s.start_s >= p.start_s && s.end_s <= p.end_s);
                assert!(s.dur() <= p.dur());
            }
        }
    }

    #[test]
    fn self_plus_children_is_the_duration() {
        let spans = sample();
        for (s, (dur, kids)) in spans.iter().zip(child_cover(&spans)) {
            assert!(kids <= dur + 1e-12, "{}: children {kids} > {dur}", s.name);
            let self_s = dur - kids;
            assert!(self_s >= -1e-12);
            assert!((self_s + kids - s.dur()).abs() < 1e-12);
        }
        let sum = summarize(&spans);
        assert_eq!(sum["kernel.spmm"].count, 3);
        // Leaves have no children: self time is all of it.
        let k = sum["kernel.spmm"];
        assert!((k.self_s - k.total_s).abs() < 1e-12);
        // The setup span's self time is the gap between its children.
        let setup = &spans[1];
        let (dur, kids) = child_cover(&spans)[1];
        assert_eq!(setup.name, "setup");
        assert!(kids > 0.0 && kids < dur);
    }

    #[test]
    fn union_of_overlapping_children() {
        assert_eq!(covered(vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]), 4.0);
        assert_eq!(covered(vec![]), 0.0);
    }

    #[test]
    fn jsonl_roundtrip_validates() {
        let spans = sample();
        let text = to_jsonl("amazon-sa1d", &spans);
        let (w, back) = parse_jsonl(&text).unwrap();
        assert_eq!(w, "amazon-sa1d");
        assert_eq!(back, spans);
        validate(&back).unwrap();
    }

    #[test]
    fn validator_rejects_broken_trees() {
        let mk = |id, parent, a, b| Span {
            id,
            parent,
            name: "x".into(),
            start_s: a,
            end_s: b,
        };
        assert!(validate(&[mk(1, None, 0.0, 1.0), mk(2, Some(1), 0.5, 1.5)]).is_err());
        assert!(validate(&[mk(1, None, 0.0, 1.0), mk(2, Some(7), 0.1, 0.2)]).is_err());
        assert!(validate(&[mk(1, None, 0.0, 1.0), mk(1, None, 0.0, 1.0)]).is_err());
        assert!(validate(&[mk(1, None, 1.0, 0.0)]).is_err());
        assert!(validate(&[mk(2, None, 0.0, 1.0), mk(1, Some(2), 0.1, 0.2)]).is_err());
        assert!(parse_jsonl("{\"schema\":\"other\"}").is_err());
        let two =
            to_jsonl("a", &[mk(1, None, 0.0, 1.0)]) + &to_jsonl("b", &[mk(2, None, 0.0, 1.0)]);
        assert!(parse_jsonl(&two).is_err());
    }
}
