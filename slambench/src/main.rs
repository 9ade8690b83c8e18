//! The repository benchmark: drives the SLAM-Share edge server through its
//! public API on named workloads and reports end-to-end metrics (untraced
//! runs) or per-layer metrics (traced runs).
//!
//! ```text
//! cargo run --release --manifest-path slambench/Cargo.toml -- \
//!     --workload hall3 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Inputs are rendered and encoded from the seed before any clock starts.
//! The run repeats whole sessions on fresh servers until `--seconds` is
//! used, checks every session's output, and prints one JSON object as the
//! last line of standard output. See `README.md` for the workloads and the
//! metric-to-layer map.

mod alloc;
mod host;
mod inputs;
mod report;
mod session;
mod stats;
mod trace;

use inputs::{ClientInput, Drive, Workload};
use session::{Fnv, SessionOut};
use stats::{median, percentile};
use std::path::PathBuf;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-ups measured per run (the median is reported).
const SETUP_REPS: usize = 11;
/// Largest share of offered frames that may go without a pose.
const MAX_FAILED_FRAC: f64 = 0.05;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = val()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.workload.is_empty() {
        return Err(format!(
            "--workload is required: one of {:?}",
            inputs::WORKLOADS
        ));
    }
    Ok(a)
}

/// Largest ATE, meters, a workload may return and still count as correct.
fn max_ate_m(w: &Workload) -> f64 {
    match w.name {
        "solo" => 0.5,
        _ => 0.25,
    }
}

/// Identity of the running build: a digest of the executable, so cached
/// inputs and recorded pose digests are only ever compared within one
/// build of the code.
fn build_id() -> u64 {
    let mut h = Fnv::default();
    if let Ok(bytes) = std::env::current_exe().and_then(std::fs::read) {
        h.write(&bytes);
    }
    h.0
}

fn cache_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".cache")
}

/// Closed-loop pose digests must repeat exactly across runs of the same
/// build: the first run records the digest, later runs compare against it.
fn check_recorded_digest(path: &PathBuf, digest: u64) -> Result<(), String> {
    match std::fs::read_to_string(path) {
        Ok(s) if s.trim() == format!("{digest:016x}") => Ok(()),
        Ok(s) => Err(format!(
            "pose digest {digest:016x} differs from {} recorded by an earlier run of this build",
            s.trim()
        )),
        Err(_) => {
            let _ = std::fs::create_dir_all(cache_dir());
            let _ = std::fs::write(path, format!("{digest:016x}\n"));
            Ok(())
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("slambench: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = inputs::workload(&args.workload, args.seed) else {
        eprintln!(
            "slambench: unknown workload {:?}: one of {:?}",
            args.workload,
            inputs::WORKLOADS
        );
        std::process::exit(2);
    };
    let build = build_id();
    let t_inputs = Instant::now();
    let inputs = inputs::build(&w, args.seed, &cache_dir(), build);
    eprintln!(
        "slambench: {} seed {} inputs ready in {:.1} s",
        w.name,
        args.seed,
        t_inputs.elapsed().as_secs_f64()
    );
    run(&w, &inputs, &args, build);
}

fn run(w: &Workload, inputs: &[ClientInput], args: &Args, build: u64) {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut setups = Vec::new();
    let mut plain: Vec<SessionOut> = Vec::new();
    let mut traced: Vec<SessionOut> = Vec::new();
    let mut layer = None;
    let mut last = Duration::ZERO;
    // Trace runs alternate untraced and traced sessions, so the tracing
    // overhead is measured in the same run.
    loop {
        let t0 = Instant::now();
        let (server, setup_s) = session::setup(w, inputs);
        setups.push(setup_s);
        let trace_this = args.trace && plain.len() > traced.len();
        let out = session::run(w, inputs, &server, trace_this);
        eprintln!(
            "slambench: session {} ({}): {} frames in {:.2} s",
            plain.len() + traced.len() + 1,
            if trace_this { "traced" } else { "untraced" },
            out.frames.len(),
            out.wall_s
        );
        if trace_this {
            if layer.is_none() {
                let features = trace::time_features(&server, &inputs[0]);
                layer = Some(trace::layers(w, inputs, &server, &out, &features));
            }
            traced.push(out);
        } else {
            plain.push(out);
        }
        drop(server);
        last = last.max(t0.elapsed());
        let enough = !args.trace || !traced.is_empty();
        if enough && Instant::now() + last > deadline {
            break;
        }
    }
    while setups.len() < SETUP_REPS {
        let (server, setup_s) = session::setup(w, inputs);
        drop(server);
        setups.push(setup_s);
    }

    let mut checks: Vec<String> = Vec::new();
    let all: Vec<&SessionOut> = plain.iter().chain(&traced).collect();
    let digests: Vec<u64> = all.iter().map(|s| s.digest()).collect();
    if w.drive == Drive::Closed {
        if let Some(j) = digests.iter().position(|&d| d != digests[0]) {
            let at = all[0]
                .first_difference(all[j])
                .map(|(i, k)| {
                    format!(
                        "; first differing pose: client {} frame {k}",
                        inputs[i].spec.id
                    )
                })
                .unwrap_or_default();
            checks.push(format!(
                "pose digests differ between sessions: {digests:x?}{at}"
            ));
        }
        let path = cache_dir().join(format!("{}-seed{}-{build:016x}.digest", w.name, args.seed));
        if let Err(e) = check_recorded_digest(&path, digests[0]) {
            checks.push(e);
        }
    }
    let offered: usize = all.iter().map(|s| s.offered).sum();
    let failed: usize = all.iter().map(|s| s.failed()).sum();
    let failed_frac = failed as f64 / offered.max(1) as f64;
    if failed_frac > MAX_FAILED_FRAC {
        checks.push(format!("failed_frac {failed_frac:.4} > {MAX_FAILED_FRAC}"));
    }
    let mut ates = Vec::new();
    for s in &all {
        if !s.merged_all {
            checks.push("a client never merged into the global map".to_string());
        }
        match s.ate_rmse_m(inputs) {
            Some(a) if a <= max_ate_m(w) => ates.push(a),
            Some(a) => checks.push(format!("ate_rmse_m {a:.4} > {}", max_ate_m(w))),
            None => checks.push("a client returned too few global poses for ATE".to_string()),
        }
    }
    let correct = checks.is_empty();

    let e2e = end_to_end(&plain, &setups);
    let mut rep = report::Report::new(w, args.seed, args.trace, &host::host());
    rep.checks(correct, &checks, &digests, failed_frac, &ates);
    rep.sessions(plain.len(), traced.len(), &setups);
    let p90_supported = plain
        .iter()
        .all(|s| stats::tail_supported(s.frames.len(), 0.9));
    rep.end_to_end(&e2e, p90_supported);
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let mut layer = layer.unwrap_or_default();
        let p50 = |ss: &[SessionOut]| {
            let lat: Vec<f64> = ss.iter().flat_map(|s| s.latencies()).collect();
            percentile(&lat, 0.5)
        };
        let (t, u) = (p50(&traced), p50(&plain));
        layer.insert(
            "trace.overhead_frac",
            (t.value / u.value - 1.0, t.n.min(u.n)),
        );
        rep.layers(w, &layer, traced.iter().any(|s| s.span_ring_full));
        trace::LAYER_METRICS
            .iter()
            .map(|&(name, unit, _)| (name, unit, layer.get(name).map_or(0.0, |v| v.0)))
            .collect()
    } else {
        e2e.iter().map(|m| (m.name, m.unit, m.value)).collect()
    };
    rep.print();
    println!(
        "{}",
        report::result_line(correct, offered, failed, &metrics)
    );
    if !correct {
        for c in &checks {
            eprintln!("slambench: check failed: {c}");
        }
    }
}

/// One end-to-end metric with the number of samples behind it.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub n: usize,
}

/// End-to-end metrics: each is taken per untraced session and the median
/// over sessions is reported, so a host hiccup during one session does not
/// move the run's figure. `n` counts the samples behind the figure.
fn end_to_end(plain: &[SessionOut], setups: &[f64]) -> Vec<Metric> {
    let per_session =
        |f: &dyn Fn(&SessionOut) -> f64| median(&plain.iter().map(f).collect::<Vec<f64>>());
    let frames: usize = plain.iter().map(|s| s.frames.len()).sum();
    let offered: usize = plain.iter().map(|s| s.offered).sum();
    let metric = |name, unit, value, n| Metric {
        name,
        unit,
        value,
        n,
    };
    vec![
        metric("setup_s", "s", median(setups), setups.len()),
        metric(
            "frame_latency_p50_ms",
            "ms",
            per_session(&|s| percentile(&s.latencies(), 0.5).value),
            frames,
        ),
        metric(
            "frame_latency_p90_ms",
            "ms",
            per_session(&|s| percentile(&s.latencies(), 0.9).value),
            frames,
        ),
        metric(
            "throughput_fps",
            "1/s",
            per_session(&|s| s.delivered() as f64 / s.wall_s),
            frames,
        ),
        metric(
            "cpu_ms_per_frame",
            "ms",
            per_session(&|s| s.cpu_s * 1e3 / s.offered as f64),
            offered,
        ),
        metric(
            "heap_peak_mb",
            "MB",
            per_session(&|s| s.heap_peak_bytes as f64 / 1e6),
            plain.len(),
        ),
        metric(
            "delivered_frac",
            "fraction",
            per_session(&|s| s.delivered() as f64 / s.offered as f64),
            offered,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark's declaration at the repository root names exactly
    /// the workloads and metrics this program reports.
    #[test]
    fn benchmark_json_declares_every_reported_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json beside slambench/");
        let declared = |name: &str, unit: &str| {
            spec.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        let e2e = end_to_end(&[], &[1.0]);
        for m in &e2e {
            assert!(
                declared(m.name, m.unit),
                "end-to-end {} [{}]",
                m.name,
                m.unit
            );
        }
        for (name, unit, _) in trace::LAYER_METRICS {
            assert!(declared(name, unit), "per-layer {name} [{unit}]");
        }
        assert_eq!(
            spec.matches("\"better\"").count(),
            e2e.len() + trace::LAYER_METRICS.len()
        );
        for w in inputs::WORKLOADS {
            assert!(
                spec.contains(&format!("{{\"name\": \"{w}\", \"why\"")),
                "{w}"
            );
        }
        assert_eq!(spec.matches("\"why\"").count(), inputs::WORKLOADS.len());
    }
}
