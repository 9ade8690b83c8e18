//! Per-layer metrics of a traced session.
//!
//! Wall-clock figures come from the server's own `slamshare_obs` spans
//! (exact durations, read once at the end of the session) or from the
//! benchmark's own timed calls into layer entry points. Histograms the
//! server fills with device-modeled times, and memory figures estimated
//! from `approx_bytes`, appear only under `*.modeled` names.

use crate::inputs::{ClientInput, Drive, Workload};
use crate::session::SessionOut;
use crate::stats::{covered, mean, percentile};
use slamshare_core::server::EdgeServer;
use slamshare_net::codec::VideoDecoder;
use slamshare_slam::tracking::Tracker;
use std::collections::BTreeMap;
use std::time::Instant;

/// Every per-layer metric: name, unit, and the end-to-end metric and
/// workload a change in this layer should move.
pub const LAYER_METRICS: [(&str, &str, &str); 46] = [
    (
        "server.track_stage_ms_p50",
        "ms",
        "frame_latency_* on every workload",
    ),
    (
        "server.track_stage_ms_p95",
        "ms",
        "frame_latency_* on every workload",
    ),
    (
        "server.commit_stage_ms_p50",
        "ms",
        "frame_latency_* on every workload",
    ),
    (
        "server.commit_stage_ms_p95",
        "ms",
        "frame_latency_* on every workload",
    ),
    (
        "server.unattributed_frac",
        "fraction",
        "none: shows whether the stages add up to the round",
    ),
    (
        "codec.decode_ms_p50",
        "ms",
        "none predicted: decode is <1% of a frame",
    ),
    ("codec.payload_kb_per_frame", "kB", "none predicted"),
    (
        "ingest.decode_errors",
        "count",
        "delivered_frac on every workload",
    ),
    (
        "features.extract_ms_p50",
        "ms",
        "frame_latency_p50_ms on solo; throughput_fps, cpu_ms_per_frame on hall3",
    ),
    (
        "features.extract_ms_p95",
        "ms",
        "frame_latency_p50_ms on solo; throughput_fps, cpu_ms_per_frame on hall3",
    ),
    (
        "features.stereo_match_ms_p50",
        "ms",
        "frame_latency_p50_ms on solo; throughput_fps, cpu_ms_per_frame on hall3",
    ),
    (
        "features.keypoints_per_image",
        "count",
        "context for features.*",
    ),
    (
        "tracking.track_calls_per_frame",
        "ratio",
        "frame_latency_p90_ms, throughput_fps on hall3; none on solo",
    ),
    (
        "tracking.optimize_ms_p50",
        "ms",
        "frame_latency_p90_ms, throughput_fps on hall3",
    ),
    (
        "tracking.matches_per_frame",
        "count",
        "delivered_frac on every workload (tracking quality)",
    ),
    (
        "gmap.lock_wait_ms_p95",
        "ms",
        "frame_latency_p90_ms on hall3_open; little on hall3",
    ),
    (
        "gmap.lock_hold_ms_p50",
        "ms",
        "frame_latency_p90_ms on hall3_open",
    ),
    (
        "gmap.lock_hold_ms_p95",
        "ms",
        "frame_latency_p90_ms on hall3_open",
    ),
    (
        "gmap.read_locks_per_frame",
        "count",
        "frame_latency_p90_ms on hall3_open",
    ),
    (
        "gmap.write_locks_per_frame",
        "count",
        "frame_latency_p90_ms on hall3_open",
    ),
    (
        "gmap.lock_wait_total_ms",
        "ms",
        "frame_latency_p90_ms on hall3_open",
    ),
    (
        "gmap.keyframes_end",
        "count",
        "heap_peak_mb on every workload",
    ),
    ("gmap.points_end", "count", "heap_peak_mb on every workload"),
    (
        "mapping.keyframes_inserted",
        "count",
        "frame_latency_p90_ms on hall3 and solo",
    ),
    (
        "mapping.commit_ms_p50",
        "ms",
        "frame_latency_p90_ms on hall3 and solo",
    ),
    (
        "mapping.commit_ms_p95",
        "ms",
        "frame_latency_p90_ms on hall3 and solo",
    ),
    (
        "mapping.ba_ms_p50",
        "ms",
        "frame_latency_p90_ms on hall3 and solo",
    ),
    (
        "merge.latency_ms_p50",
        "ms",
        "frame_latency_p90_ms on hall3_open",
    ),
    (
        "merge.latency_ms_max",
        "ms",
        "frame_latency_p90_ms on hall3_open",
    ),
    ("merge.count", "count", "sample count of merge.latency_*"),
    (
        "merge.applied_frac",
        "fraction",
        "frame_latency_p90_ms on hall3_open",
    ),
    (
        "merge.conflicts",
        "count",
        "frame_latency_p90_ms on hall3_open",
    ),
    (
        "qos.queue_wait_ms_p50",
        "ms",
        "frame_latency_* and delivered_frac on hall3_open",
    ),
    (
        "qos.queue_wait_ms_p90",
        "ms",
        "frame_latency_* and delivered_frac on hall3_open",
    ),
    ("qos.frames_shed", "count", "delivered_frac on hall3_open"),
    ("qos.depth_max", "count", "frame_latency_* on hall3_open"),
    ("lifecycle.prune_ms_p50", "ms", "heap_peak_mb on hall3_open"),
    (
        "lifecycle.points_pruned",
        "count",
        "heap_peak_mb on hall3_open",
    ),
    ("lifecycle.evictions", "count", "heap_peak_mb on hall3_open"),
    (
        "gpu.slice_wait_ms_p95",
        "ms",
        "frame_latency_p90_ms on every workload",
    ),
    (
        "loadgen.late_ms_p99",
        "ms",
        "harness diagnostic: offers on schedule",
    ),
    (
        "trace.overhead_frac",
        "fraction",
        "harness diagnostic: traced/untraced frame_latency_p50_ms - 1",
    ),
    (
        "track.extract_ms_p50.modeled",
        "ms",
        "modeled device time, never bounded",
    ),
    (
        "track.stereo_match_ms_p50.modeled",
        "ms",
        "modeled device time, never bounded",
    ),
    (
        "track.search_local_points_ms_p50.modeled",
        "ms",
        "modeled device time, never bounded",
    ),
    (
        "gmap.arena_used_mb.modeled",
        "MB",
        "approx_bytes estimate, never bounded",
    ),
];

/// Layers a workload does not exercise; their metrics read 0.
pub fn absent_layers(w: &Workload) -> &'static [&'static str] {
    match w.drive {
        Drive::Closed => &["qos", "loadgen", "lifecycle", "merge_worker"],
        Drive::Open { .. } => &[],
    }
}

/// A measured value and the number of samples it rests on.
pub type Layer = BTreeMap<&'static str, (f64, usize)>;

/// Wall-clock feature-layer timings from the benchmark's own calls.
#[derive(Default)]
pub struct FeatureTimes {
    pub extract_ms: Vec<f64>,
    pub stereo_ms: Vec<f64>,
    pub keypoints: Vec<f64>,
}

/// Frames of one client the feature layer is timed on.
const FEATURE_SAMPLES: usize = 30;

/// Time `Tracker::extract` (both eyes) and `Tracker::stereo_match` on the
/// decoded frames of `input`, with the client's executor from the
/// server's shared GPU — the same calls the tracking stage makes.
pub fn time_features(server: &EdgeServer, input: &ClientInput) -> FeatureTimes {
    let mut t = FeatureTimes::default();
    let Some(exec) = server.gpu.executor(input.spec.id as u32) else {
        return t;
    };
    let tracker = Tracker::new(server.config.slam.tracker.clone(), exec);
    let (mut dec_l, mut dec_r) = (VideoDecoder::new(), VideoDecoder::new());
    let stride = input.frames().div_ceil(FEATURE_SAMPLES).max(1);
    for k in 0..input.frames() {
        // Every frame decodes: P-frames need their reference.
        let (Ok((left, _)), Ok((right, _))) =
            (dec_l.decode(&input.left[k]), dec_r.decode(&input.right[k]))
        else {
            return t;
        };
        if !k.is_multiple_of(stride) {
            continue;
        }
        let t0 = Instant::now();
        let (mut fl, _) = tracker.extract(&left);
        let t1 = Instant::now();
        let (fr, _) = tracker.extract(&right);
        let t2 = Instant::now();
        tracker.stereo_match(&mut fl, &fr);
        let t3 = Instant::now();
        t.extract_ms.push((t1 - t0).as_secs_f64() * 1e3);
        t.extract_ms.push((t2 - t1).as_secs_f64() * 1e3);
        t.stereo_ms.push((t3 - t2).as_secs_f64() * 1e3);
        t.keypoints.push(fl.len() as f64);
        t.keypoints.push(fr.len() as f64);
    }
    t
}

/// Durations, ms, of the kept spans named `name`.
fn span_ms(out: &SessionOut, name: &str) -> Vec<f64> {
    out.spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_us as f64 / 1e3)
        .collect()
}

/// Share of round wall time no decode, track or commit span covers.
pub fn unattributed_frac(out: &SessionOut) -> f64 {
    let stages: Vec<(u64, u64)> = out
        .spans
        .iter()
        .filter(|s| {
            matches!(
                s.name.as_str(),
                "round.decode" | "round.track" | "round.commit"
            )
        })
        .map(|s| (s.start_us, s.start_us + s.dur_us))
        .collect();
    let (mut total, mut cov) = (0u64, 0u64);
    for &round in &out.rounds {
        total += round.1 - round.0;
        cov += covered(round, &stages);
    }
    if total == 0 {
        0.0
    } else {
        1.0 - cov as f64 / total as f64
    }
}

/// Every per-layer metric of one traced session of `w` on `server`.
pub fn layers(
    w: &Workload,
    inputs: &[ClientInput],
    server: &EdgeServer,
    out: &SessionOut,
    features: &FeatureTimes,
) -> Layer {
    let mut m = Layer::new();
    let obs = out.obs.clone().unwrap_or_default();
    let hist = |name: &str| obs.hist(name).cloned().unwrap_or_default();
    let delivered = out.delivered().max(1);
    let offered = out.offered.max(1);
    let mut pct = |name: &'static str, samples: &[f64], q: f64| {
        let p = percentile(samples, q);
        m.insert(name, (p.value, p.n));
    };

    let track = span_ms(out, "round.track");
    pct("server.track_stage_ms_p50", &track, 0.5);
    pct("server.track_stage_ms_p95", &track, 0.95);
    let commit = span_ms(out, "round.commit");
    pct("server.commit_stage_ms_p50", &commit, 0.5);
    pct("server.commit_stage_ms_p95", &commit, 0.95);
    pct("codec.decode_ms_p50", &span_ms(out, "round.decode"), 0.5);
    pct("features.extract_ms_p50", &features.extract_ms, 0.5);
    pct("features.extract_ms_p95", &features.extract_ms, 0.95);
    pct("features.stereo_match_ms_p50", &features.stereo_ms, 0.5);
    let wait = span_ms(out, "gmap.region_lock_wait");
    pct("gmap.lock_wait_ms_p95", &wait, 0.95);
    let hold = span_ms(out, "gmap.region_lock_hold");
    pct("gmap.lock_hold_ms_p50", &hold, 0.5);
    pct("gmap.lock_hold_ms_p95", &hold, 0.95);
    let commit_ms: Vec<f64> = out.frames.iter().map(|f| f.mapping_ms).collect();
    pct("mapping.commit_ms_p50", &commit_ms, 0.5);
    pct("mapping.commit_ms_p95", &commit_ms, 0.95);
    let merge_ms: Vec<f64> = out.frames.iter().filter_map(|f| f.merge_ms).collect();
    pct("merge.latency_ms_p50", &merge_ms, 0.5);
    pct("merge.latency_ms_max", &merge_ms, 1.0);
    if matches!(w.drive, Drive::Open { .. }) {
        let qwait: Vec<f64> = out.frames.iter().map(|f| f.queue_wait_ms).collect();
        pct("qos.queue_wait_ms_p50", &qwait, 0.5);
        pct("qos.queue_wait_ms_p90", &qwait, 0.9);
        pct("loadgen.late_ms_p99", &out.late_ms, 0.99);
    }
    pct(
        "lifecycle.prune_ms_p50",
        &span_ms(out, "lifecycle.prune"),
        0.5,
    );

    let frames = out.frames.len();
    m.insert(
        "server.unattributed_frac",
        (unattributed_frac(out), out.rounds.len()),
    );
    let bytes: usize = inputs.iter().map(ClientInput::payload_bytes).sum();
    let sent: usize = inputs.iter().map(ClientInput::frames).sum();
    m.insert(
        "codec.payload_kb_per_frame",
        (bytes as f64 / sent.max(1) as f64 / 1e3, sent),
    );
    let metrics = server.metrics();
    m.insert(
        "ingest.decode_errors",
        (metrics.total_decode_errors() as f64, frames),
    );
    m.insert(
        "features.keypoints_per_image",
        (mean(&features.keypoints), features.keypoints.len()),
    );

    let opt = hist("track.optimize");
    m.insert(
        "tracking.track_calls_per_frame",
        (opt.count as f64 / delivered as f64, delivered),
    );
    m.insert("tracking.optimize_ms_p50", (opt.p50_ms, opt.count as usize));
    let matches: Vec<f64> = out
        .frames
        .iter()
        .filter(|f| f.pose.is_some())
        .map(|f| f.n_matches as f64)
        .collect();
    m.insert(
        "tracking.matches_per_frame",
        (mean(&matches), matches.len()),
    );

    let locks = server.store.lock_stats();
    m.insert(
        "gmap.read_locks_per_frame",
        (locks.read_acquisitions as f64 / offered as f64, offered),
    );
    m.insert(
        "gmap.write_locks_per_frame",
        (locks.write_acquisitions as f64 / offered as f64, offered),
    );
    m.insert(
        "gmap.lock_wait_total_ms",
        (locks.wait_ns as f64 / 1e6, offered),
    );
    let (kfs, points, _) = server.global_map_stats();
    m.insert("gmap.keyframes_end", (kfs as f64, 1));
    m.insert("gmap.points_end", (points as f64, 1));

    m.insert(
        "mapping.keyframes_inserted",
        (obs.counter("mapping.keyframes_inserted") as f64, 1),
    );
    let ba = hist("ba.total");
    m.insert("mapping.ba_ms_p50", (ba.p50_ms, ba.count as usize));

    m.insert("merge.count", (merge_ms.len() as f64, merge_ms.len()));
    if let Some(mw) = server.merge_worker_stats() {
        let frac = mw.applied as f64 / mw.submitted.max(1) as f64;
        m.insert("merge.applied_frac", (frac, mw.submitted as usize));
        m.insert(
            "merge.conflicts",
            (mw.conflicts as f64, mw.submitted as usize),
        );
    }
    if matches!(w.drive, Drive::Open { .. }) {
        m.insert("qos.frames_shed", (out.shed as f64, out.offered));
        m.insert("qos.depth_max", (out.depth_max as f64, out.rounds.len()));
    }
    if let Some(lc) = server.lifecycle_report() {
        m.insert(
            "lifecycle.points_pruned",
            (lc.pruned_points as f64, lc.ticks as usize),
        );
        m.insert(
            "lifecycle.evictions",
            (lc.evicted_regions as f64, lc.ticks as usize),
        );
    }
    let slice = hist("gpu.slice_wait");
    m.insert(
        "gpu.slice_wait_ms_p95",
        (slice.p95_ms, slice.count as usize),
    );

    for (name, key) in [
        ("track.extract_ms_p50.modeled", "track.extract"),
        ("track.stereo_match_ms_p50.modeled", "track.stereo_match"),
        (
            "track.search_local_points_ms_p50.modeled",
            "track.search_local_points",
        ),
    ] {
        let h = hist(key);
        m.insert(name, (h.p50_ms, h.count as usize));
    }
    let (arena_used, _, _) = server.store.arena_stats();
    m.insert("gmap.arena_used_mb.modeled", (arena_used as f64 / 1e6, 1));
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use slamshare_obs::SpanEvent;

    fn span(name: &str, start_us: u64, dur_us: u64) -> SpanEvent {
        SpanEvent {
            thread: 0,
            name: name.to_string(),
            depth: 0,
            start_us,
            dur_us,
        }
    }

    #[test]
    fn unattributed_is_round_time_outside_every_stage_span() {
        let out = SessionOut {
            rounds: vec![(0, 100), (200, 300)],
            spans: vec![
                // Round 1: decode 0–10, two parallel tracks 10–60 and
                // 20–70, commit 70–90 → 90 of 100 covered.
                span("round.decode", 0, 10),
                span("round.track", 10, 50),
                span("round.track", 20, 50),
                span("round.commit", 70, 20),
                // Nested lock spans are not stages and add nothing.
                span("gmap.region_lock_hold", 90, 10),
                // Round 2: a commit that overruns the round end is
                // clipped → 50 of 100 covered.
                span("round.commit", 250, 100),
            ],
            ..SessionOut::default()
        };
        let frac = unattributed_frac(&out);
        assert!((frac - (10.0 + 50.0) / 200.0).abs() < 1e-12, "{frac}");
        assert_eq!(unattributed_frac(&SessionOut::default()), 0.0);
    }

    #[test]
    fn layer_table_names_are_unique_and_valid() {
        let mut names: Vec<&str> = LAYER_METRICS.iter().map(|m| m.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), LAYER_METRICS.len());
        for n in names {
            assert!(n.len() <= 64);
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }
}
