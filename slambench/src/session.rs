//! Setting up an edge server and driving one session of a workload
//! through its public API, closed or open loop.

use crate::alloc::HEAP;
use crate::host::process_cpu_s;
use crate::inputs::{ClientInput, Drive, Workload};
use slamshare_core::lifecycle::LifecycleConfig;
use slamshare_core::qos::QueuedFrame;
use slamshare_core::server::{ClientFrame, EdgeServer, ServerConfig, ServerFrameResult};
use slamshare_math::SE3;
use slamshare_sim::clock::SimTime;
use slamshare_slam::{eval, vocabulary};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Frame rate of the session clock the server's timestamps follow.
const SESSION_FPS: f64 = 30.0;
/// Open loop: a maintenance pass every this many rounds.
const MAINTENANCE_EVERY_ROUNDS: usize = 30;

/// Vocabulary, `EdgeServer::new` and client registration — the set-up a
/// deployment pays before the first frame. Returns the server and the
/// seconds it took.
pub fn setup(w: &Workload, inputs: &[ClientInput]) -> (EdgeServer, f64) {
    let t0 = Instant::now();
    let vocab = Arc::new(vocabulary::train_random(42));
    let mut config = ServerConfig::stereo_default(inputs[0].dataset.rig);
    if w.async_maintenance {
        config.async_merge = true;
        config.lifecycle = Some(LifecycleConfig::default());
    }
    let mut server = EdgeServer::new(config, vocab);
    for c in inputs {
        server.register_client(c.spec.id);
    }
    (server, t0.elapsed().as_secs_f64())
}

/// What the server returned for one offered frame.
#[derive(Debug, Clone)]
pub struct FrameRec {
    /// Index of the client in the workload.
    pub client: usize,
    /// Frame index within the client's stream.
    pub k: usize,
    pub pose: Option<SE3>,
    pub tracked: bool,
    pub merged: bool,
    pub n_matches: usize,
    pub mapping_ms: f64,
    pub merge_ms: Option<f64>,
    /// Closed loop: wall time of the round that returned the pose. Open
    /// loop: from the frame's due time to the return of its round.
    pub latency_ms: f64,
    /// Open loop: from the due time to the start of the round that
    /// popped the frame (0 in closed loop).
    pub queue_wait_ms: f64,
}

impl FrameRec {
    fn hash_into(&self, h: &mut Fnv) {
        h.write(&(self.client as u64).to_le_bytes());
        h.write(&(self.k as u64).to_le_bytes());
        h.write(&[self.tracked as u8, self.merged as u8]);
        if let Some(p) = self.pose {
            for v in [
                p.rot.w, p.rot.x, p.rot.y, p.rot.z, p.trans.x, p.trans.y, p.trans.z,
            ] {
                h.write(&v.to_bits().to_le_bytes());
            }
        }
    }

    fn new(client: usize, res: &ServerFrameResult, latency_ms: f64, queue_wait_ms: f64) -> Self {
        FrameRec {
            client,
            k: res.frame_idx,
            pose: res.pose,
            tracked: res.tracked,
            merged: res.merged,
            n_matches: res.n_matches,
            mapping_ms: res.mapping_ms,
            merge_ms: res.merge.as_ref().map(|m| m.merge_ms),
            latency_ms,
            queue_wait_ms,
        }
    }
}

/// Span names the per-layer report reads.
const KEPT_SPANS: [&str; 6] = [
    "round.decode",
    "round.track",
    "round.commit",
    "gmap.region_lock_wait",
    "gmap.region_lock_hold",
    "lifecycle.prune",
];

#[derive(Default)]
pub struct SessionOut {
    pub frames: Vec<FrameRec>,
    pub offered: usize,
    /// Frames the staging queues evicted (open loop).
    pub shed: usize,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Peak live heap above the level at session start, bytes.
    pub heap_peak_bytes: usize,
    /// `(start, end)` of every round, µs on the `slamshare_obs` clock.
    pub rounds: Vec<(u64, u64)>,
    /// Open loop: how late each offer landed after its due time, ms.
    pub late_ms: Vec<f64>,
    /// Open loop: deepest staging queue seen before a round.
    pub depth_max: usize,
    pub merged_all: bool,
    /// Traced sessions: the spans of [`KEPT_SPANS`] and the final
    /// histogram/counter state.
    pub spans: Vec<slamshare_obs::SpanEvent>,
    pub obs: Option<slamshare_obs::ObsSnapshot>,
    /// A span ring filled up during the traced session.
    pub span_ring_full: bool,
}

impl SessionOut {
    pub fn delivered(&self) -> usize {
        self.frames.iter().filter(|f| f.pose.is_some()).count()
    }

    pub fn failed(&self) -> usize {
        self.offered - self.delivered()
    }

    pub fn latencies(&self) -> Vec<f64> {
        self.frames.iter().map(|f| f.latency_ms).collect()
    }

    /// Mean over clients of the SE(3) ATE of the merged (global-frame)
    /// poses against ground truth; `None` when a client has too few.
    pub fn ate_rmse_m(&self, inputs: &[ClientInput]) -> Option<f64> {
        let mut sum = 0.0;
        for (i, c) in inputs.iter().enumerate() {
            let est: Vec<_> = self
                .frames
                .iter()
                .filter(|f| f.client == i && f.merged)
                .filter_map(|f| f.pose.map(|p| (c.time(f.k), p.camera_center())))
                .collect();
            let gt: Vec<_> = (0..c.frames())
                .map(|k| (c.time(k), c.gt_position(k)))
                .collect();
            sum += eval::ate(&est, &gt, false, 1e-4)?.rmse;
        }
        Some(sum / inputs.len() as f64)
    }

    /// FNV-1a digest of every returned pose in return order.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for f in &self.frames {
            f.hash_into(&mut h);
        }
        h.0
    }

    /// `(client index, frame)` of the first returned result that differs
    /// from `other`'s, in return order.
    pub fn first_difference(&self, other: &SessionOut) -> Option<(usize, usize)> {
        let one = |f: &FrameRec| {
            let mut h = Fnv::default();
            f.hash_into(&mut h);
            h.0
        };
        self.frames
            .iter()
            .zip(&other.frames)
            .find(|(a, b)| one(a) != one(b))
            .map(|(a, _)| (a.client, a.k))
    }
}

/// 64-bit FNV-1a.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Starts span recording for a traced session.
fn trace_begin(traced: bool) {
    if traced {
        slamshare_obs::reset();
        slamshare_obs::set_enabled(true);
    }
}

/// Ends a traced session: keeps the spans of [`KEPT_SPANS`] and the final
/// histogram/counter state. Span rings keep the newest
/// [`slamshare_obs::RING_CAPACITY`] spans per thread, so a thread whose
/// ring is full may have lost older spans; that is flagged.
fn trace_end(out: &mut SessionOut) {
    let mut snap = slamshare_obs::snapshot();
    slamshare_obs::set_enabled(false);
    let mut per_thread: BTreeMap<usize, usize> = BTreeMap::new();
    for s in &snap.spans {
        *per_thread.entry(s.thread).or_default() += 1;
    }
    out.span_ring_full = per_thread
        .values()
        .any(|&n| n >= slamshare_obs::RING_CAPACITY);
    out.spans = snap
        .spans
        .drain(..)
        .filter(|s| KEPT_SPANS.contains(&s.name.as_str()))
        .collect();
    out.obs = Some(snap);
}

fn now_us() -> u64 {
    slamshare_obs::now_ns() / 1_000
}

/// Run one session of `w` on a freshly set-up `server`.
pub fn run(w: &Workload, inputs: &[ClientInput], server: &EdgeServer, traced: bool) -> SessionOut {
    trace_begin(traced);
    let cpu0 = process_cpu_s();
    let heap0 = HEAP.rebase();
    let mut out = match w.drive {
        Drive::Closed => closed_loop(inputs, server),
        Drive::Open { fps } => open_loop(inputs, server, fps),
    };
    server.wait_merge_idle();
    out.cpu_s = process_cpu_s() - cpu0;
    out.heap_peak_bytes = HEAP.peak().saturating_sub(heap0);
    out.merged_all = inputs.iter().all(|c| server.is_merged(c.spec.id));
    if traced {
        trace_end(&mut out);
    }
    out
}

fn closed_loop(inputs: &[ClientInput], server: &EdgeServer) -> SessionOut {
    let rounds = inputs.iter().map(ClientInput::frames).max().unwrap_or(0);
    let mut out = SessionOut {
        offered: inputs.iter().map(ClientInput::frames).sum(),
        ..SessionOut::default()
    };
    let t_start = Instant::now();
    for r in 0..rounds {
        let active: Vec<usize> = (0..inputs.len())
            .filter(|&i| r < inputs[i].frames())
            .collect();
        let frames: Vec<ClientFrame> = active
            .iter()
            .map(|&i| {
                let c = &inputs[i];
                ClientFrame {
                    client: c.spec.id,
                    frame_idx: r,
                    timestamp: r as f64 / SESSION_FPS,
                    left: &c.left[r],
                    right: Some(&c.right[r]),
                    imu: &c.imu[r],
                    pose_hint: c.pose_hint(r),
                }
            })
            .collect();
        let s_us = now_us();
        let t0 = Instant::now();
        let results = server.process_round(&frames);
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        out.rounds.push((s_us, now_us()));
        for (&i, res) in active.iter().zip(&results) {
            out.frames.push(FrameRec::new(i, res, latency_ms, 0.0));
        }
    }
    out.wall_s = t_start.elapsed().as_secs_f64();
    out
}

/// Offset of client `i`'s `k`-th frame from the session start, seconds:
/// every client offers at `fps`, phases staggered evenly across clients.
pub fn due_offset_s(i: usize, k: usize, n_clients: usize, fps: f64) -> f64 {
    i as f64 / (fps * n_clients as f64) + k as f64 / fps
}

/// Open-loop latency of a frame: from its due time (not from when the
/// offer landed) to the end of the round that carried it, so a stall
/// shows as queueing on every later frame.
pub fn open_latency_ms(due: Instant, round_end: Instant) -> f64 {
    round_end.saturating_duration_since(due).as_secs_f64() * 1e3
}

fn open_loop(inputs: &[ClientInput], server: &EdgeServer, fps: f64) -> SessionOut {
    let n = inputs.len();
    let total: usize = inputs.iter().map(ClientInput::frames).sum();
    let mut out = SessionOut {
        offered: total,
        ..SessionOut::default()
    };
    let offered: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
    let shed: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
    let late = Mutex::new(Vec::with_capacity(total));
    let t_base = Instant::now() + Duration::from_millis(20);
    let due = |i: usize, k: usize| t_base + Duration::from_secs_f64(due_offset_s(i, k, n, fps));
    let server_thread = std::thread::current();

    std::thread::scope(|s| {
        // One device thread per client: an offer blocked behind its own
        // client's in-flight frame never delays another client's.
        for (i, c) in inputs.iter().enumerate() {
            let (offered, shed, late, due, wake) =
                (&offered[i], &shed[i], &late, &due, server_thread.clone());
            s.spawn(move || {
                for k in 0..c.frames() {
                    let at = due(i, k);
                    if let Some(wait) = at.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let frame = QueuedFrame {
                        frame_idx: k,
                        timestamp: due_offset_s(i, k, n, fps),
                        left: c.left[k].clone(),
                        right: Some(c.right[k].clone()),
                        imu: c.imu[k].clone(),
                        pose_hint: c.pose_hint(k),
                        captured_at: SimTime::from_secs(due_offset_s(i, k, n, fps)),
                        follows_gap: false,
                    };
                    let evicted = server
                        .offer_frame(c.spec.id, frame)
                        .expect("client registered at set-up");
                    late.lock()
                        .unwrap()
                        .push(open_latency_ms(at, Instant::now()));
                    if evicted.is_some() {
                        shed.fetch_add(1, Ordering::Release);
                    }
                    offered.fetch_add(1, Ordering::Release);
                    wake.unpark();
                }
            });
        }

        // The server loop: a round whenever something is staged.
        let mut processed = vec![0usize; n];
        let mut rounds = 0usize;
        loop {
            let staged: Vec<usize> = (0..n)
                .map(|i| {
                    let off = offered[i].load(Ordering::Acquire);
                    off.saturating_sub(shed[i].load(Ordering::Acquire) + processed[i])
                })
                .collect();
            let done: usize = processed.iter().sum::<usize>()
                + shed
                    .iter()
                    .map(|s| s.load(Ordering::Acquire))
                    .sum::<usize>();
            if done >= total {
                break;
            }
            if staged.iter().all(|&d| d == 0) {
                std::thread::park_timeout(Duration::from_micros(500));
                continue;
            }
            out.depth_max = out.depth_max.max(staged.iter().copied().max().unwrap_or(0));
            let s_us = now_us();
            let start = Instant::now();
            let results = server.process_queued_round();
            let end = Instant::now();
            if results.is_empty() {
                continue;
            }
            out.rounds.push((s_us, now_us()));
            for (id, res) in &results {
                let i = inputs
                    .iter()
                    .position(|c| c.spec.id == *id)
                    .expect("result for a workload client");
                let at = due(i, res.frame_idx);
                let wait = open_latency_ms(at, start);
                out.frames
                    .push(FrameRec::new(i, res, open_latency_ms(at, end), wait));
                processed[i] += 1;
            }
            rounds += 1;
            if rounds.is_multiple_of(MAINTENANCE_EVERY_ROUNDS) {
                server.run_maintenance(processed.iter().sum::<usize>() as u64);
            }
        }
        out.wall_s = Instant::now()
            .saturating_duration_since(t_base)
            .as_secs_f64();
    });
    out.shed = shed.iter().map(|s| s.load(Ordering::Acquire)).sum();
    out.late_ms = late.into_inner().unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_offers_are_staggered_across_clients() {
        // Three clients at 4 fps: one offer every 1/12 s, round-robin.
        let mut dues: Vec<f64> = (0..3)
            .flat_map(|i| (0..4).map(move |k| due_offset_s(i, k, 3, 4.0)))
            .collect();
        dues.sort_by(f64::total_cmp);
        for (j, d) in dues.iter().enumerate() {
            assert!((d - j as f64 / 12.0).abs() < 1e-12, "{j}: {d}");
        }
    }

    #[test]
    fn open_latency_counts_from_due_time_not_from_the_offer() {
        // However late the offer landed, the frame waited from its due
        // time: a round ending 100 ms after it reads 100 ms.
        let due = Instant::now();
        let end = due + Duration::from_millis(100);
        assert!((open_latency_ms(due, end) - 100.0).abs() < 1e-9);
        // A round ending before the due time (never in practice) is 0,
        // not negative.
        assert_eq!(open_latency_ms(end, due), 0.0);
    }

    /// A small real workload: `name` cut to `frames` frames per client.
    fn small(name: &str, frames: usize, drive: Drive) -> (Workload, Vec<ClientInput>) {
        let mut w = crate::inputs::workload(name, 0).unwrap();
        w.drive = drive;
        for c in &mut w.clients {
            c.frames = frames;
            c.start_frame = c.start_frame.min(frames);
        }
        let cache = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".cache");
        let inputs = crate::inputs::build(&w, 0, &cache, 0);
        (w, inputs)
    }

    #[test]
    fn open_loop_overload_shows_as_queueing_from_due_time() {
        // Three clients at 60 fps each offer far more than the server
        // serves: frames queue, and the wait counts from their due time.
        let (w, inputs) = small("hall3_open", 6, Drive::Open { fps: 60.0 });
        let (server, _) = setup(&w, &inputs);
        let out = run(&w, &inputs, &server, false);
        assert_eq!(out.frames.len() + out.shed, out.offered);
        for f in &out.frames {
            assert!(f.latency_ms >= f.queue_wait_ms && f.queue_wait_ms >= 0.0);
        }
        let worst = out
            .frames
            .iter()
            .map(|f| f.queue_wait_ms)
            .fold(0.0, f64::max);
        assert!(worst > 50.0, "no queueing under overload: {worst} ms");
    }

    #[test]
    fn closed_loop_sessions_repeat_their_pose_digest() {
        let (w, inputs) = small("hall3", 8, Drive::Closed);
        let digests: Vec<u64> = (0..2)
            .map(|_| {
                let (server, _) = setup(&w, &inputs);
                let out = run(&w, &inputs, &server, false);
                assert_eq!(out.frames.len(), out.offered);
                out.digest()
            })
            .collect();
        assert_eq!(digests[0], digests[1]);
    }

    #[test]
    fn digest_depends_on_every_pose_bit_and_locates_the_difference() {
        let rec = |k: usize, x: f64| FrameRec {
            client: 1,
            k,
            pose: Some(SE3 {
                trans: slamshare_math::Vec3::new(x, 0.0, 0.0),
                ..SE3::IDENTITY
            }),
            tracked: true,
            merged: true,
            n_matches: 0,
            mapping_ms: 0.0,
            merge_ms: None,
            latency_ms: 0.0,
            queue_wait_ms: 0.0,
        };
        let session = |x: f64| SessionOut {
            frames: vec![rec(0, 1.0), rec(1, x)],
            ..SessionOut::default()
        };
        let nudged = f64::from_bits(1.0f64.to_bits() + 1);
        assert_eq!(session(1.0).digest(), session(1.0).digest());
        assert_ne!(session(1.0).digest(), session(nudged).digest());
        assert_eq!(session(1.0).first_difference(&session(1.0)), None);
        assert_eq!(
            session(1.0).first_difference(&session(nudged)),
            Some((1, 1))
        );
    }
}
