//! Workload definitions and their inputs: synthetic stereo frames rendered
//! and video-encoded from the workload seed, before any clock starts.
//!
//! The server only ever sees the encoded payloads, as it would from a real
//! device. Rendering costs tens of milliseconds per stereo frame, so the
//! payloads are cached on disk keyed by workload, seed, length and build.

use slamshare_math::{Vec3, SE3};
use slamshare_net::codec::VideoEncoder;
use slamshare_sim::dataset::{Dataset, DatasetConfig, TracePreset};
use slamshare_sim::imu::ImuSample;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// How frames reach the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Drive {
    /// One `process_round` per round carrying every active client's frame;
    /// the next round starts when the poses are back.
    Closed,
    /// Each client offers frames at `fps` through `offer_frame`, never
    /// waiting for a pose; a server loop drains the staging queues.
    Open { fps: f64 },
}

/// One simulated AR device.
#[derive(Debug, Clone)]
pub struct ClientSpec {
    pub id: u16,
    pub preset: TracePreset,
    /// Sensor-noise seed (the hall geometry is shared by every client).
    pub seed: u64,
    /// First dataset frame the client plays.
    pub start_frame: usize,
    pub frames: usize,
    /// Gauge fixing: the first frame is anchored at ground truth.
    pub anchor: bool,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub drive: Drive,
    pub clients: Vec<ClientSpec>,
    /// Open loop only: background merges and map lifecycle maintenance.
    pub async_maintenance: bool,
}

/// Frames `solo` plays.
pub const SOLO_FRAMES: usize = 120;
/// Rounds `hall3` plays (every client contributes a frame per round).
pub const HALL_ROUNDS: usize = 50;
/// Frames each `hall3_open` client offers.
pub const OPEN_FRAMES: usize = 45;
/// Per-client offer rate of `hall3_open`.
pub const OPEN_FPS: f64 = 4.0;

pub const WORKLOADS: [&str; 3] = ["solo", "hall3", "hall3_open"];

/// The hall's three clients: MH04 anchored, MH05 alongside, and MH05
/// again starting half a run into its trace. `seed` shifts every
/// client's sensor noise; the hall itself never changes.
fn hall_clients(seed: u64, frames: usize) -> Vec<ClientSpec> {
    let noise = |base: u64| base.wrapping_add(seed.wrapping_mul(1000));
    vec![
        ClientSpec {
            id: 1,
            preset: TracePreset::MH04,
            seed: noise(71),
            start_frame: 0,
            frames,
            anchor: true,
        },
        ClientSpec {
            id: 2,
            preset: TracePreset::MH05,
            seed: noise(72),
            start_frame: 0,
            frames,
            anchor: false,
        },
        ClientSpec {
            id: 3,
            preset: TracePreset::MH05,
            seed: noise(73),
            start_frame: frames / 2,
            frames,
            anchor: false,
        },
    ]
}

pub fn workload(name: &str, seed: u64) -> Option<Workload> {
    let w = match name {
        "solo" => Workload {
            name: "solo",
            drive: Drive::Closed,
            clients: hall_clients(seed, SOLO_FRAMES)
                .into_iter()
                .take(1)
                .collect(),
            async_maintenance: false,
        },
        "hall3" => Workload {
            name: "hall3",
            drive: Drive::Closed,
            clients: hall_clients(seed, HALL_ROUNDS),
            async_maintenance: false,
        },
        "hall3_open" => Workload {
            name: "hall3_open",
            drive: Drive::Open { fps: OPEN_FPS },
            clients: hall_clients(seed, OPEN_FRAMES),
            async_maintenance: true,
        },
        _ => return None,
    };
    Some(w)
}

/// One client's rendered-and-encoded input stream plus its ground truth.
pub struct ClientInput {
    pub spec: ClientSpec,
    pub dataset: Dataset,
    /// Encoded left/right video payloads, one per frame.
    pub left: Vec<Vec<u8>>,
    pub right: Vec<Vec<u8>>,
    /// IMU samples since the previous frame, one slice per frame.
    pub imu: Vec<Vec<ImuSample>>,
}

impl ClientInput {
    pub fn frames(&self) -> usize {
        self.left.len()
    }

    /// Dataset time of the client's `k`-th frame, seconds.
    pub fn time(&self, k: usize) -> f64 {
        self.dataset.frame_time(self.spec.start_frame + k)
    }

    pub fn gt_pose_cw(&self, k: usize) -> SE3 {
        self.dataset.gt_pose_cw(self.spec.start_frame + k)
    }

    pub fn gt_position(&self, k: usize) -> Vec3 {
        self.dataset.gt_position(self.spec.start_frame + k)
    }

    /// The bootstrap anchor sent with frame `k`, if any.
    pub fn pose_hint(&self, k: usize) -> Option<SE3> {
        (self.spec.anchor && k == 0).then(|| self.gt_pose_cw(0))
    }

    pub fn payload_bytes(&self) -> usize {
        self.left.iter().chain(&self.right).map(Vec::len).sum()
    }
}

/// Build every client's inputs, from the cache when it holds them.
pub fn build(w: &Workload, seed: u64, cache_dir: &Path, build_id: u64) -> Vec<ClientInput> {
    let frames: usize = w.clients.iter().map(|c| c.frames).max().unwrap_or(0);
    let path = cache_dir.join(format!(
        "{}-seed{seed}-n{frames}-{build_id:016x}.payloads",
        w.name
    ));
    let datasets: Vec<Dataset> = w
        .clients
        .iter()
        .map(|c| {
            Dataset::build(
                DatasetConfig::new(c.preset)
                    .with_frames(c.start_frame + c.frames)
                    .with_seed(c.seed),
            )
        })
        .collect();
    let cached = read_cache(&path, &w.clients);
    let payloads = match cached {
        Some(p) => p,
        None => {
            let p: Vec<_> = w
                .clients
                .iter()
                .zip(&datasets)
                .map(|(c, d)| render_and_encode(c, d))
                .collect();
            // A cache that cannot be written only costs the next run a
            // re-render.
            prune_cache(cache_dir);
            let _ = write_cache(&path, &p);
            p
        }
    };
    w.clients
        .iter()
        .zip(datasets)
        .zip(payloads)
        .map(|((spec, dataset), (left, right))| {
            let imu = (0..spec.frames)
                .map(|k| {
                    let t1 = dataset.frame_time(spec.start_frame + k);
                    let t0 = if k == 0 {
                        t1
                    } else {
                        dataset.frame_time(spec.start_frame + k - 1)
                    };
                    dataset.imu_between(t0, t1).to_vec()
                })
                .collect();
            ClientInput {
                spec: spec.clone(),
                dataset,
                left,
                right,
                imu,
            }
        })
        .collect()
}

type Payloads = (Vec<Vec<u8>>, Vec<Vec<u8>>);

/// Order-preserving map over `items` on the host's cores.
fn par_map<I: Sync, O: Send>(items: &[I], f: impl Fn(&I) -> O + Sync) -> Vec<O> {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(items.len())
        .max(1);
    let f = &f;
    let mut parts: Vec<Vec<(usize, O)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    (w..items.len())
                        .step_by(workers)
                        .map(|i| (i, f(&items[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("render worker panicked"))
            .collect()
    });
    let mut out: Vec<(usize, O)> = parts.drain(..).flatten().collect();
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, o)| o).collect()
}

/// Render a client's stereo frames in parallel chunks and encode them in
/// order, exactly as the device's two video encoders would.
fn render_and_encode(spec: &ClientSpec, dataset: &Dataset) -> Payloads {
    let mut enc_left = VideoEncoder::default();
    let mut enc_right = VideoEncoder::default();
    let mut left = Vec::with_capacity(spec.frames);
    let mut right = Vec::with_capacity(spec.frames);
    let indices: Vec<usize> = (spec.start_frame..spec.start_frame + spec.frames).collect();
    for chunk in indices.chunks(8) {
        for (l, r) in par_map(chunk, |&i| dataset.render_stereo_frame(i)) {
            left.push(enc_left.encode(&l).data.to_vec());
            right.push(enc_right.encode(&r).data.to_vec());
        }
    }
    (left, right)
}

const MAGIC: &[u8; 8] = b"SLBPAY01";

/// Payload files the cache keeps (about 10 MB each); the least recently
/// written go first, so many distinct seeds cannot fill the disk.
const CACHE_KEEP: usize = 16;

fn prune_cache(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut files: Vec<(std::time::SystemTime, PathBuf)> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "payloads"))
        .filter_map(|p| Some((p.metadata().ok()?.modified().ok()?, p)))
        .collect();
    if files.len() < CACHE_KEEP {
        return;
    }
    files.sort();
    for (_, p) in &files[..=files.len() - CACHE_KEEP] {
        let _ = std::fs::remove_file(p);
    }
}

fn write_cache(path: &PathBuf, payloads: &[Payloads]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&(payloads.len() as u32).to_le_bytes());
    for (left, right) in payloads {
        buf.extend_from_slice(&(left.len() as u32).to_le_bytes());
        for p in left.iter().zip(right).flat_map(|(l, r)| [l, r]) {
            buf.extend_from_slice(&(p.len() as u32).to_le_bytes());
            buf.extend_from_slice(p);
        }
    }
    // Write-then-rename so a concurrent reader never sees half a file.
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    std::fs::File::create(&tmp)?.write_all(&buf)?;
    std::fs::rename(tmp, path)
}

fn read_cache(path: &Path, clients: &[ClientSpec]) -> Option<Vec<Payloads>> {
    let mut buf = Vec::new();
    std::fs::File::open(path).ok()?.read_to_end(&mut buf).ok()?;
    let mut at = 0usize;
    let mut take = |n: usize| -> Option<&[u8]> {
        let s = buf.get(at..at.checked_add(n)?)?;
        at += n;
        Some(s)
    };
    let u32_at = |s: &[u8]| u32::from_le_bytes([s[0], s[1], s[2], s[3]]) as usize;
    if take(8)? != MAGIC || u32_at(take(4)?) != clients.len() {
        return None;
    }
    let mut out = Vec::with_capacity(clients.len());
    for c in clients {
        if u32_at(take(4)?) != c.frames {
            return None;
        }
        let mut left = Vec::with_capacity(c.frames);
        let mut right = Vec::with_capacity(c.frames);
        for _ in 0..c.frames {
            let n = u32_at(take(4)?);
            left.push(take(n)?.to_vec());
            let n = u32_at(take(4)?);
            right.push(take(n)?.to_vec());
        }
        out.push((left, right));
    }
    (at == buf.len()).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_round_trips_and_rejects_a_length_mismatch() {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(".cache")
            .join(format!("test-{}", std::process::id()));
        let path = dir.join("t.payloads");
        let specs = hall_clients(0, 2);
        let payloads: Vec<Payloads> = specs
            .iter()
            .map(|c| {
                let l = (0..c.frames).map(|k| vec![c.id as u8; k + 1]).collect();
                let r = (0..c.frames).map(|k| vec![9; k]).collect();
                (l, r)
            })
            .collect();
        write_cache(&path, &payloads).unwrap();
        assert_eq!(read_cache(&path, &specs), Some(payloads));
        assert_eq!(read_cache(&path, &hall_clients(0, 3)), None);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn prune_keeps_room_for_one_new_file_and_drops_the_oldest() {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(".cache")
            .join(format!("prune-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for i in 0..CACHE_KEEP + 2 {
            std::fs::write(dir.join(format!("{i:03}.payloads")), b"x").unwrap();
            // Distinct modification times, oldest first.
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        std::fs::write(dir.join("keep.digest"), b"x").unwrap();
        prune_cache(&dir);
        let mut left: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        left.sort();
        assert_eq!(left.len(), CACHE_KEEP);
        assert_eq!(left[0], "003.payloads");
        assert_eq!(left.last().unwrap(), "keep.digest");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn seed_moves_noise_but_not_the_session_shape() {
        let a = workload("hall3", 1).unwrap();
        let b = workload("hall3", 2).unwrap();
        assert_ne!(a.clients[0].seed, b.clients[0].seed);
        assert_eq!(workload("hall3", 0).unwrap().clients[0].seed, 71);
        assert_eq!(a.clients[2].start_frame, HALL_ROUNDS / 2);
        assert_eq!(workload("solo", 5).unwrap().clients.len(), 1);
        assert!(workload("nope", 0).is_none());
    }
}
