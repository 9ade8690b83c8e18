//! Output: a human-readable report line (host block, checks, sample
//! counts, layer map) and the final one-line result object.

use crate::host::Host;
use crate::inputs::Workload;
use crate::trace::{self, Layer};
use crate::Metric;

/// A JSON number; non-finite values (never expected) print as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(", "))
}

/// The report line printed before the result: everything a reader needs
/// to interpret the numbers.
pub struct Report {
    fields: Vec<(&'static str, String)>,
}

impl Report {
    pub fn new(w: &Workload, seed: u64, traced: bool, host: &Host) -> Report {
        let clients = w.clients.iter().map(|c| {
            object(&[
                ("id", c.id.to_string()),
                ("trace", string(c.preset.name())),
                ("noise_seed", c.seed.to_string()),
                ("start_frame", c.start_frame.to_string()),
                ("frames", c.frames.to_string()),
            ])
        });
        Report {
            fields: vec![
                ("workload", string(w.name)),
                ("seed", seed.to_string()),
                ("trace", traced.to_string()),
                ("drive", string(&format!("{:?}", w.drive))),
                ("clients", array(clients)),
                (
                    "host",
                    object(&[
                        ("cores", host.cores.to_string()),
                        ("cpu_model", string(&host.cpu_model)),
                        ("rustc", string(host.rustc)),
                    ]),
                ),
            ],
        }
    }

    /// Correctness: check outcomes, pose digests, and the accuracy figures
    /// the checks hold against their limits. ATE varies several-fold
    /// between noise seeds, so it is checked against an absolute limit
    /// and reported here rather than bounded relative to a parent run.
    pub fn checks(
        &mut self,
        correct: bool,
        failures: &[String],
        digests: &[u64],
        failed_frac: f64,
        ates: &[f64],
    ) {
        self.fields.push(("correct", correct.to_string()));
        self.fields
            .push(("check_failures", array(failures.iter().map(|f| string(f)))));
        self.fields.push((
            "pose_digests",
            array(digests.iter().map(|d| string(&format!("{d:016x}")))),
        ));
        self.fields.push(("failed_frac", num(failed_frac)));
        self.fields
            .push(("ate_rmse_m", num(crate::stats::mean(ates))));
        self.fields
            .push(("ate_rmse_m_sessions", array(ates.iter().map(|&a| num(a)))));
    }

    pub fn sessions(&mut self, untraced: usize, traced: usize, setups: &[f64]) {
        self.fields.push((
            "sessions",
            object(&[
                ("untraced", untraced.to_string()),
                ("traced", traced.to_string()),
            ]),
        ));
        self.fields
            .push(("setup_s_samples", array(setups.iter().map(|&s| num(s)))));
    }

    /// `p90_supported`: every session's latency samples leave at least
    /// [`crate::stats::MIN_TAIL_SAMPLES`] beyond its p90.
    pub fn end_to_end(&mut self, metrics: &[Metric], p90_supported: bool) {
        let items = metrics.iter().map(|m| {
            object(&[
                ("name", string(m.name)),
                ("unit", string(m.unit)),
                ("value", num(m.value)),
                ("samples", m.n.to_string()),
            ])
        });
        self.fields.push(("end_to_end", array(items)));
        self.fields
            .push(("p90_tail_supported", p90_supported.to_string()));
    }

    pub fn layers(&mut self, w: &Workload, layer: &Layer, span_ring_full: bool) {
        let items = trace::LAYER_METRICS.iter().map(|&(name, unit, moves)| {
            let (value, n) = layer.get(name).copied().unwrap_or((0.0, 0));
            object(&[
                ("name", string(name)),
                ("unit", string(unit)),
                ("value", num(value)),
                ("samples", n.to_string()),
                ("moves", string(moves)),
            ])
        });
        self.fields.push(("per_layer", array(items)));
        self.fields.push((
            "absent_layers",
            array(trace::absent_layers(w).iter().map(|l| string(l))),
        ));
        // A full ring dropped its oldest spans: span-based figures are
        // then taken over the newest spans only.
        self.fields
            .push(("span_ring_full", span_ring_full.to_string()));
    }

    pub fn print(&self) {
        println!("{}", object(&self.fields));
    }
}

/// The last line of output: `correct`, `attempted`, `failed` and every
/// metric with its unit.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, &str, f64)],
) -> String {
    let metrics: Vec<(&str, String)> = metrics
        .iter()
        .map(|&(name, unit, value)| {
            (
                name,
                object(&[("value", num(value)), ("unit", string(unit))]),
            )
        })
        .collect();
    object(&[
        ("correct", correct.to_string()),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
        ("metrics", object(&metrics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            10,
            1,
            &[("latency_ms", "ms", 1.25), ("x", "s", f64::NAN)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"x\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
