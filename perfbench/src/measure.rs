//! The benchmark's one timing, percentile and JSON-writing helper.
//!
//! Every number the benchmark prints goes through [`Metrics`], every
//! latency distribution through [`Samples`], and every JSON document
//! through [`Json`], so there is exactly one formatting path.

use std::fmt::Write as _;
use std::time::Instant;

/// Seconds elapsed since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Items of `got` that differ from `want` at the same position, plus any
/// missing or extra items.
pub fn mismatches<O: PartialEq>(got: &[O], want: &[O]) -> u64 {
    (got.iter().zip(want).filter(|(g, w)| g != w).count() + got.len().abs_diff(want.len())) as u64
}

/// A set of observations (seconds, milliseconds, rates — any unit).
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Records one observation.
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    /// Appends every observation of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Sum of the observations.
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// The `q`-quantile by linear interpolation between closest ranks
    /// (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        match sorted.len() {
            0 => 0.0,
            1 => sorted[0],
            n => {
                let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
                let lo = rank.floor() as usize;
                let hi = (lo + 1).min(n - 1);
                sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
            }
        }
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A minimal JSON value writer: objects keep insertion order.
#[derive(Debug, Clone)]
pub enum Json {
    /// A number (non-finite values render as `null`).
    Num(f64),
    /// A whole number.
    Int(u64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(String),
    /// An ordered object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Self {
        Json::Obj(Vec::new())
    }

    /// Adds `key: value` to an object (no-op on other variants).
    pub fn with(mut self, key: &str, value: Json) -> Self {
        if let Json::Obj(fields) = &mut self {
            fields.push((key.to_string(), value));
        }
        self
    }

    /// Renders compactly on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    Json::Str(k.clone()).render_into(out);
                    out.push_str(": ");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Named metric values, in the order they were recorded; units live in
/// the metric tables of `main.rs`.
#[derive(Debug, Clone, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Records `name = value`, replacing an earlier value of `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|m| m.1)
    }

    /// The metrics listed in `spec` (name, unit), in `spec` order, as the
    /// `{"name": {"value": v, "unit": u}}` object of the result line; a
    /// metric the run did not record reads 0.
    pub fn select(&self, spec: &[(&str, &str)]) -> Json {
        spec.iter().fold(Json::obj(), |obj, &(name, unit)| {
            obj.with(
                name,
                Json::obj()
                    .with("value", Json::Num(self.get(name).unwrap_or(0.0)))
                    .with("unit", Json::Str(unit.to_string())),
            )
        })
    }

    /// A human-readable `name value unit` table of the metrics in `spec`.
    pub fn table(&self, spec: &[(&str, &str)]) -> String {
        let width = spec.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        spec.iter().fold(String::new(), |mut out, &(name, unit)| {
            let value = self.get(name).unwrap_or(0.0);
            let _ = writeln!(out, "  {name:<width$}  {value:>14.6}  {unit}");
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut s = Samples::default();
        for v in [4.0, 1.0, 3.0, 2.0, 5.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 5.0);
        assert!((s.quantile(0.9) - 4.6).abs() < 1e-12);
        assert_eq!(Samples::default().median(), 0.0);
    }

    #[test]
    fn json_renders_in_order_and_escapes() {
        let j = Json::obj()
            .with("b", Json::Int(2))
            .with("a", Json::Str("x\"y".into()))
            .with("n", Json::Num(f64::NAN));
        assert_eq!(j.render(), r#"{"b": 2, "a": "x\"y", "n": null}"#);
    }
}
