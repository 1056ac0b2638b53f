//! Statistics, process memory and JSON output.

use std::fmt::Write;

/// Nearest-rank percentile (`q` in `(0, 1]`) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), q) - 1]
}

/// The 1-based nearest rank of quantile `q` among `n` samples.
pub fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The median (the mean of the middle two of an even count); 0 when
/// there are no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (v[(n - 1) / 2] + v[n / 2]) / 2.0
}

/// The highest of p99/p95/p90 with at least ten samples beyond it (p50
/// when even p90 has fewer), as `(quantile, value)`.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let n = samples.len();
    let q = [0.99, 0.95, 0.90]
        .into_iter()
        .find(|&q| n - rank(n, q) >= 10)
        .unwrap_or(0.5);
    (q, percentile(samples, q))
}

/// A field of `/proc/self/status` in kB (`VmRSS`, `VmHWM`); 0 where the
/// file is unavailable.
pub fn proc_status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field) && l[field.len()..].starts_with(':'))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0.0)
}

/// A flat JSON object builder: keys in insertion order.
#[derive(Default)]
pub struct Json(String);

impl Json {
    fn key(&mut self, k: &str) {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        let _ = write!(self.0, "\"{k}\":");
    }

    pub fn num(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.0, "{v}");
        } else {
            self.0.push_str("null");
        }
        self
    }

    pub fn int(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        let _ = write!(self.0, "{v}");
        self
    }

    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        let _ = write!(self.0, "{v}");
        self
    }

    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        let _ = write!(self.0, "{v:?}");
        self
    }

    pub fn raw(mut self, k: &str, v: String) -> Self {
        self.key(k);
        self.0.push_str(&v);
        self
    }

    pub fn finish(mut self) -> String {
        if self.0.is_empty() {
            self.0.push('{');
        }
        self.0.push('}');
        self.0
    }
}

/// A metrics object: `{"name": {"value": v, "unit": u}, ...}`.
#[derive(Default)]
pub struct Metrics(Json);

impl Metrics {
    pub fn add(&mut self, name: &str, value: f64, unit: &str) {
        let m = Json::default()
            .num("value", value)
            .str("unit", unit)
            .finish();
        self.0 = std::mem::take(&mut self.0).raw(name, m);
    }

    pub fn finish(self) -> String {
        self.0.finish()
    }
}
