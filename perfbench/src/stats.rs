//! Order statistics and the raw result record that `run.py` reads.

use srclda_serve::server::json::Value;

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Quantile of `xs` at `q ∈ [0, 1]` by `srclda_math::stats::quantile_sorted`
/// (0 for an empty slice, where that returns NaN).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    srclda_math::stats::quantile_sorted(&sorted, q)
}

/// The highest percentile, at most the 99th, that leaves at least ten
/// samples above it; never below the median.
pub fn tail_q(n: usize) -> f64 {
    (1.0 - 10.0 / n.max(1) as f64).clamp(0.5, 0.99)
}

/// A small deterministic generator (SplitMix64) for the benchmark's own
/// choices, kept apart from the program's RNG streams.
pub struct Mix(u64);

impl Mix {
    /// A generator seeded from `seed` and a per-use `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut m = Mix(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        m.next_u64();
        m
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Everything one measuring process reports: named metrics with units and
/// sample counts, metrics it could not measure with the reason, machine
/// facts, and every checked operation.
#[derive(Default)]
pub struct Raw {
    metrics: Vec<(String, f64, String, usize, String)>,
    unmeasured: Vec<(String, String)>,
    info: Vec<(String, Value)>,
    /// Operations attempted (fits, requests, output checks).
    pub attempted: u64,
    failures: Vec<String>,
}

impl Raw {
    /// Record a metric measured from `n` samples; `note` says how.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str, n: usize, note: &str) {
        self.metrics.push((
            name.to_string(),
            value,
            unit.to_string(),
            n,
            note.to_string(),
        ));
    }

    /// Record a metric this workload cannot measure, and why. It is reported
    /// as 0 so every run prints the same metric set.
    pub fn unmeasured(&mut self, name: &str, unit: &str, reason: &str) {
        self.metric(name, 0.0, unit, 0, "not measured");
        self.unmeasured.push((name.to_string(), reason.to_string()));
    }

    /// Record a fact about the machine or the inputs.
    pub fn info(&mut self, key: &str, value: Value) {
        self.info.push((key.to_string(), value));
    }

    /// Count one checked operation; `Err` carries why it failed.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failures.push(why);
        }
    }

    /// Count `n` operations of which the listed ones failed.
    pub fn checks(&mut self, n: u64, failures: Vec<String>) {
        self.attempted += n;
        self.failures.extend(failures);
    }

    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Merge another record (a preparing process's) into this one.
    pub fn absorb(&mut self, other: &Value) {
        if let Some(Value::Obj(ms)) = other.get("metrics") {
            for (name, m) in ms {
                let num = |k: &str| m.get(k).and_then(Value::as_f64).unwrap_or(0.0);
                let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
                let note = m.get("note").and_then(Value::as_str).unwrap_or("");
                self.metric(name, num("value"), unit, num("n") as usize, note);
            }
        }
        if let Some(Value::Obj(us)) = other.get("unmeasured") {
            for (name, why) in us {
                let why = why.as_str().unwrap_or("").to_string();
                self.unmeasured.push((name.clone(), why));
            }
        }
        if let Some(Value::Obj(info)) = other.get("info") {
            self.info.extend(info.iter().cloned());
        }
        self.attempted += other
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0) as u64;
        if let Some(fs) = other.get("failures").and_then(Value::as_arr) {
            self.failures
                .extend(fs.iter().filter_map(|f| f.as_str().map(str::to_string)));
        }
    }

    /// The record as one JSON object.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit, n, note)| {
                let m = Value::Obj(vec![
                    ("value".into(), Value::Num(*value)),
                    ("unit".into(), Value::from(unit.as_str())),
                    ("n".into(), Value::from(*n)),
                    ("note".into(), Value::from(note.as_str())),
                ]);
                (name.clone(), m)
            })
            .collect();
        let unmeasured = self
            .unmeasured
            .iter()
            .map(|(n, why)| (n.clone(), Value::from(why.as_str())))
            .collect();
        let failures = self
            .failures
            .iter()
            .map(|f| Value::from(f.as_str()))
            .collect();
        Value::Obj(vec![
            ("attempted".into(), Value::from(self.attempted)),
            ("failures".into(), Value::Arr(failures)),
            ("metrics".into(), Value::Obj(metrics)),
            ("unmeasured".into(), Value::Obj(unmeasured)),
            ("info".into(), Value::Obj(self.info.clone())),
        ])
        .render()
    }
}

/// This process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The largest CPU cache's size in bytes, from sysfs.
pub fn llc_bytes() -> Option<u64> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    dir.filter_map(|e| {
        let size = std::fs::read_to_string(e.ok()?.path().join("size")).ok()?;
        let size = size.trim();
        let (digits, scale) = match size.strip_suffix('K') {
            Some(d) => (d, 1024),
            None => match size.strip_suffix('M') {
                Some(d) => (d, 1024 * 1024),
                None => (size, 1),
            },
        };
        digits.parse::<u64>().ok().map(|v| v * scale)
    })
    .max()
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_tail_keeps_ten_beyond() {
        let xs: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
        assert_eq!(tail_q(2000), 0.99);
        assert!((tail_q(200) - 0.95).abs() < 1e-12);
        assert_eq!(tail_q(5), 0.5);
    }
}
