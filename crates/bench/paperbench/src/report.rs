//! Percentiles, named metrics and the result line.

/// The `p`-quantile (`0 ≤ p ≤ 1`) of `values`, interpolating linearly
/// between the closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A value with its name and unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run found: the output checks, the op counts and the metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Failed output checks, one line each; empty when every check passed.
    pub violations: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Peak resident memory as the workload read it; `None` to read it at
    /// the end of the run.
    pub peak_rss_mib: Option<f64>,
    /// The workload's own metrics, printed one per line.
    pub report: Vec<Metric>,
    /// The metrics of the result line.
    pub result: Vec<Metric>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Prints the report lines, then the result line (last line of stdout).
    pub fn print(&self, workload: &str) {
        for v in &self.violations {
            println!("check failed: {v}");
        }
        for m in &self.report {
            println!("{workload} {} = {} {}", m.name, m.value, m.unit);
        }
        let metrics: Vec<String> = self
            .result
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.violations.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// JSON has no NaN or infinity; a metric that is not finite is reported as
/// `null` (and the run is marked incorrect by the caller's checks).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
