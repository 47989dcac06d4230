//! A minimal wall-clock timing harness with machine-readable output.
//!
//! The offline build environment cannot fetch Criterion, so the `benches/`
//! targets use `harness = false` and this module instead: warm-up, a fixed
//! number of timed iterations, and min / median / mean / max reporting. The
//! numbers are indicative, not statistically rigorous — for the
//! repository's purposes (ordering variants, spotting regressions of 2×
//! and up, and the sequential-vs-sharded speedup comparison) that is
//! enough.
//!
//! To track the perf trajectory **across PRs**, group benches through
//! [`BenchGroup`]: on [`BenchGroup::finish`] every case's per-config
//! median/min/mean/max (in ns) is written to `BENCH_<group>.json` (in
//! `$SMST_BENCH_DIR`, default the working directory), which CI uploads as
//! an artifact. Benches honour `$SMST_BENCH_SMOKE` to shrink their sizes
//! for single-core smoke runs — see [`smoke_mode`].

use std::hint::black_box;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Minimal JSON string escaping, shared with the telemetry artifacts. Public
/// so sibling artifact writers (the adversary campaign engine's
/// `CAMPAIGN_*.json`) share one escaping rule with the bench JSONs.
pub use smst_telemetry::json::json_string;

/// Timing summary of one benchmark case.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Case name (`group/case`).
    pub name: String,
    /// Timed iterations.
    pub iters: u32,
    /// Fastest iteration, nanoseconds.
    pub min_ns: u128,
    /// Median iteration, nanoseconds.
    pub median_ns: u128,
    /// Mean iteration, nanoseconds.
    pub mean_ns: f64,
    /// Slowest iteration, nanoseconds.
    pub max_ns: u128,
}

impl BenchResult {
    /// Mean iteration time in seconds.
    pub fn mean_secs(&self) -> f64 {
        self.mean_ns / 1e9
    }

    /// Median iteration time in seconds.
    pub fn median_secs(&self) -> f64 {
        self.median_ns as f64 / 1e9
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"name\":{},\"iters\":{},\"min_ns\":{},\"median_ns\":{},\"mean_ns\":{:.1},\"max_ns\":{}}}",
            json_string(&self.name),
            self.iters,
            self.min_ns,
            self.median_ns,
            self.mean_ns,
            self.max_ns
        )
    }
}

/// Times `f` for `iters` iterations (after one untimed warm-up call),
/// prints a summary line, and returns the measurements.
pub fn bench<R>(name: &str, iters: u32, mut f: impl FnMut() -> R) -> BenchResult {
    assert!(iters > 0, "at least one iteration is required");
    black_box(f());
    let mut samples: Vec<u128> = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let start = Instant::now();
        black_box(f());
        samples.push(start.elapsed().as_nanos());
    }
    let total_ns: u128 = samples.iter().sum();
    let mut sorted = samples.clone();
    sorted.sort_unstable();
    let result = BenchResult {
        name: name.to_string(),
        iters,
        min_ns: sorted[0],
        median_ns: median_of(&sorted),
        mean_ns: total_ns as f64 / f64::from(iters),
        max_ns: *sorted.last().unwrap(),
    };
    println!(
        "{:<44} {:>10} {:>10} {:>10} {:>10}   ({} iters)",
        result.name,
        format_ns(result.min_ns as f64),
        format_ns(result.median_ns as f64),
        format_ns(result.mean_ns),
        format_ns(result.max_ns as f64),
        result.iters,
    );
    result
}

/// The median of an ascending sample slice: the middle sample for odd
/// lengths, the midpoint of the two middle samples for even lengths.
/// Taking `sorted[len / 2]` alone — the upper middle — biased every even-
/// iteration-count trajectory number upward.
fn median_of(sorted: &[u128]) -> u128 {
    debug_assert!(!sorted.is_empty());
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2
    } else {
        sorted[mid]
    }
}

/// Prints the header matching [`bench()`]'s output columns.
pub fn header(group: &str) {
    println!("\n== {group} ==");
    println!(
        "{:<44} {:>10} {:>10} {:>10} {:>10}",
        "case", "min", "median", "mean", "max"
    );
}

/// A named collection of bench cases that serializes itself to
/// `BENCH_<group>.json` so the perf trajectory is tracked across PRs.
#[derive(Debug)]
pub struct BenchGroup {
    group: String,
    results: Vec<BenchResult>,
    /// Non-timing numbers worth tracking alongside the timings (halo
    /// sizes, exchanged bytes, …), serialized under `"meta"`.
    meta: Vec<(String, f64)>,
}

impl BenchGroup {
    /// Starts a group (prints the column header).
    pub fn new(group: &str) -> Self {
        header(group);
        BenchGroup {
            group: group.to_string(),
            results: Vec::new(),
            meta: Vec::new(),
        }
    }

    /// Runs one case through [`bench()`] and records its result.
    pub fn bench<R>(&mut self, case: &str, iters: u32, f: impl FnMut() -> R) -> BenchResult {
        let result = bench(&format!("{}/{case}", self.group), iters, f);
        self.results.push(result.clone());
        result
    }

    /// Records a non-timing metric in the artifact's `"meta"` object (and
    /// prints it, so console runs show it too).
    pub fn record_meta(&mut self, key: &str, value: f64) {
        println!("  meta {key} = {value}");
        self.meta.push((key.to_string(), value));
    }

    /// The recorded results so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Serializes the group as a JSON object.
    pub fn to_json(&self) -> String {
        let results: Vec<String> = self.results.iter().map(BenchResult::to_json).collect();
        let meta: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_string(k)))
            .collect();
        format!(
            "{{\"schema\":\"smst-bench-v1\",\"group\":{},\"meta\":{{{}}},\"results\":[{}]}}\n",
            json_string(&self.group),
            meta.join(","),
            results.join(",")
        )
    }

    /// Writes `BENCH_<group>.json` into `dir`, creating the directory if
    /// it does not exist yet, and returns its path.
    ///
    /// This is the injectable core of [`write_json`](Self::write_json):
    /// tests pass a directory instead of mutating the process-global
    /// `SMST_BENCH_DIR` (env mutation in a multithreaded test harness is a
    /// flake, and UB-adjacent in newer rustc).
    pub fn write_json_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.group));
        let mut file = std::fs::File::create(&path)?;
        file.write_all(self.to_json().as_bytes())?;
        Ok(path)
    }

    /// Writes `BENCH_<group>.json` into [`bench_dir`] (the binary-level
    /// `$SMST_BENCH_DIR` default) and returns its path.
    pub fn write_json(&self) -> std::io::Result<PathBuf> {
        self.write_json_to(&bench_dir())
    }

    /// Writes the JSON artifact, printing where it went (panics on I/O
    /// errors — a bench run that silently loses its results is worse than
    /// one that fails).
    pub fn finish(self) -> PathBuf {
        let path = self.write_json().expect("writing the bench JSON artifact");
        println!("  results -> {}", path.display());
        path
    }
}

/// Where `BENCH_*.json` artifacts are written: `$SMST_BENCH_DIR` when set,
/// otherwise the current directory.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("SMST_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(".").to_path_buf())
}

/// `true` when `$SMST_BENCH_SMOKE` is set (to anything but `0`): benches
/// shrink to smoke-test sizes so CI can exercise them and upload the JSON
/// artifacts without a multi-minute run.
pub fn smoke_mode() -> bool {
    std::env::var_os("SMST_BENCH_SMOKE").is_some_and(|v| v != "0")
}

fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.1} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.1} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_sane_numbers() {
        let r = bench("test/spin", 5, || {
            let mut acc = 0u64;
            for i in 0..1000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert_eq!(r.iters, 5);
        assert!(r.min_ns <= r.median_ns);
        assert!(r.median_ns <= r.max_ns);
        assert!(r.min_ns <= r.mean_ns as u128 + 1);
        assert!(r.mean_ns <= r.max_ns as f64 + 1.0);
        assert!(r.mean_secs() > 0.0);
        assert!(r.median_secs() > 0.0);
    }

    #[test]
    fn formatting_covers_all_scales() {
        assert!(format_ns(5e2).ends_with("ns"));
        assert!(format_ns(5e4).ends_with("µs"));
        assert!(format_ns(5e7).ends_with("ms"));
        assert!(format_ns(5e9).ends_with('s'));
    }

    #[test]
    fn group_serializes_valid_json() {
        let mut group = BenchGroup::new("unit_test_group");
        group.bench("case_a", 2, || 1 + 1);
        group.bench("case_b", 3, || 2 * 2);
        group.record_meta("halo_entries", 42.0);
        let json = group.to_json();
        assert!(json.starts_with("{\"schema\":\"smst-bench-v1\",\"group\":\"unit_test_group\""));
        assert_eq!(json.matches("\"name\":").count(), 2);
        assert_eq!(json.matches("\"median_ns\":").count(), 2);
        assert!(json.contains("\"meta\":{\"halo_entries\":42}"));
        // handwritten serializer: brackets and braces must balance
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn median_averages_the_two_middle_samples_on_even_counts() {
        // regression: `sorted[len / 2]` alone is the *upper* middle, which
        // biased every even-iteration-count median upward
        assert_eq!(median_of(&[10]), 10);
        assert_eq!(median_of(&[10, 20]), 15);
        assert_eq!(median_of(&[10, 20, 30]), 20);
        assert_eq!(median_of(&[10, 20, 30, 100]), 25);
        assert_eq!(median_of(&[1, 2, 3, 4, 5, 6]), 3, "(3 + 4) / 2 rounds down");
        // an outlier-heavy tail must not drag an even-count median up
        assert_eq!(median_of(&[1, 1, 1_000_000, 1_000_000_000]), 500_000);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny"), "\"x\\ny\"");
    }

    #[test]
    fn group_writes_the_artifact_file() {
        // regression: this used to `set_var("SMST_BENCH_DIR")` — process-
        // global env mutation races the other test threads reading
        // `bench_dir()`; the injectable `write_json_to` needs no env at all
        let dir = std::env::temp_dir().join("smst_bench_harness_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut group = BenchGroup::new("artifact_roundtrip");
        group.bench("spin", 1, || 7u64);
        let path = group.write_json_to(&dir).unwrap();
        assert_eq!(path.parent().unwrap(), dir.as_path());
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"group\":\"artifact_roundtrip\""));
        assert!(path
            .file_name()
            .unwrap()
            .to_string_lossy()
            .starts_with("BENCH_"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn group_creates_a_missing_output_directory() {
        let root = std::env::temp_dir().join(format!("smst_bench_missing_{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let dir = root.join("nested").join("out");
        let mut group = BenchGroup::new("missing_dir");
        group.bench("spin", 1, || 7u64);
        let path = group.write_json_to(&dir).unwrap();
        assert_eq!(path.parent().unwrap(), dir.as_path());
        assert!(std::fs::read_to_string(&path)
            .unwrap()
            .contains("\"group\":\"missing_dir\""));
        std::fs::remove_dir_all(&root).ok();
    }
}
