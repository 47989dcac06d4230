//! Hand-rolled JSON fragments shared by the artifact writers.
//!
//! The offline workspace has no serde; [`json_string`] is the one escaping
//! rule of every `BENCH_*`/`TRACE_*`/`CAMPAIGN_*` writer (the bench harness
//! re-exports it as `smst_bench::harness::json_string`), and
//! `round_fields` is the single source of truth for the per-round record
//! schema shared by `TRACE_*.jsonl` lines and `BENCH_rounds*.json`
//! entries.

use smst_sim::RoundStats;

/// Minimal JSON string escaping: quotes, backslashes and control
/// characters are escaped, everything else is copied as is.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The eight per-round fields, as a comma-joined JSON object body (no
/// braces): `round`, `alarms`, `activations`, `halo_bytes` are the
/// deterministic projection, the four `*_ns` fields the wall-clock phase
/// split.
pub(crate) fn round_fields(stats: &RoundStats) -> String {
    format!(
        "\"round\":{},\"alarms\":{},\"activations\":{},\"halo_bytes\":{},\
         \"dispatch_ns\":{},\"compute_ns\":{},\"barrier_ns\":{},\"exchange_ns\":{}",
        stats.round,
        stats.alarms,
        stats.activations,
        stats.halo_bytes,
        stats.dispatch_ns,
        stats.compute_ns,
        stats.barrier_ns,
        stats.exchange_ns
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_matches_the_harness_rule() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny"), "\"x\\ny\"");
    }

    #[test]
    fn round_fields_carry_all_eight_columns() {
        let body = round_fields(&RoundStats {
            round: 3,
            alarms: 1,
            activations: 10,
            halo_bytes: 64,
            dispatch_ns: 5,
            compute_ns: 6,
            barrier_ns: 7,
            exchange_ns: 8,
        });
        assert_eq!(
            body,
            "\"round\":3,\"alarms\":1,\"activations\":10,\"halo_bytes\":64,\
             \"dispatch_ns\":5,\"compute_ns\":6,\"barrier_ns\":7,\"exchange_ns\":8"
        );
    }
}
