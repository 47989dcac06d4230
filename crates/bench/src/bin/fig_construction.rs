//! Regenerates the construction-time figure: SYNC_MST + marker rounds are O(n).

use smst_bench::engine_metrics::engine_construction_sweep;
use smst_engine::EngineConfig;

fn main() {
    let sizes = [32usize, 64, 128, 256, 512, 1024];
    println!("Construction + marker time (Theorem 4.4 / Corollary 6.11)");
    println!(
        "{:>6} {:>18} {:>15} {:>18}",
        "n", "SYNC_MST rounds", "marker rounds", "rounds per node"
    );
    let engine = EngineConfig::new().threads(smst_engine::default_threads());
    for p in engine_construction_sweep(&sizes, 13, &engine) {
        println!(
            "{:>6} {:>18} {:>15} {:>18.2}",
            p.n, p.sync_mst_rounds, p.marker_rounds, p.rounds_per_node
        );
    }
}
