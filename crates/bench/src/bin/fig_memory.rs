//! Regenerates the memory figure: O(log n) bits for the paper's scheme vs.
//! O(log² n) bits for the 1-round baseline.

use smst_bench::engine_metrics::engine_memory_sweep;
use smst_engine::EngineConfig;

fn main() {
    let sizes = [32usize, 64, 128, 256, 512, 1024];
    println!("Per-node memory (bits, and 'words' of log n bits)");
    println!(
        "{:>6} {:>14} {:>16} {:>14} {:>16}",
        "n", "paper bits", "paper words", "1-round bits", "1-round words"
    );
    for p in engine_memory_sweep(&sizes, 11, &EngineConfig::reference(), 0) {
        println!(
            "{:>6} {:>14} {:>16.1} {:>14} {:>16.1}",
            p.n, p.max_bits, p.words, p.one_round_bits, p.one_round_words
        );
    }
}
