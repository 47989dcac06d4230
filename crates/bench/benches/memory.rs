//! Bench: computing the memory footprints of the paper's scheme and the
//! O(log² n) baseline (the F-MEM experiment). Results land in
//! `BENCH_memory.json`.
use smst_bench::engine_metrics::engine_memory_sweep;
use smst_bench::harness::BenchGroup;
use smst_engine::EngineConfig;
use smst_labeling::kkp::KkpMstScheme;
use smst_labeling::scheme::max_label_bits;
use smst_labeling::OneRoundScheme;

fn main() {
    let mut group = BenchGroup::new("memory");
    for n in [64usize, 256] {
        let inst = smst_bench::mst_instance(n, 3 * n, 3);
        // one point of the memory figure: both schemes' footprints
        group.bench(&format!("memory_sweep/{n}"), 10, || {
            engine_memory_sweep(&[n], 3, &EngineConfig::reference(), 0)[0].max_bits
        });
        group.bench(&format!("kkp_labels/{n}"), 10, || {
            let labels = KkpMstScheme.mark(&inst).unwrap();
            max_label_bits(&KkpMstScheme, &inst, &labels)
        });
    }
    group.finish();
}
