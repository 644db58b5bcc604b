//! Training-step throughput at the current `UCAD_THREADS` setting.
//!
//! Training runs the windows of each batch in parallel on the shared
//! compute pool; this harness measures windows/s over a full Scenario-I
//! training run and records the row in `BENCH_parallel.json`. Because the
//! gradients are applied in batch order whatever the pool size, the final
//! loss printed here must not move with the thread count — the CI
//! bench-smoke job diffs it across `UCAD_THREADS=1` and `4`.

use std::time::Instant;
use ucad_bench::{header, measured_block, scenario1, TrainBenchRow};
use ucad_model::{TransDas, TransDasConfig};

fn main() {
    header("Training-step throughput (pooled intra-step kernels)");
    let threads = ucad_pool::current().threads();
    let bundle = scenario1(11);
    let cfg = TransDasConfig {
        vocab_size: bundle.data.vocab.key_space(),
        epochs: 4,
        ..bundle.model
    };

    measured_block();
    let mut model = TransDas::new(cfg);
    let t0 = Instant::now();
    let report = model.train(&bundle.data.train);
    let secs = t0.elapsed().as_secs_f64();
    let total_windows = report.windows * report.epoch_losses.len();
    let windows_per_s = total_windows as f64 / secs;
    let final_loss = *report
        .epoch_losses
        .last()
        .expect("training ran at least one epoch");
    println!(
        "pool threads {threads}: {secs:6.2}s for {total_windows} windows \
         ({windows_per_s:8.1} windows/s), final loss {final_loss:.6}"
    );

    // Per-stage attribution from the global registry: where each optimizer
    // step's time went. Forward/backward are CPU time summed across pool
    // workers, so the stages can total more than the wall clock above.
    let obs = ucad_obs::global();
    println!("stage profile (CPU time across workers):");
    let stage_total: f64 = ["forward", "backward", "reduction", "optim"]
        .iter()
        .map(|s| {
            obs.histogram(
                "ucad_train_stage_duration_seconds",
                &[("stage", s)],
                ucad_obs::latency_log_bounds(),
            )
            .snapshot()
            .sum
        })
        .sum();
    for stage in ["forward", "backward", "reduction", "optim"] {
        let snap = obs
            .histogram(
                "ucad_train_stage_duration_seconds",
                &[("stage", stage)],
                ucad_obs::latency_log_bounds(),
            )
            .snapshot();
        let share = if stage_total > 0.0 {
            100.0 * snap.sum / stage_total
        } else {
            0.0
        };
        println!(
            "  {stage:<10} {:8.3}s over {:5} steps ({share:5.1}% of stage time)",
            snap.sum, snap.count
        );
    }

    let mut ledger = ucad_bench::load_parallel_ledger();
    ledger.upsert_train(TrainBenchRow {
        threads,
        windows_per_s,
        final_loss,
    });
    ucad_bench::store_parallel_ledger(&ledger);
    println!(
        "ledger updated: {} (threads={threads})",
        ucad_bench::parallel_ledger_path().display()
    );
}
