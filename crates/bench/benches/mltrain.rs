//! Micro-benchmarks for the trainer's compute: one worker's forward and
//! backward pass on a batch, and one full data-parallel round with the
//! lossless hook (gradient compute for four workers, exchange, update).
//!
//! Both run the experiment shape (`MODEL_DIMS`, batch 32, the standard
//! task). `scripts/reproduce.sh` writes `results/BENCH_mltrain.json`; no
//! gate races it, because no second kernel is kept to race against.

use trimgrad::collective::hooks::BaselineHook;
use trimgrad::mltrain::data::sample_indices;
use trimgrad::mltrain::{DataParallelTrainer, Mlp};
use trimgrad_bench::microbench::{BenchOpts, Group, Throughput};
use trimgrad_bench::{standard_config, standard_task, MODEL_DIMS, TASK_SEED, WORKERS};
use trimgrad_hadamard::prng::Xoshiro256StarStar;

fn main() {
    let opts = BenchOpts::from_args();
    let mut g = Group::new("mltrain");
    opts.configure(&mut g);
    let cfg = standard_config(1);
    let batch = cfg.batch_size;

    let (train, test) = standard_task(TASK_SEED);
    let model = Mlp::new(&MODEL_DIMS, cfg.seed);
    let idx = sample_indices(train.len(), batch, &mut Xoshiro256StarStar::new(1));
    let (bx, by) = train.batch(&idx);
    g.throughput(Throughput::Elements(batch as u64));
    g.bench("loss_and_grad_b32", || model.loss_and_grad(&bx, &by));

    let mut trainer = DataParallelTrainer::new(
        &MODEL_DIMS,
        train,
        test,
        Box::new(BaselineHook::new(WORKERS)),
        cfg,
    );
    g.throughput(Throughput::Elements((WORKERS * batch) as u64));
    g.bench("run_round_4w", || trainer.run_round());

    opts.write("mltrain", &g.finish());
}
