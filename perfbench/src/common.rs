//! Pieces every workload shares: set-up repetition, the selection checks,
//! the quality metric and the platform record.

use std::sync::mpsc;

use firal_core::objective::selection_objective_ridged;
use firal_core::{select_serial, strategy_by_name, SelectionProblem};
use firal_linalg::{active_tier, cache_geometry, cpu_features, plan_for, Scalar};
use rayon::prelude::*;

use crate::report::{quote, Outcome};
use crate::scenario::SetupTimes;
use crate::stats::median;

/// A set-up block repeats builds until their summed wall time reaches
/// this, so no reported set-up figure rests on a timing shorter than a
/// tenth of a second, however short one build is.
const SETUP_BLOCK_S: f64 = 0.1;
/// Set-up blocks run before the first selection.
pub const SETUP_BLOCKS_BEFORE: usize = 6;

/// Random selections the quality metric compares against.
const RANDOM_BASELINES: usize = 9;
/// Ridge of the dense reference ratio: negligible against the labelled
/// information, it only keeps a nearly singular selection well-defined.
const RATIO_RIDGE: f64 = 1e-6;

/// Set-up times collected in blocks (see [`SETUP_BLOCK_S`]): each block's
/// stage times are its builds' sums divided by its build count.
#[derive(Default)]
pub struct SetupLog {
    blocks: Vec<SetupTimes>,
    builds: usize,
}

impl SetupLog {
    /// Run `build` until one more block closes; return the last build's
    /// product. `build` fills in its stage times; the time it spends
    /// outside them (e.g. shutting down a previous build) is not counted.
    pub fn block<R>(&mut self, mut build: impl FnMut(&mut SetupTimes) -> R) -> R {
        let mut sum = SetupTimes::default();
        let mut count = 0;
        loop {
            let mut t = SetupTimes::default();
            let product = build(&mut t);
            sum.generate_s += t.generate_s;
            sum.fit_s += t.fit_s;
            sum.upload_s += t.upload_s;
            count += 1;
            if sum.total() >= SETUP_BLOCK_S {
                let per = |x: f64| x / count as f64;
                self.blocks.push(SetupTimes {
                    generate_s: per(sum.generate_s),
                    fit_s: per(sum.fit_s),
                    upload_s: per(sum.upload_s),
                });
                self.builds += count;
                return product;
            }
        }
    }

    /// Run [`SETUP_BLOCKS_BEFORE`] blocks; return the last build's product.
    pub fn blocks_before<R>(&mut self, mut build: impl FnMut(&mut SetupTimes) -> R) -> R {
        let mut product = self.block(&mut build);
        for _ in 1..SETUP_BLOCKS_BEFORE {
            product = self.block(&mut build);
        }
        product
    }

    /// Run `body` with a callback that runs one more block on a thread of
    /// its own and waits for it. The builds then allocate from that
    /// thread's malloc arena. Built on the calling thread, their number
    /// decided whether the selections after them kept faulting pages in:
    /// about 300,000 minor faults per `relax-bound` run after one or three
    /// blocks, none after six.
    pub fn on_own_thread<R, T>(
        &mut self,
        mut build: impl FnMut(&mut SetupTimes) -> R + Send,
        body: impl FnOnce(&mut dyn FnMut()) -> T,
    ) -> T {
        let (ask, asked) = mpsc::channel::<()>();
        let (done, finished) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for () in asked {
                    self.block(&mut build);
                    if done.send(()).is_err() {
                        break;
                    }
                }
            });
            let out = {
                let mut run_block = || {
                    ask.send(()).expect("the set-up thread is running");
                    finished
                        .recv()
                        .expect("the set-up thread finished its block");
                };
                body(&mut run_block)
            };
            drop(ask);
            out
        })
    }

    /// Record the set-up figures: `setup_s` (end-to-end mode) or the
    /// per-stage medians (traced mode), each the median over blocks, plus
    /// the block sample and build count in the context.
    pub fn report(&self, out: &mut Outcome, trace: bool) {
        let totals: Vec<f64> = self.blocks.iter().map(SetupTimes::total).collect();
        out.sample("setup_s_sample", &totals);
        out.context("setup_builds", self.builds.to_string());
        let stage =
            |f: fn(&SetupTimes) -> f64| median(&self.blocks.iter().map(f).collect::<Vec<_>>());
        if trace {
            out.metric("setup.generate_s", "s", stage(|t| t.generate_s));
            out.metric("setup.fit_s", "s", stage(|t| t.fit_s));
            out.metric("setup.upload_s", "s", stage(|t| t.upload_s));
        } else {
            out.metric("setup_s", "s", median(&totals));
        }
    }
}

/// A batch is valid when it holds exactly `b` distinct indices below `n`.
pub fn valid_batch(sel: &[usize], b: usize, n: usize) -> bool {
    let mut s = sel.to_vec();
    s.sort_unstable();
    s.dedup();
    sel.len() == b && s.len() == b && s.iter().all(|&i| i < n)
}

/// `objective_gain`: log10 of the median dense Fisher ratio of
/// [`RANDOM_BASELINES`] seeded `random` selections minus log10 of the
/// ratio of `chosen`, all evaluated by the dense evaluator of
/// `firal_core::objective` (apart from the block-diagonal/CG path the
/// selection itself ran). Positive when the method beats random picks.
pub fn objective_gain(problem: &SelectionProblem<f64>, chosen: &[usize], seed: u64) -> f64 {
    let b = chosen.len();
    let random = strategy_by_name::<f64>("random").expect("random is a registered strategy");
    let mut batches = vec![chosen.to_vec()];
    for k in 0..RANDOM_BASELINES as u64 {
        let s = seed.wrapping_mul(1_000).wrapping_add(k);
        let run = select_serial(random.as_ref(), problem, b, s).expect("random selection");
        batches.push(run.selected);
    }
    // Two threads, as many as the workloads keep busy; kernel calls
    // nested in a pool job run inline, so no more start.
    let ratios: Vec<f64> = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("a two-thread pool")
        .install(|| {
            batches
                .par_iter()
                .map(|sel| selection_objective_ridged(problem, sel, RATIO_RIDGE))
                .collect()
        });
    let baseline = median(&ratios[1..]);
    baseline.log10() - ratios[0].log10()
}

/// The platform record: CPU features, active SIMD tier, cache geometry,
/// and the kernel plan for each `(d, dtype)` the workload used. The plan's
/// `(jb, pack)` comes from a ~1 ms timing probe at first use, so it can
/// differ between processes; a bimodal set of runs is read against it.
pub fn platform_context<T: Scalar>(out: &mut Outcome, d: usize, dtype: &str) {
    let tier = active_tier();
    let geo = cache_geometry();
    let plan = plan_for::<T>(tier, d);
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    out.context("cpu_features", quote(&cpu_features()));
    out.context("simd_tier", quote(tier.name()));
    out.context(
        "cache_geometry",
        format!(
            r#"{{"l1d": {}, "l2": {}, "source": {}}}"#,
            geo.l1d,
            geo.l2,
            quote(geo.source)
        ),
    );
    out.context(
        "plans",
        format!(
            r#"[{{"d": {d}, "dtype": {}, "jb": {}, "pack": {}, "class_block": {}}}]"#,
            quote(dtype),
            plan.jb,
            plan.pack,
            plan.class_block
        ),
    );
    out.context("available_parallelism", threads.to_string());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_validity() {
        assert!(valid_batch(&[3, 1, 2], 3, 4));
        assert!(!valid_batch(&[3, 1, 1], 3, 4), "duplicate");
        assert!(!valid_batch(&[3, 1, 4], 3, 4), "out of range");
        assert!(!valid_batch(&[3, 1], 3, 4), "short");
    }

    #[test]
    fn setup_blocks_reach_the_floor_and_average_their_builds() {
        let mut log = SetupLog::default();
        let mut calls = 0;
        let last = log.blocks_before(|t| {
            calls += 1;
            t.generate_s = 0.03;
            t.fit_s = 0.01;
            calls
        });
        // Three 0.04-s builds close a block (0.12 s ≥ 0.1 s).
        assert_eq!(last, 3 * SETUP_BLOCKS_BEFORE);
        assert_eq!(log.blocks.len(), SETUP_BLOCKS_BEFORE);
        assert_eq!(log.builds, 3 * SETUP_BLOCKS_BEFORE);
        assert!(log.blocks.iter().all(|b| (b.total() - 0.04).abs() < 1e-12));
        log.on_own_thread(
            |t| t.upload_s = 0.05,
            |run_block| {
                run_block();
                run_block();
            },
        );
        assert_eq!(log.blocks.len(), SETUP_BLOCKS_BEFORE + 2);
        assert_eq!(log.builds, 3 * SETUP_BLOCKS_BEFORE + 4);
    }
}
