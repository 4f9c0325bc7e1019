//! Workload inputs: a fixed labelled scenario and a seeded pool.
//!
//! Each workload fixes its class geometry, its labelled set and the
//! classifier trained on it (`GEOMETRY_SEED`); the run's `--seed` only
//! draws which candidates of the fixed population form the unlabelled
//! pool (and, for `serve-mutate`, the points later added to it). Letting
//! the seed redraw the labelled set as well made the initial model, and
//! with it the RELAX conditioning, differ from seed to seed: CG iteration
//! counts spread by 13% (interquartile range over median, ten seeds) on
//! the `relax-bound` shape, against 1.2% with the labelled side fixed.

use std::time::Instant;

use firal_core::SelectionProblem;
use firal_data::{Dataset, SyntheticConfig};
use firal_linalg::{Matrix, Scalar};
use firal_logreg::{LogisticRegression, TrainConfig};

/// Seed of the class geometry, labelled set and initial model.
const GEOMETRY_SEED: u64 = 20_240_917;

/// Input make-up of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Unlabelled pool size `n`.
    pub n: usize,
    /// Feature dimension `d`.
    pub d: usize,
    /// Classes `c`.
    pub c: usize,
    /// Selection budget `b`.
    pub b: usize,
    /// Labelled points per class (`|X_o| = c × this`).
    pub labeled_per_class: usize,
    /// Candidate population the pool (and any added points) is drawn
    /// from.
    pub population: usize,
}

/// Wall time of each setup stage, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Data generation.
    pub generate_s: f64,
    /// Initial `LogisticRegression` fit.
    pub fit_s: f64,
    /// Placing the pool where selection runs: problem assembly and the
    /// executor shard (serial), or pool upload (served).
    pub upload_s: f64,
}

impl SetupTimes {
    /// Everything before the first selection.
    pub fn total(&self) -> f64 {
        self.generate_s + self.fit_s + self.upload_s
    }
}

/// The fixed part of a workload: candidates, labelled set and model.
pub struct Scenario<T: Scalar> {
    /// The workload's shape.
    pub shape: Shape,
    /// Generated data; `pool_features` is the candidate population.
    pub data: Dataset<T>,
    /// Classifier trained on the labelled set.
    pub model: LogisticRegression<T>,
}

/// Generate the population and fit the initial model, timing both.
pub fn build<T: Scalar>(shape: Shape, times: &mut SetupTimes) -> Scenario<T> {
    let t0 = Instant::now();
    let data = SyntheticConfig::new(shape.c, shape.d)
        .with_pool_size(shape.population)
        .with_initial_per_class(shape.labeled_per_class)
        .with_eval_size(shape.c)
        .with_normalize(true)
        .with_seed(GEOMETRY_SEED)
        .generate::<T>();
    times.generate_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let model = LogisticRegression::fit(
        &data.initial_features,
        &data.initial_labels,
        shape.c,
        &TrainConfig::default(),
    )
    .expect("the labelled set is generated balanced over every class");
    times.fit_s = t0.elapsed().as_secs_f64();
    Scenario { shape, data, model }
}

impl<T: Scalar> Scenario<T> {
    /// Feature rows of the given candidates.
    pub fn rows(&self, idx: &[usize]) -> Matrix<T> {
        let x = &self.data.pool_features;
        Matrix::from_fn(idx.len(), x.cols(), |r, j| x[(idx[r], j)])
    }

    /// The selection problem over the given candidates as the pool.
    pub fn problem(&self, pool: &[usize]) -> SelectionProblem<T> {
        let x = self.rows(pool);
        let labeled = &self.data.initial_features;
        SelectionProblem::new(
            x.clone(),
            self.model.class_probs_cm1(&x),
            labeled.clone(),
            self.model.class_probs_cm1(labeled),
            self.shape.c,
        )
    }
}

/// A seeded permutation of `0..len` (Fisher–Yates over xorshift64*).
pub fn draw(seed: u64, len: usize) -> Vec<usize> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let mut idx: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        idx.swap(i, j);
    }
    idx
}

/// Convert a problem to `f64` for the dense reference objective.
pub fn widen<T: Scalar>(p: &SelectionProblem<T>) -> SelectionProblem<f64> {
    let w = |m: &Matrix<T>| Matrix::from_fn(m.rows(), m.cols(), |i, j| m[(i, j)].to_f64());
    SelectionProblem::new(
        w(&p.pool_x),
        w(&p.pool_h),
        w(&p.labeled_x),
        w(&p.labeled_h),
        p.num_classes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draw_is_a_seeded_permutation() {
        let a = draw(7, 100);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_eq!(a, draw(7, 100), "same seed, same draw");
        assert_ne!(a, draw(8, 100), "another seed, another draw");
    }
}
