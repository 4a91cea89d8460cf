//! Dataset generation and the shared K-means math.
//!
//! The assignment and refinement functions live here so the standalone
//! baseline and the P2G pipeline share one implementation — their outputs
//! are bit-identical, which the tests exploit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generate `n` points of dimension `dim`, drawn around `k` well-separated
/// blob centers (plus uniform noise), deterministically from `seed`.
/// Returns the flattened row-major point matrix.
pub fn generate_dataset(n: usize, dim: usize, k: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<f64> = (0..k * dim)
        .map(|_| rng.random_range(-100.0..100.0))
        .collect();
    let mut points = Vec::with_capacity(n * dim);
    for i in 0..n {
        let c = i % k;
        for d in 0..dim {
            let spread: f64 = rng.random_range(-8.0..8.0);
            points.push(centers[c * dim + d] + spread);
        }
    }
    points
}

/// Squared Euclidean distance between two `dim`-dimensional slices.
#[inline]
pub(crate) fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// The `assign` kernel's math: index of the nearest centroid. Ties break
/// toward the lower index (deterministic).
pub(crate) fn assign_point(point: &[f64], centroids: &[f64], k: usize, dim: usize) -> usize {
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for c in 0..k {
        let d = squared_distance(point, &centroids[c * dim..(c + 1) * dim]);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

/// The `refine` kernel's math: the new centroid of cluster `c` — the mean
/// of its members, or the old centroid when the cluster is empty. Summation
/// runs in point-index order so results are bit-deterministic.
pub(crate) fn refine_centroid(
    points: &[f64],
    assignments: &[i32],
    c: usize,
    dim: usize,
    old_centroid: &[f64],
) -> Vec<f64> {
    let mut sum = vec![0.0f64; dim];
    let mut count = 0usize;
    for (i, &a) in assignments.iter().enumerate() {
        if a as usize == c {
            for d in 0..dim {
                sum[d] += points[i * dim + d];
            }
            count += 1;
        }
    }
    if count == 0 {
        old_centroid.to_vec()
    } else {
        sum.iter().map(|s| s / count as f64).collect()
    }
}

/// Total inertia (sum of squared point-to-assigned-centroid distances) —
/// what the `print` kernel reports, and K-means' monotone objective.
pub fn inertia(points: &[f64], centroids: &[f64], assignments: &[i32], dim: usize) -> f64 {
    assignments
        .iter()
        .enumerate()
        .map(|(i, &a)| {
            squared_distance(
                &points[i * dim..(i + 1) * dim],
                &centroids[a as usize * dim..(a as usize + 1) * dim],
            )
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_deterministic_and_sized() {
        let a = generate_dataset(100, 2, 5, 42);
        let b = generate_dataset(100, 2, 5, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 200);
        let c = generate_dataset(100, 2, 5, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn squared_distance_basics() {
        assert_eq!(squared_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(squared_distance(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn assign_picks_nearest() {
        let centroids = [0.0, 0.0, 10.0, 10.0, -5.0, -5.0];
        assert_eq!(assign_point(&[9.0, 9.5], &centroids, 3, 2), 1);
        assert_eq!(assign_point(&[-4.0, -6.0], &centroids, 3, 2), 2);
        assert_eq!(assign_point(&[0.1, -0.1], &centroids, 3, 2), 0);
    }

    #[test]
    fn assign_tie_breaks_low_index() {
        let centroids = [1.0, -1.0]; // 1-D, equidistant from 0
        assert_eq!(assign_point(&[0.0], &centroids, 2, 1), 0);
    }

    #[test]
    fn refine_computes_mean() {
        let points = [0.0, 0.0, 2.0, 4.0, 100.0, 100.0];
        let assignments = [0, 0, 1];
        let c0 = refine_centroid(&points, &assignments, 0, 2, &[9.0, 9.0]);
        assert_eq!(c0, vec![1.0, 2.0]);
        let c1 = refine_centroid(&points, &assignments, 1, 2, &[9.0, 9.0]);
        assert_eq!(c1, vec![100.0, 100.0]);
    }

    #[test]
    fn refine_empty_cluster_keeps_old() {
        let points = [1.0, 2.0];
        let assignments = [0];
        let c = refine_centroid(&points, &assignments, 5, 2, &[7.0, 8.0]);
        assert_eq!(c, vec![7.0, 8.0]);
    }

    #[test]
    fn inertia_zero_at_centroids() {
        let points = [1.0, 1.0, 5.0, 5.0];
        let centroids = [1.0, 1.0, 5.0, 5.0];
        assert_eq!(inertia(&points, &centroids, &[0, 1], 2), 0.0);
        assert!(inertia(&points, &centroids, &[1, 0], 2) > 0.0);
    }
}
