//! K-means clustering — the paper's iterative workload (Section VII-A).
//!
//! K-means is the paper's stress test for *cyclic* dataflow: the `assign`
//! and `refine` kernels form a loop that converges the centroids, which a
//! DAG-only framework (MapReduce, Dryad) cannot express without external
//! driver loops. Aging turns the loop into an acyclic instance graph: the
//! centroids field gains one age per iteration.
//!
//! Kernel/field layout (ages are iterations):
//!
//! ```text
//! init ──► datapoints(0)[n][dim]      (constant across iterations)
//!      └─► centroids(0)[k][dim]
//! assign(a)[x]: datapoints(0)[x], centroids(a) ──► assignments(a)[x]
//! refine(a)[c]: assignments(a), datapoints(0), centroids(a)[c]
//!                                             ──► centroids(a+1)[c]
//! print(a):     centroids(a) ──► inertia log (ordered)
//! ```
//!
//! The paper runs K=100 over 2000 random points for a fixed 10 iterations
//! ("if we do not define this break-point it is undefined when the
//! algorithm converges"). The fine-grained `assign` kernel — one instance
//! per datapoint per iteration, ~7 µs of work each — is exactly what
//! saturates the serial dependency analyzer and produces Figure 10's
//! scaling collapse beyond ~4 workers.

pub mod baseline;
pub mod data;
pub mod pipeline;

pub use baseline::{kmeans_baseline, KmeansTrace};
pub use data::generate_dataset;
pub use pipeline::{build_kmeans_program, KmeansConfig, KmeansResult};
