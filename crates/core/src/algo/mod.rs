//! FANN_R query algorithms (§III–§V).
//!
//! | Paper name | function | exact? | g |
//! |---|---|---|---|
//! | `GD` / `Baseline` (§III-A) | [`gd::gd`] | yes | sum & max |
//! | `R-List` (§III-B) | [`rlist::r_list`] | yes | sum & max |
//! | IER-kNN (Alg. 1) | [`ier::ier_knn`] | yes | sum & max |
//! | `Exact-max` (Alg. 2) | [`exact_max::exact_max`] | yes | max only |
//! | `APX-sum` (Alg. 3) | [`apx_sum::apx_sum`] | 3-approx (2 if Q ⊆ P) | sum only |
//! | `k`-FANN_R (§V) | [`topk`] | yes | per algorithm |
//!
//! [`brute::brute_force`] is the O(|Q|·Dijkstra) reference used by tests
//! and by the approximation-quality experiments (Fig. 11). [`mod@omp`] covers
//! the optimal-meeting-point special case (§I).

pub mod apx_sum;
pub mod brute;
pub mod exact_max;
pub mod gd;
pub mod ier;
pub mod omp;
pub mod rlist;
pub mod topk;

pub use apx_sum::{apx_sum, apx_sum_traced};
pub use brute::brute_force;
pub use exact_max::{exact_max, exact_max_cancellable, exact_max_traced, exact_max_with_gphi};
pub use gd::gd;
pub use ier::{ier_knn, ier_knn_cancellable, ier_knn_traced, ier_knn_with_bound, IerBound};
pub use omp::{flexible_omp, omp};
pub use rlist::{r_list, r_list_cancellable, r_list_traced};
