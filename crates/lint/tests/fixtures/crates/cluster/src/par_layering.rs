//! Fixture: `crate-layering` — `cluster` may not import `par`; its
//! k-means and Laplacian kernels run serially.

use ncs_linalg::DenseMatrix;
use ncs_par::par_chunks_mut;

fn f() {}
