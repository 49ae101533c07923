//! Full-scale checks of the paper's headline claims on the real
//! testbenches. These run the complete flow on 300-500 neuron networks,
//! so they are `#[ignore]`d by default and exercised in release mode:
//!
//! ```text
//! cargo test --release --test paper_claims -- --ignored
//! ```
//!
//! (The `repro` binary in `crates/bench` regenerates the full tables and
//! figures; these tests assert the headline directions only.)

use autoncs::AutoNcs;
use ncs_net::Testbench;

#[test]
#[ignore = "full-scale run; use cargo test --release -- --ignored"]
fn testbench_sparsities_match_section_4_1() {
    for (id, expect) in [(1usize, 0.9447f64), (2, 0.9359), (3, 0.9439)] {
        let tb = Testbench::paper(id, 42).unwrap();
        assert!(
            (tb.network().sparsity() - expect).abs() < 1e-3,
            "testbench {id}: {} vs {expect}",
            tb.network().sparsity()
        );
    }
}

#[test]
#[ignore = "full-scale run; use cargo test --release -- --ignored"]
fn recognition_rate_above_90_percent() {
    for id in [1usize, 2, 3] {
        let tb = Testbench::paper(id, 42).unwrap();
        let report = tb.recognition_rate(0.02, 777).unwrap();
        assert!(
            report.rate() > 0.9,
            "testbench {id} recognition rate {}",
            report.rate()
        );
    }
}

#[test]
#[ignore = "full-scale run; use cargo test --release -- --ignored"]
fn isc_clusters_the_overwhelming_majority_of_connections() {
    // Figures 7-9: after ISC, ~95% of connections are clustered.
    for id in [1usize, 2, 3] {
        let tb = Testbench::paper(id, 42).unwrap();
        let (mapping, trace) = AutoNcs::new().map(tb.network()).unwrap();
        mapping.verify_covers(tb.network()).unwrap();
        assert!(
            mapping.outlier_ratio() < 0.12,
            "testbench {id}: outlier ratio {} after {} iterations",
            mapping.outlier_ratio(),
            trace.iterations.len()
        );
        assert!(
            trace.iterations.len() >= 8,
            "testbench {id}: {} iterations",
            trace.iterations.len()
        );
    }
}

#[test]
#[ignore = "full-scale run; use cargo test --release -- --ignored"]
fn table_1_reductions_hold_in_direction_and_rough_magnitude() {
    // Table 1: AutoNCS reduces wirelength / area / delay on every
    // testbench; average reductions are 47.80% / 31.97% / 47.18% in the
    // paper. The reproduction asserts the directions plus loose bands.
    let framework = AutoNcs::new();
    let mut avg = (0.0, 0.0, 0.0);
    for id in [1usize, 2, 3] {
        let tb = Testbench::paper(id, 42).unwrap();
        let report = framework.compare(tb.network()).unwrap();
        let (w, a, d) = (
            report.wirelength_reduction(),
            report.area_reduction(),
            report.delay_reduction(),
        );
        assert!(w > 0.2, "testbench {id}: wirelength reduction {w}");
        assert!(a > 0.05, "testbench {id}: area reduction {a}");
        assert!(d > 0.2, "testbench {id}: delay reduction {d}");
        avg.0 += w / 3.0;
        avg.1 += a / 3.0;
        avg.2 += d / 3.0;
    }
    assert!(avg.0 > 0.3, "average wirelength reduction {}", avg.0);
    assert!(avg.1 > 0.15, "average area reduction {}", avg.1);
    assert!(avg.2 > 0.3, "average delay reduction {}", avg.2);
    // Table 1's scalability observation: area reduction grows with the
    // scale of the NCS (21.3% -> 29.5% -> 45.1% in the paper).
}

#[test]
#[ignore = "full-scale run; use cargo test --release -- --ignored"]
fn isc_maps_the_seeds_where_tql2_stalls() {
    // ISC must map every paper testbench, not only the seed-42 ones. On
    // these seeds the QL iteration in the dense eigensolver fails to
    // converge: a tridiagonal block whose entries are ~1e-114…1e-80
    // never passes the local deflation test |e[m]| ≤ ε·(|d[m]|+|d[m+1]|)
    // while the matrix norm is ~2.
    let seeds: [(usize, &[u64]); 2] = [(1, &[19, 28, 29, 35]), (2, &[4, 9, 24])];
    let framework = AutoNcs::new();
    let mut failures = Vec::new();
    for (id, tb_seeds) in seeds {
        for &seed in tb_seeds {
            let tb = Testbench::paper(id, seed).unwrap();
            if let Err(e) = framework.map(tb.network()) {
                failures.push(format!("tb{id} seed {seed}: {e}"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "mapping failed:\n{}",
        failures.join("\n")
    );
}
