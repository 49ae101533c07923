//! The Table 1 golden: AutoNCS and FullCro costs, ISC iteration count,
//! outlier ratio and crossbar histogram for tb1–tb3 at seed 42, compared
//! byte for byte against `tests/golden/table1_seed42.txt`.
//!
//! A full Table 1 run takes about a minute in release mode, so the test
//! is `#[ignore]`d by default:
//!
//! ```text
//! cargo test --release --offline --test table1_golden -- --ignored
//! ```
//!
//! `repro table1` prints the same records (and writes them to
//! `results/table1_seed42.txt`). A change that moves them re-pins the
//! golden deliberately, with the diff and the reason stated.

use autoncs::AutoNcs;
use ncs_net::Testbench;

#[test]
#[ignore = "full Table 1 run; use cargo test --release --test table1_golden -- --ignored"]
fn table1_matches_the_seed42_golden() {
    let framework = AutoNcs::new();
    let mut got = String::new();
    for id in [1usize, 2, 3] {
        let tb = Testbench::paper(id, 42).unwrap();
        let report = framework.compare(tb.network()).unwrap();
        got.push_str(&report.golden_record(&format!("tb{id}")));
    }
    let want = include_str!("golden/table1_seed42.txt");
    assert!(
        got == want,
        "Table 1 moved off its golden.\n--- golden\n{want}--- now\n{got}"
    );
}
