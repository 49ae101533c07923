//! `table1`: the paper's headline experiment — `AutoNcs::new().compare`
//! (AutoNCS vs the FullCro baseline) at default options on paper
//! testbench 1 (300 neurons, 15 patterns, 94.47 % sparse), one caller
//! submitting ten comparisons as one batch job. The first candidate
//! testbench is built from the workload seed itself, so the default seed
//! 42 starts with the tb1 of `repro table1`, and its printed row can be
//! compared with that report line for line.
//!
//! A single testbench's comparison time follows its mapping: the outlier
//! ratio ranges 0.01–0.15 between seeds, and placement time with it, so
//! one testbench per run varies by a quarter or more between seeds, and
//! one tb2 took three times its median. Ten tb1 instances average that
//! out at a cost one run can afford (five still left the pass time
//! varying by 0.18 of its median between seeds); tb2 (about 20 s) and
//! tb3 (about 35 s) per instance cannot be repeated enough within a run.
//!
//! Some testbenches make clustering fail (`tql2` does not converge; tb1
//! seeds 19, 28, 29 and 35 among 10–159). A failed comparison is counted
//! in `failed` and the pass moves on to the next candidate instance, so
//! every pass completes the same number of comparisons and still pays
//! for the failed attempts.
//!
//! The untraced run calls `compare` exactly as `repro table1` does. The
//! traced run calls the stages one by one — `AutoNcs::map`,
//! `full_crossbar`, and `Netlist::from_mapping` → `place` → `route` →
//! `PhysicalCost::evaluate` — so each gets its own span, and checks the
//! composition bit for bit against the designs the untraced pass's
//! `compare` built with `AutoNcs::implement`.

use autoncs::{AutoNcs, ComparisonReport, CostTable};
use ncs_cluster::{full_crossbar, HybridMapping};
use ncs_net::{ConnectionMatrix, Testbench};
use ncs_phys::{place, route, Netlist, PhysError, PhysicalCost, PhysicalDesign};

use crate::spans::{Counters, Spans};
use crate::{common_layers, repeat_passes, setup_median, Args, Report};

/// Paper testbench of the workload and the comparisons one pass
/// completes.
const TESTBENCH: usize = 1;
const INSTANCES: usize = 10;
/// Candidate instances per workload seed; candidate `k` is built from
/// testbench seed `seed + k * CANDIDATE_STRIDE`, so nearby workload
/// seeds share no candidates.
const CANDIDATES: u64 = 20;
const CANDIDATE_STRIDE: u64 = 1_000_003;

/// `(testbench seed, network)` per candidate instance.
fn generate(seed: u64) -> Result<Vec<(u64, ConnectionMatrix)>, ncs_net::NetError> {
    (0..CANDIDATES)
        .map(|k| {
            let tb_seed = seed.wrapping_add(k.wrapping_mul(CANDIDATE_STRIDE));
            Testbench::paper(TESTBENCH, tb_seed).map(|tb| (tb_seed, tb.network().clone()))
        })
        .collect()
}

/// Runs `compare` on candidates in order until `INSTANCES` succeed;
/// one entry per attempted candidate, in candidate order.
fn until_done<T, E>(
    nets: &[(u64, ConnectionMatrix)],
    mut compare: impl FnMut(u64, &ConnectionMatrix) -> Result<T, E>,
) -> Vec<Result<T, E>> {
    let mut out = Vec::new();
    let mut completed = 0;
    for (tb_seed, net) in nets {
        if completed == INSTANCES {
            break;
        }
        let r = compare(*tb_seed, net);
        completed += usize::from(r.is_ok());
        out.push(r);
    }
    out
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let (inputs, setup_s) = setup_median(|| generate(args.seed));
    let nets = match inputs {
        Ok(nets) => nets,
        Err(e) => {
            report.check(false, || format!("generate testbenches: {e}"));
            return report;
        }
    };
    report.e2e.insert("setup_s", setup_s);
    let framework = AutoNcs::new();

    if args.trace {
        // Warm-up, so the untraced reference pass runs as warm as the
        // traced one; the pass repeats this comparison.
        let _ = framework.compare(&nets[0].1);
    }
    let mut last: Vec<Option<ComparisonReport>> = Vec::new();
    let walls = repeat_passes(args, || {
        let attempts = until_done(&nets, |_, net| framework.compare(net));
        last = attempts
            .into_iter()
            .zip(&nets)
            .map(|(r, (tb_seed, _))| report.op(r, &tb_label(*tb_seed)))
            .collect();
    });
    report.e2e.insert("peak_rss_mib", crate::peak_mib());
    report.set_batch(&walls);

    // Instances whose comparison completed, in instance order.
    let done: Vec<(u64, &ConnectionMatrix, ComparisonReport)> = nets
        .iter()
        .zip(last)
        .filter_map(|((tb_seed, net), r)| r.map(|r| (*tb_seed, net, r)))
        .collect();
    check_outputs(&mut report, &done);
    quality(&mut report, &done);

    if args.trace {
        traced(args, &mut report, &framework, &nets, &done, walls[0]);
    }
    report
}

fn tb_label(tb_seed: u64) -> String {
    format!("tb{TESTBENCH} seed {tb_seed}")
}

/// Bit patterns of every cost figure, for exact comparisons.
fn cost_bits(c: &PhysicalCost) -> [u64; 4] {
    [
        c.wirelength_um.to_bits(),
        c.area_um2.to_bits(),
        c.average_delay_ns.to_bits(),
        c.total().to_bits(),
    ]
}

fn reduction(baseline: f64, ours: f64) -> f64 {
    if baseline > 0.0 {
        1.0 - ours / baseline
    } else {
        0.0
    }
}

/// The benchmark's own arithmetic over the raw Eq. 3 costs: per-row
/// (wirelength, area, delay) reductions averaged in row order.
fn averaged_reductions<'a>(reports: impl Iterator<Item = &'a ComparisonReport>) -> [f64; 3] {
    let (mut acc, mut n) = ([0.0; 3], 0usize);
    for r in reports {
        n += 1;
        let (a, b) = (&r.autoncs.design.cost, &r.baseline.design.cost);
        acc[0] += reduction(b.wirelength_um, a.wirelength_um);
        acc[1] += reduction(b.area_um2, a.area_um2);
        acc[2] += reduction(b.average_delay_ns, a.average_delay_ns);
    }
    acc.map(|x| x / n as f64)
}

fn check_outputs(report: &mut Report, done: &[(u64, &ConnectionMatrix, ComparisonReport)]) {
    for (tb_seed, net, r) in done {
        for (flow, mapping) in [
            ("autoncs", &r.autoncs.mapping),
            ("fullcro", &r.baseline.mapping),
        ] {
            let covered = mapping.verify_covers(net);
            report.check(covered.is_ok(), || {
                format!(
                    "{} {flow} mapping does not cover its network: {covered:?}",
                    tb_label(*tb_seed)
                )
            });
        }
    }
    if done.is_empty() {
        return;
    }
    // `repro table1` prints each row from `ComparisonReport` and the
    // averages from `CostTable`; the benchmark recomputes both from the
    // raw costs, must agree bit for bit, and prints them the same way.
    for (tb_seed, _, r) in done {
        let printed = [
            r.wirelength_reduction(),
            r.area_reduction(),
            r.delay_reduction(),
        ];
        let ours = averaged_reductions(std::iter::once(r));
        report.check(ours == printed, || {
            format!(
                "{} reductions {ours:?} differ from the report's {printed:?}",
                tb_label(*tb_seed)
            )
        });
        println!(
            "# testbench {TESTBENCH} seed {tb_seed}: WL {:+.1}%, area {:+.1}%, delay {:+.1}%",
            printed[0] * 100.0,
            printed[1] * 100.0,
            printed[2] * 100.0
        );
    }
    let mut table = CostTable::new();
    for (tb_seed, _, r) in done {
        table.push(r.to_row(tb_label(*tb_seed)));
    }
    let (w, a, d) = table.average_reductions();
    let ours = averaged_reductions(done.iter().map(|(_, _, r)| r));
    report.check(ours == [w, a, d], || {
        format!(
            "table1 reductions {ours:?} differ from CostTable's {:?}",
            [w, a, d]
        )
    });
    println!(
        "# average reductions: wirelength {:.2}%, area {:.2}%, delay {:.2}%",
        w * 100.0,
        a * 100.0,
        d * 100.0
    );
}

fn quality(report: &mut Report, done: &[(u64, &ConnectionMatrix, ComparisonReport)]) {
    if done.is_empty() {
        return;
    }
    let reports = || done.iter().map(|(_, _, r)| r);
    let [w, a, d] = averaged_reductions(reports());
    let cost: f64 = reports().map(|r| r.autoncs.design.cost.total()).sum();
    let outlier = reports()
        .map(|r| r.autoncs.mapping.outlier_ratio())
        .sum::<f64>()
        / done.len() as f64;
    report.info.extend([
        ("wl_reduction_pct", Some(w * 100.0), "%"),
        ("area_reduction_pct", Some(a * 100.0), "%"),
        ("delay_reduction_pct", Some(d * 100.0), "%"),
        ("autoncs_cost", Some(cost), "eq3"),
        ("outlier_ratio", Some(outlier), "ratio"),
    ]);
    let l = &mut report.layer;
    l.insert("phys.wl_reduction_pct", w * 100.0);
    l.insert("phys.area_reduction_pct", a * 100.0);
    l.insert("phys.delay_reduction_pct", d * 100.0);
    l.insert("phys.autoncs_cost", cost);
    l.insert("cluster.outlier_ratio", outlier);
    l.insert(
        "cluster.crossbars",
        reports()
            .map(|r| r.autoncs.mapping.crossbars().len())
            .sum::<usize>() as f64,
    );
    l.insert(
        "cluster.outliers",
        reports()
            .map(|r| r.autoncs.mapping.outliers().len())
            .sum::<usize>() as f64,
    );
}

/// Span names of one side of the comparison; each is also the name of
/// the per-layer metric that reports its total.
struct Side {
    netlist: &'static str,
    place: &'static str,
    route: &'static str,
    cost: &'static str,
}

const AUTONCS: Side = Side {
    netlist: "phys.netlist_s.autoncs",
    place: "phys.place_s.autoncs",
    route: "phys.route_s.autoncs",
    cost: "phys.cost_s.autoncs",
};
const FULLCRO: Side = Side {
    netlist: "phys.netlist_s.fullcro",
    place: "phys.place_s.fullcro",
    route: "phys.route_s.fullcro",
    cost: "phys.cost_s.fullcro",
};

/// `implement_mapping` spelled out stage by stage so every stage gets
/// a span: netlist, then place → route → cost per routability round,
/// keeping the cheapest round.
fn compose(
    s: &mut Spans,
    side: &Side,
    framework: &AutoNcs,
    mapping: &HybridMapping,
) -> Result<PhysicalDesign, PhysError> {
    let tech = framework.technology();
    let options = framework.implement_options();
    let netlist = s.time(side.netlist, |_| Netlist::from_mapping(mapping, tech));
    let mut placer = options.placer.clone();
    let mut best: Option<PhysicalDesign> = None;
    for round in 0..=options.routability_iterations {
        let placement = s.time(side.place, |_| place(&netlist, &placer))?;
        let routing = s.time(side.route, |_| {
            route(&netlist, &placement, tech, &options.router)
        })?;
        let cost = s.time(side.cost, |_| {
            PhysicalCost::evaluate(&netlist, &placement, &routing, tech, options.weights)
        });
        let congested = routing.congestion.max_usage() > options.congestion_target;
        if best.as_ref().is_none_or(|b| cost.total() < b.cost.total()) {
            best = Some(PhysicalDesign {
                netlist: netlist.clone(),
                placement,
                routing,
                cost,
            });
        }
        if !congested || round == options.routability_iterations {
            break;
        }
        placer.omega *= 1.15;
    }
    Ok(best.expect("at least one routability round runs"))
}

/// Half-perimeter wirelength over every wire's pin cell centres.
fn hpwl(d: &PhysicalDesign) -> f64 {
    d.netlist
        .wires
        .iter()
        .map(|w| {
            let (xs, ys): (Vec<f64>, Vec<f64>) = w
                .pins
                .iter()
                .map(|&p| (d.placement.x[p], d.placement.y[p]))
                .unzip();
            let span = |v: &[f64]| {
                v.iter().copied().fold(f64::MIN, f64::max)
                    - v.iter().copied().fold(f64::MAX, f64::min)
            };
            span(&xs) + span(&ys)
        })
        .sum()
}

fn same_design(a: &PhysicalDesign, b: &PhysicalDesign) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    bits(&a.placement.x) == bits(&b.placement.x)
        && bits(&a.placement.y) == bits(&b.placement.y)
        && a.routing.routed.len() == b.routing.routed.len()
        && a.routing
            .routed
            .iter()
            .zip(&b.routing.routed)
            .all(|(p, q)| {
                p.wire == q.wire
                    && p.path == q.path
                    && p.length_um.to_bits() == q.length_um.to_bits()
            })
        && cost_bits(&a.cost) == cost_bits(&b.cost)
}

struct TracedTb {
    tb_seed: u64,
    autoncs: (HybridMapping, PhysicalDesign),
    fullcro: (HybridMapping, PhysicalDesign),
}

fn traced(
    args: &Args,
    report: &mut Report,
    framework: &AutoNcs,
    nets: &[(u64, ConnectionMatrix)],
    untraced: &[(u64, &ConnectionMatrix, ComparisonReport)],
    untraced_wall_s: f64,
) {
    let mut s = Spans::new(true);
    let mut counters = Counters::default();
    let (_, events) = ncs_trace::capture(|| s.time("net.gen", |_| generate(args.seed)));
    counters.absorb(&events);
    let max_size = framework.isc_options().sizes.max();
    let (results, events) = ncs_trace::capture(|| {
        s.time("bench.pass", |s| {
            until_done(nets, |tb_seed, net| {
                let tb = (|| -> Result<TracedTb, String> {
                    let (mapping, _) = s
                        .time("cluster.map", |_| framework.map(net))
                        .map_err(|e| e.to_string())?;
                    let design =
                        compose(s, &AUTONCS, framework, &mapping).map_err(|e| e.to_string())?;
                    let base = s
                        .time("cluster.fullcro", |_| full_crossbar(net, max_size))
                        .map_err(|e| e.to_string())?;
                    let base_design =
                        compose(s, &FULLCRO, framework, &base).map_err(|e| e.to_string())?;
                    Ok(TracedTb {
                        tb_seed,
                        autoncs: (mapping, design),
                        fullcro: (base, base_design),
                    })
                })();
                tb.map_err(|e| format!("{}: {e}", tb_label(tb_seed)))
            })
        })
    });
    counters.absorb(&events);
    let mut tbs = Vec::new();
    for tb in results {
        if let Some(tb) = report.op(tb, "traced table1 pass") {
            tbs.push(tb);
        }
    }
    // The untraced pass ran `compare`, whose designs come from
    // `AutoNcs::implement`; the traced pass must complete the same
    // instances with the same mappings, and its stage-by-stage
    // composition must equal those designs bit for bit.
    let traced_seeds: Vec<u64> = tbs.iter().map(|tb| tb.tb_seed).collect();
    let untraced_seeds: Vec<u64> = untraced.iter().map(|(tb_seed, _, _)| *tb_seed).collect();
    report.check(traced_seeds == untraced_seeds, || {
        "traced and untraced table1 passes completed different instances".into()
    });
    for (tb, (_, _, r)) in tbs.iter().zip(untraced) {
        for (flow, (mapping, design), reference) in [
            ("autoncs", &tb.autoncs, &r.autoncs),
            ("fullcro", &tb.fullcro, &r.baseline),
        ] {
            report.check(*mapping == reference.mapping, || {
                format!(
                    "traced {} {flow} mapping differs from the untraced pass",
                    tb_label(tb.tb_seed)
                )
            });
            report.check(same_design(&reference.design, design), || {
                format!(
                    "traced {} {flow}: composed stages differ from AutoNcs::implement",
                    tb_label(tb.tb_seed)
                )
            });
        }
    }
    let l = &mut report.layer;
    l.insert("cluster.map_s", s.total_s("cluster.map"));
    l.insert("cluster.fullcro_s", s.total_s("cluster.fullcro"));
    for (total, a, f) in [
        ("phys.netlist_s", AUTONCS.netlist, FULLCRO.netlist),
        ("phys.place_s", AUTONCS.place, FULLCRO.place),
        ("phys.route_s", AUTONCS.route, FULLCRO.route),
        ("phys.cost_s", AUTONCS.cost, FULLCRO.cost),
    ] {
        let (ta, tf) = (s.total_s(a), s.total_s(f));
        l.insert(total, ta + tf);
        l.insert(a, ta);
        l.insert(f, tf);
    }
    l.insert(
        "phys.hpwl_um",
        tbs.iter().map(|tb| hpwl(&tb.autoncs.1)).sum(),
    );
    common_layers(report, &s, &counters, untraced_wall_s);
    crate::write_spans(args, &s, &counters);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn until_done_moves_past_failures_until_enough_succeed() {
        let nets: Vec<(u64, ConnectionMatrix)> = (0..CANDIDATES)
            .map(|k| (k, ConnectionMatrix::empty(1).unwrap()))
            .collect();
        let mut tried = Vec::new();
        let out = until_done(&nets, |tb_seed, _| {
            tried.push(tb_seed);
            if tb_seed == 1 || tb_seed == 3 {
                Err(tb_seed)
            } else {
                Ok(tb_seed)
            }
        });
        // Two failures: two candidates beyond INSTANCES are tried.
        assert_eq!(tried, (0..INSTANCES as u64 + 2).collect::<Vec<_>>());
        assert_eq!(out.iter().filter(|r| r.is_ok()).count(), INSTANCES);
        assert_eq!(out[1], Err(1));
        // With too many failures the pass ends after the last candidate.
        let all_fail = until_done(&nets, |tb_seed, _| Err::<(), _>(tb_seed));
        assert_eq!(all_fail.len(), CANDIDATES as usize);
    }
}
