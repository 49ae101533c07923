//! `scale20k`: 20k neurons through the sparse mapping path, as sixteen
//! `block_sparse(1_250, 64, 0.5, 2, ·)` networks — each mapped by
//! `Isc::run_traced` with the `bench scale` compression options (rank
//! clip 48 plus group deletion) and by the `full_crossbar` baseline, one
//! caller. Every network is above the dense-eigen and GCP-bisection
//! cutoffs, so the path is CSR, Lanczos and bisection throughout; it
//! never reaches dense QL or physical design, so a placer or dense-eigen
//! change should leave it unchanged.
//!
//! ISC's iteration count on one network swings with the input (10 to 15
//! iterations on single 20k networks, so map time varies by a third
//! across seeds); sixteen independent networks average that out while
//! mapping the same 20k neurons. The caller submits the sixteen mappings
//! as one batch job, so one pass is one request.

use ncs_cluster::{
    full_crossbar, CompressionOptions, GroupDeletionOptions, HybridMapping, Isc, IscOptions,
};
use ncs_net::{generators, ConnectionMatrix};

use crate::spans::{Counters, Spans};
use crate::{common_layers, repeat_passes, setup_median, Args, Report};

const NETWORKS: u64 = 16;
const NEURONS: usize = 1_250;
const BLOCK: usize = 64;

/// ISC options of `bench scale`, including its fixed clustering seed;
/// the workload seed only shapes the network.
fn options() -> IscOptions {
    IscOptions {
        seed: 42,
        compression: CompressionOptions {
            rank_clip: Some(48),
            group_deletion: Some(GroupDeletionOptions::default()),
        },
        ..IscOptions::default()
    }
}

/// The networks of one seed; network `k` uses generator seed
/// `seed * NETWORKS + k`.
fn generate(seed: u64) -> Result<Vec<ConnectionMatrix>, ncs_net::NetError> {
    (0..NETWORKS)
        .map(|k| {
            let net_seed = seed.wrapping_mul(NETWORKS).wrapping_add(k);
            generators::block_sparse(NEURONS, BLOCK, 0.5, 2, net_seed).map(|(net, _)| net)
        })
        .collect()
}

fn map_both(
    s: &mut Spans,
    opts: &IscOptions,
    net: &ConnectionMatrix,
) -> Result<(HybridMapping, HybridMapping), ncs_cluster::ClusterError> {
    let (mapping, _) = s.time("cluster.map", |_| Isc::new(opts.clone()).run_traced(net))?;
    let base = s.time("cluster.fullcro", |_| full_crossbar(net, opts.sizes.max()))?;
    Ok((mapping, base))
}

type Mapped = (HybridMapping, HybridMapping);

/// Every completed mapping must cover its network.
fn check(report: &mut Report, nets: &[ConnectionMatrix], mapped: &[Option<Mapped>]) {
    for (k, (net, m)) in nets.iter().zip(mapped).enumerate() {
        let Some((mapping, base)) = m else {
            continue;
        };
        for (flow, m) in [("autoncs", mapping), ("fullcro", base)] {
            let covered = m.verify_covers(net);
            report.check(covered.is_ok(), || {
                format!("scale20k net {k} {flow} mapping does not cover it: {covered:?}")
            });
        }
    }
}

/// Mean outlier ratio of the AutoNCS mappings.
fn outlier_ratio(mapped: &[&Mapped]) -> f64 {
    mapped.iter().map(|m| m.0.outlier_ratio()).sum::<f64>() / mapped.len() as f64
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let (nets, setup_s) = setup_median(|| generate(args.seed));
    let nets = match nets {
        Ok(nets) => nets,
        Err(e) => {
            report.check(false, || format!("generate block_sparse networks: {e}"));
            return report;
        }
    };
    report.e2e.insert("setup_s", setup_s);
    let opts = options();

    let mut off = Spans::new(false);
    if args.trace {
        // Warm-up, so the untraced reference pass runs as warm as the
        // traced one; the pass repeats this mapping.
        let _ = map_both(&mut off, &opts, &nets[0]);
    }
    let mut last: Vec<Option<Mapped>> = Vec::new();
    let walls = repeat_passes(args, || {
        last = nets
            .iter()
            .enumerate()
            .map(|(k, net)| {
                report.op(
                    map_both(&mut off, &opts, net),
                    &format!("scale20k map net {k}"),
                )
            })
            .collect();
    });
    report.e2e.insert("peak_rss_mib", crate::peak_mib());
    report.set_batch(&walls);

    check(&mut report, &nets, &last);
    let done: Vec<&Mapped> = last.iter().flatten().collect();
    let outlier = (!done.is_empty()).then(|| outlier_ratio(&done));
    report.info.extend([
        ("wl_reduction_pct", None, "%"),
        ("area_reduction_pct", None, "%"),
        ("delay_reduction_pct", None, "%"),
        ("autoncs_cost", None, "eq3"),
        ("outlier_ratio", outlier, "ratio"),
    ]);

    if args.trace {
        let mut s = Spans::new(true);
        let mut counters = Counters::default();
        let (_, events) = ncs_trace::capture(|| s.time("net.gen", |_| generate(args.seed)));
        counters.absorb(&events);
        let (traced, events) = ncs_trace::capture(|| {
            s.time("bench.pass", |s| {
                nets.iter()
                    .map(|net| map_both(s, &opts, net).ok())
                    .collect::<Vec<_>>()
            })
        });
        counters.absorb(&events);
        check(&mut report, &nets, &traced);
        report.check(traced == last, || "traced scale20k mappings differ".into());
        let l = &mut report.layer;
        l.insert("cluster.map_s", s.total_s("cluster.map"));
        l.insert("cluster.fullcro_s", s.total_s("cluster.fullcro"));
        let count =
            |f: fn(&HybridMapping) -> usize| done.iter().map(|m| f(&m.0)).sum::<usize>() as f64;
        l.insert("cluster.crossbars", count(|m| m.crossbars().len()));
        l.insert("cluster.outliers", count(|m| m.outliers().len()));
        l.insert("cluster.outlier_ratio", outlier.unwrap_or(0.0));
        common_layers(&mut report, &s, &counters, walls[0]);
        crate::write_spans(args, &s, &counters);
    }
    report
}
