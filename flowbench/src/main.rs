//! `flowbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! flowbench --workload <table1|scale20k|serve_mix> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every workload generates its inputs from `--seed` (default 42, the
//! seed of the paper's Table 1), hands the program only the generated
//! inputs, measures for at least `--seconds`, checks every output, and
//! prints a human-readable table followed by one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones, and the span records are written under `out/` next to
//! this package's manifest.
//!
//! `failed` counts failed operations (a flow call that returned an
//! error) and failed output checks; `correct` is false, and the run
//! exits 1, only when an output check failed or nothing could be set up.

mod scale;
mod serve_mix;
mod spans;
mod stats;
mod table1;

use std::collections::BTreeMap;
use std::fmt::Display;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("req_per_s", "1/s"),
];

/// Per-layer metrics, reported by every workload in the traced run.
/// Layers are named by crate; a layer a workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.gen_s", "s"),
    ("net.self_s", "s"),
    ("cluster.map_s", "s"),
    ("cluster.fullcro_s", "s"),
    ("cluster.self_s", "s"),
    ("cluster.isc_iterations", "count"),
    ("cluster.kmeans_iterations", "count"),
    ("cluster.gcp_splits", "count"),
    ("cluster.embed_reuse_ratio", "ratio"),
    ("cluster.crossbars", "count"),
    ("cluster.outliers", "count"),
    ("cluster.outlier_ratio", "ratio"),
    ("linalg.ql_sweeps", "count"),
    ("linalg.sparse_matvecs", "count"),
    ("linalg.lanczos_restarts", "count"),
    ("phys.netlist_s", "s"),
    ("phys.netlist_s.autoncs", "s"),
    ("phys.netlist_s.fullcro", "s"),
    ("phys.place_s", "s"),
    ("phys.place_s.autoncs", "s"),
    ("phys.place_s.fullcro", "s"),
    ("phys.route_s", "s"),
    ("phys.route_s.autoncs", "s"),
    ("phys.route_s.fullcro", "s"),
    ("phys.cost_s", "s"),
    ("phys.cost_s.autoncs", "s"),
    ("phys.cost_s.fullcro", "s"),
    ("phys.self_s", "s"),
    ("phys.place_cg_iterations", "count"),
    ("phys.place_outer_iterations", "count"),
    ("phys.swap_hit_ratio", "ratio"),
    ("phys.route_commits", "count"),
    ("phys.route_requeue_ratio", "ratio"),
    ("phys.route_window_expansions", "count"),
    ("phys.route_relaxations", "count"),
    ("phys.hpwl_um", "um"),
    ("phys.wl_reduction_pct", "%"),
    ("phys.area_reduction_pct", "%"),
    ("phys.delay_reduction_pct", "%"),
    ("phys.autoncs_cost", "eq3"),
    ("par.pool_dispatches", "count"),
    ("par.inline_fallbacks", "count"),
    ("par.dispatch_share", "ratio"),
    ("serve.map_p50_ms", "ms"),
    ("serve.implement_p50_ms", "ms"),
    ("serve.stats_rtt_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.evictions", "count"),
    ("serve.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
];

/// Setup repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: flowbench --workload <table1|scale20k|serve_mix> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    /// Failed operations plus failed checks.
    pub failed: u64,
    pub failed_checks: u64,
    pub failures: Vec<String>,
    /// End-to-end metrics (JSON with `--trace 0`).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Further end-to-end figures printed for people but not bounded:
    /// name, value (None = not produced by this workload), unit.
    pub info: Vec<(&'static str, Option<f64>, &'static str)>,
    /// Per-layer metrics (JSON with `--trace 1`).
    pub layer: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Counts one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failed_checks += 1;
            self.failures.push(what());
        }
    }

    /// Counts one operation; a failed operation is recorded and dropped.
    pub fn op<T, E: Display>(&mut self, result: Result<T, E>, what: &str) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Sets `wall_s` and the request metrics of a batch workload. Its one
    /// caller submits each pass as one job and waits for all of it, so a
    /// request is a pass: the request metrics restate the pass times.
    /// They are set because every workload reports every end-to-end
    /// metric; a request inside a pass is no steadier a figure, as its
    /// latency follows its input (the slowest `table1` comparison of a
    /// run spread 0.28 of its median across ten seeds).
    pub fn set_batch(&mut self, walls: &[f64]) {
        self.e2e.insert("wall_s", stats::median(walls));
        let ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
        self.set_requests(&ms, walls.iter().sum());
    }

    /// Sets the request metrics from per-request latencies.
    pub fn set_requests(&mut self, latencies_ms: &[f64], measured_s: f64) {
        let (p99, level) = stats::high_percentile(latencies_ms, TAIL_BEYOND);
        self.e2e.insert("req_p50_ms", stats::median(latencies_ms));
        self.e2e.insert("req_p99_ms", p99);
        self.e2e.insert(
            "req_per_s",
            spans::ratio(latencies_ms.len() as f64, measured_s),
        );
        println!(
            "# requests: {} samples, tail = p{:.2} ({} beyond, or the maximum below {} samples)",
            latencies_ms.len(),
            level * 100.0,
            TAIL_BEYOND,
            TAIL_BEYOND + 1
        );
    }

    fn print(&self, trace: bool) {
        let error_rate = spans::ratio(self.failed as f64, self.attempted as f64);
        println!("{:<30} {:>16}  unit", "metric", "value");
        let row = |name: &str, value: Option<f64>, unit: &str| match value {
            Some(v) => println!("{name:<30} {v:>16.6}  {unit}"),
            None => println!("{name:<30} {:>16}  {unit}", "n/a"),
        };
        if trace {
            for (name, unit) in PER_LAYER {
                row(name, self.layer.get(name).copied(), unit);
            }
        } else {
            for (name, unit) in END_TO_END {
                row(name, self.e2e.get(name).copied(), unit);
            }
            row("error_rate", Some(error_rate), "ratio");
            for (name, value, unit) in &self.info {
                row(name, *value, unit);
            }
        }
        for f in &self.failures {
            println!("# FAILED: {f}");
        }
        let (list, source) = if trace {
            (PER_LAYER, &self.layer)
        } else {
            (END_TO_END, &self.e2e)
        };
        let metrics: Vec<String> = list
            .iter()
            .map(|(name, unit)| {
                let v = source.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed_checks == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Runs `f` `SETUP_REPS` times; returns the last result and the median
/// seconds per run.
pub fn setup_median<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    let value = last.expect("SETUP_REPS is at least 1");
    (value, stats::median(&times))
}

/// Whether another untraced pass runs after `done` passes that began
/// `elapsed_s` ago: until `--seconds` have gone, and at least one. A
/// traced run makes exactly one, after a warm-up, as the reference the
/// traced pass is compared with.
pub fn another_pass(args: &Args, done: usize, elapsed_s: f64) -> bool {
    done == 0 || (!args.trace && elapsed_s < args.seconds)
}

/// Runs `pass` as long as [`another_pass`] says; returns each pass's
/// wall seconds.
pub fn repeat_passes(args: &Args, mut pass: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut walls = Vec::new();
    while another_pass(args, walls.len(), start.elapsed().as_secs_f64()) {
        let t = Instant::now();
        pass();
        walls.push(t.elapsed().as_secs_f64());
    }
    walls
}

/// Peak resident set of the process so far (`VmHWM`), in MiB. Set-up
/// data is small next to what every workload's measured phase holds.
pub fn peak_mib() -> f64 {
    ncs_bench::memory::peak_rss_bytes().unwrap_or(0) as f64 / f64::from(1u32 << 20)
}

/// Writes the traced run's spans and counters under `out/`.
pub fn write_spans(args: &Args, recorder: &spans::Spans, counters: &spans::Counters) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    let json = recorder.to_json(&args.workload, args.seed, counters);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => println!("# could not write spans to {}: {e}", path.display()),
    }
}

/// Per-layer figures every workload derives the same way from its spans
/// and the program's counters. `untraced_wall_s` is the traced run's
/// untraced pass, the reference for `trace.overhead_frac`.
pub fn common_layers(
    report: &mut Report,
    recorder: &spans::Spans,
    counters: &spans::Counters,
    untraced_wall_s: f64,
) {
    let l = &mut report.layer;
    let by_layer = recorder.self_by_layer();
    for (layer, key) in [
        ("net", "net.self_s"),
        ("cluster", "cluster.self_s"),
        ("phys", "phys.self_s"),
        ("serve", "serve.self_s"),
    ] {
        l.insert(key, by_layer.get(layer).copied().unwrap_or(0.0));
    }
    l.insert("net.gen_s", recorder.total_s("net.gen"));
    let c = |name| counters.count(name);
    l.insert("cluster.isc_iterations", c("isc.iterations"));
    l.insert(
        "cluster.kmeans_iterations",
        counters.sample_sum("kmeans.iterations"),
    );
    l.insert("cluster.gcp_splits", c("gcp.splits"));
    l.insert(
        "cluster.embed_reuse_ratio",
        spans::ratio(c("isc.embed_reuses"), c("isc.iterations")),
    );
    l.insert("linalg.ql_sweeps", counters.sample_sum("eigen.ql_sweeps"));
    l.insert("linalg.sparse_matvecs", c("isc.sparse_matvecs"));
    l.insert("linalg.lanczos_restarts", c("lanczos.restarts"));
    l.insert("phys.place_cg_iterations", c("place.cg_iterations"));
    l.insert(
        "phys.place_outer_iterations",
        counters.sample_sum("place.outer_iterations"),
    );
    l.insert(
        "phys.swap_hit_ratio",
        spans::ratio(
            c("place.incremental_hits"),
            c("place.incremental_hits") + c("place.exact_fallbacks"),
        ),
    );
    l.insert("phys.route_commits", c("route.commits"));
    l.insert(
        "phys.route_requeue_ratio",
        spans::ratio(c("route.requeues"), c("route.commits")),
    );
    l.insert("phys.route_window_expansions", c("route.window_expansions"));
    l.insert(
        "phys.route_relaxations",
        counters.sample_sum("route.relaxations"),
    );
    let (pool, inline) = (c("par.pool_dispatches"), c("par.inline_fallbacks"));
    l.insert("par.pool_dispatches", pool);
    l.insert("par.inline_fallbacks", inline);
    l.insert("par.dispatch_share", spans::ratio(pool, pool + inline));
    if let Some(pass) = recorder.recs().iter().find(|r| r.name == "bench.pass") {
        let wall = pass.dur_s();
        // One traced/untraced pair: it resolves only overheads above the
        // host's pass-to-pass noise.
        l.insert(
            "trace.overhead_frac",
            spans::ratio(wall, untraced_wall_s) - 1.0,
        );
        l.insert(
            "trace.unattributed_frac",
            spans::ratio(recorder.self_s(pass), wall),
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("flowbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# flowbench workload={} seed={} seconds={} trace={} nproc={} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        ncs_par::hardware_threads(),
        ncs_par::pool_threads()
    );
    let report = match args.workload.as_str() {
        "table1" => table1::run(&args),
        "scale20k" => scale::run(&args),
        "serve_mix" => serve_mix::run(&args),
        other => {
            eprintln!("flowbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    report.print(args.trace);
    if report.failed_checks == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(xs: &[&str]) -> Result<Args, String> {
        parse_args(xs.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_default_to_table1_seed_and_reject_junk() {
        let a = parse(&["--workload", "table1"]).unwrap();
        assert_eq!((a.seed, a.trace), (42, false));
        let a = parse(&[
            "--workload",
            "x",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "x", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "x", "--seed"]).is_err());
        assert!(parse(&["--workload", "x", "--bogus", "1"]).is_err());
        assert!(parse(&["--workload", "x", "--seconds", "-1"]).is_err());
    }

    #[test]
    fn traced_runs_make_one_untraced_pass_and_untraced_runs_fill_the_time() {
        let mut a = parse(&["--workload", "x", "--seconds", "10"]).unwrap();
        assert!(another_pass(&a, 0, 99.0));
        assert!(another_pass(&a, 3, 9.9));
        assert!(!another_pass(&a, 1, 10.0));
        a.trace = true;
        assert!(another_pass(&a, 0, 99.0));
        assert!(!another_pass(&a, 1, 0.0));
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn failed_checks_and_operations_count_against_attempts() {
        let mut r = Report::default();
        r.check(true, || unreachable!());
        r.check(false, || "mismatch".into());
        assert_eq!(r.op(Ok::<_, String>(3), "op"), Some(3));
        assert_eq!(r.op(Err::<u8, _>("boom"), "op"), None);
        assert_eq!((r.attempted, r.failed, r.failed_checks), (4, 2, 1));
        assert_eq!(
            r.failures,
            vec!["mismatch".to_string(), "op: boom".to_string()]
        );
    }
}
