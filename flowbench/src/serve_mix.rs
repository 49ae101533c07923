//! `serve_mix`: a closed loop of `nproc` `ServeClient` connections
//! against an in-process `Server` on loopback. Each connection sends its
//! share of a seeded request stream — `map` and `implement` over a pool
//! of small planted-cluster networks with skewed (Zipf) popularity, plus
//! a few `stats` — and waits for each reply before sending the next. The
//! pool holds more distinct keys than the cache, so the stream mixes
//! hits with misses, inserts and LRU evictions; the flow runs only on
//! misses. Each pass starts from a cleared cache, so passes repeat the
//! same work.
//!
//! The stream is built so that every seed asks for the same work: how
//! often each key is requested, and the size of each popularity rank's
//! network, are fixed; the seed draws the networks' connections and the
//! request order. Drawing sizes and requests independently instead made
//! the pass time vary fourfold between seeds.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Instant;

use ncs_cluster::Isc;
use ncs_net::generators;
use ncs_rng::Rng;
use ncs_serve::job::{encode_design, encode_mapping, FlowConfig};
use ncs_serve::{MapSpec, ServeClient, ServeOptions, Server};

use crate::spans::{ratio, Spans};
use crate::{common_layers, stats, Args, Report};

/// Networks in the pool; each is one `map` key and one `implement` key.
const POOL: usize = 32;
/// Neuron count of the pool network with popularity rank `r` is
/// `SIZES[r % 3]`, so every seed's pool has the same size mix at every
/// popularity level.
const SIZES: [usize; 3] = [32, 48, 64];
/// Requests per pass, over all connections, of which `STATS` are `stats`.
const STREAM: usize = 1000;
const STATS: usize = 20;
/// Share of `implement` among the flow requests; the rest are `map`.
const IMPLEMENT_SHARE: f64 = 0.25;
/// Zipf exponent of network popularity.
const ZIPF_S: f64 = 1.1;
/// Cache entries, below the pool's 2 × `POOL` distinct keys.
const CACHE_CAPACITY: usize = 24;
/// Flow options every request carries: Table 1's seed, 16..=64 sizes.
const FLOW_SEED: u64 = 42;
const MAX_SIZE: u32 = 64;
/// Keys recomputed in-process to check the served bytes.
const SAMPLE: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Map,
    Implement,
    Stats,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Map => "serve.map",
            Kind::Implement => "serve.implement",
            Kind::Stats => "serve.stats",
        }
    }
}

struct Inputs {
    nets: Vec<Vec<u8>>,
    stream: Vec<(Kind, usize)>,
}

/// The pool and the request stream of one seed. How often each key is
/// requested is fixed by its popularity (largest-remainder rounding of
/// the Zipf weights); the seed draws the networks and shuffles the
/// order, so every seed asks for the same amount of work.
fn generate(seed: u64) -> Result<Inputs, String> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut nets = Vec::with_capacity(POOL);
    for rank in 0..POOL {
        let n = SIZES[rank % SIZES.len()];
        let net = generators::planted_clusters(n, n / 16, 0.4, 0.02, rng.next_u64())
            .map_err(|e| e.to_string())?
            .0;
        let mut bytes = Vec::new();
        ncs_net::io::write_edge_list(&net, &mut bytes).map_err(|e| e.to_string())?;
        nets.push(bytes);
    }
    let keys: Vec<((Kind, usize), f64)> = (0..POOL)
        .flat_map(|rank| {
            let w = 1.0 / ((rank + 1) as f64).powf(ZIPF_S);
            [
                ((Kind::Map, rank), w * (1.0 - IMPLEMENT_SHARE)),
                ((Kind::Implement, rank), w * IMPLEMENT_SHARE),
            ]
        })
        .collect();
    let mut stream = vec![(Kind::Stats, 0); STATS];
    stream.extend(apportion(&keys, STREAM - STATS));
    rng.shuffle(&mut stream);
    Ok(Inputs { nets, stream })
}

/// `total` items split over `weighted` in proportion to the weights,
/// by largest remainder (ties to the earlier item).
fn apportion<T: Copy>(weighted: &[(T, f64)], total: usize) -> Vec<T> {
    let sum: f64 = weighted.iter().map(|(_, w)| w).sum();
    let exact: Vec<f64> = weighted
        .iter()
        .map(|(_, w)| w / sum * total as f64)
        .collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..weighted.len()).collect();
    by_remainder.sort_by(|&a, &b| {
        (exact[b] - exact[b].floor())
            .total_cmp(&(exact[a] - exact[a].floor()))
            .then(a.cmp(&b))
    });
    let short = total - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        counts[i] += 1;
    }
    weighted
        .iter()
        .zip(counts)
        .flat_map(|((item, _), c)| std::iter::repeat_n(*item, c))
        .collect()
}

/// A running server plus one connection per client.
struct Service {
    server: Server,
    clients: Vec<ServeClient>,
}

fn start(clients: usize) -> Result<Service, String> {
    let options = ServeOptions {
        cache_capacity: CACHE_CAPACITY,
        trace_stages: false,
        ..ServeOptions::default()
    };
    let server = Server::bind("127.0.0.1:0", options).map_err(|e| e.to_string())?;
    let addr: SocketAddr = server.local_addr();
    let clients = (0..clients)
        .map(|_| ServeClient::connect(addr).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    Ok(Service { server, clients })
}

fn spec(net: &[u8]) -> MapSpec {
    MapSpec {
        net: net.to_vec(),
        seed: FLOW_SEED,
        max_size: MAX_SIZE,
    }
}

/// One answered request.
struct Sample {
    kind: Kind,
    net: usize,
    ms: f64,
    body: Result<Vec<u8>, String>,
}

/// One pass: clear the cache, then every connection works through its
/// share of the stream (request `i` goes to connection `i mod C`).
/// Returns the pass wall seconds and the samples.
fn pass(
    service: &mut Service,
    inputs: &Inputs,
    s: &mut Spans,
) -> Result<(f64, Vec<Sample>), String> {
    service.clients[0]
        .clear_cache()
        .map_err(|e| e.to_string())?;
    let count = service.clients.len();
    let start = Instant::now();
    let lanes = std::thread::scope(|scope| {
        let handles: Vec<_> = service
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let mut lane = s.fork(c as u32 + 1);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for &(kind, net) in inputs.stream.iter().skip(c).step_by(count) {
                        let t = Instant::now();
                        let body = lane.time(kind.span(), |_| match kind {
                            Kind::Map => client.map(spec(&inputs.nets[net])),
                            Kind::Implement => client.implement(spec(&inputs.nets[net])),
                            Kind::Stats => client.stats().map(String::into_bytes),
                        });
                        out.push(Sample {
                            kind,
                            net,
                            ms: t.elapsed().as_secs_f64() * 1e3,
                            body: body.map_err(|e| e.to_string()),
                        });
                    }
                    (out, lane)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect::<Vec<_>>()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    for (out, lane) in lanes {
        samples.extend(out);
        s.join(lane);
    }
    Ok((wall, samples))
}

/// The flow the server runs, called directly in this process.
fn direct(kind: Kind, net: &[u8]) -> Result<Vec<u8>, String> {
    let net = ncs_net::io::read_edge_list(net).map_err(|e| e.to_string())?;
    let config = FlowConfig::derive(FLOW_SEED, MAX_SIZE).map_err(|e| e.to_string())?;
    let (mapping, trace) = Isc::new(config.isc.clone())
        .run_traced(&net)
        .map_err(|e| e.to_string())?;
    if kind == Kind::Map {
        return Ok(encode_mapping(&mapping, &trace));
    }
    ncs_phys::implement_mapping(&mapping, &config.tech, &config.implement)
        .map(|d| encode_design(&d))
        .map_err(|e| e.to_string())
}

/// Reads `"<stage>": {"hits": h, "misses": m, "evictions": e}` from a
/// `stats` dump.
fn stage_counters(stats_json: &str, stage: &str) -> Option<[u64; 3]> {
    let at = stats_json.find(&format!("\"{stage}\": {{"))?;
    let body = &stats_json[at..];
    let body = &body[..body.find('}')?];
    let field = |name: &str| -> Option<u64> {
        let key = format!("\"{name}\": ");
        let rest = &body[body.find(&key)? + key.len()..];
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    };
    Some([field("hits")?, field("misses")?, field("evictions")?])
}

/// Hits, misses and evictions over the `map` and `implement` stages.
fn cache_counters(report: &mut Report, client: &mut ServeClient) -> [u64; 3] {
    let json = report.op(client.stats(), "stats").unwrap_or_default();
    let mut total = [0; 3];
    for stage in ["map", "implement"] {
        let c = stage_counters(&json, stage);
        report.check(c.is_some(), || {
            format!("stats lacks {stage} cache counters")
        });
        for (t, v) in total.iter_mut().zip(c.unwrap_or_default()) {
            *t += v;
        }
    }
    total
}

/// Folds a pass's samples into the report and the per-key first
/// responses; any later response for a key must repeat the first.
fn absorb(
    report: &mut Report,
    samples: Vec<Sample>,
    first: &mut BTreeMap<(Kind, usize), Vec<u8>>,
    latencies_ms: &mut Vec<f64>,
) {
    for sample in samples {
        latencies_ms.push(sample.ms);
        let Some(body) = report.op(sample.body, sample.kind.span()) else {
            continue;
        };
        if sample.kind == Kind::Stats {
            continue;
        }
        match first.get(&(sample.kind, sample.net)) {
            Some(seen) => report.check(*seen == body, || {
                format!(
                    "{:?} response for pool net {} changed",
                    sample.kind, sample.net
                )
            }),
            None => {
                first.insert((sample.kind, sample.net), body);
            }
        }
    }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let clients = ncs_par::hardware_threads();
    println!("# serve_mix: closed loop, {clients} connections, cache {CACHE_CAPACITY} entries");

    // Setup: generate the inputs and start the service, several times;
    // all but the last service are shut down outside the timing.
    let mut times = Vec::new();
    let mut built = None;
    for _ in 0..crate::SETUP_REPS {
        let t = Instant::now();
        let attempt = generate(args.seed).and_then(|i| start(clients).map(|s| (i, s)));
        times.push(t.elapsed().as_secs_f64());
        if let Some((_, mut old)) = built.replace(attempt).and_then(Result::ok) {
            old.server.shutdown();
        }
    }
    let (inputs, mut service) = match built.expect("SETUP_REPS is at least 1") {
        Ok(built) => built,
        Err(e) => {
            report.check(false, || format!("serve_mix setup: {e}"));
            return report;
        }
    };
    report.e2e.insert("setup_s", stats::median(&times));

    let mut first = BTreeMap::new();
    let mut latencies_ms = Vec::new();
    let mut walls = Vec::new();
    let mut off = Spans::new(false);
    if args.trace {
        // Warm-up, so the untraced reference pass runs as warm as the
        // traced one.
        let warm_up = pass(&mut service, &inputs, &mut off);
        report.op(warm_up.map(|_| ()), "serve_mix warm-up pass");
    }
    let started = Instant::now();
    while crate::another_pass(args, walls.len(), started.elapsed().as_secs_f64()) {
        match pass(&mut service, &inputs, &mut off) {
            Ok((wall, samples)) => {
                walls.push(wall);
                absorb(&mut report, samples, &mut first, &mut latencies_ms);
            }
            Err(e) => {
                report.op(Err::<(), _>(e), "serve_mix pass");
                break;
            }
        }
    }
    report.e2e.insert("peak_rss_mib", crate::peak_mib());
    report.e2e.insert("wall_s", stats::median(&walls));
    report.set_requests(&latencies_ms, walls.iter().sum());
    report.info.extend([
        ("wl_reduction_pct", None, "%"),
        ("area_reduction_pct", None, "%"),
        ("delay_reduction_pct", None, "%"),
        ("autoncs_cost", None, "eq3"),
        ("outlier_ratio", None, "ratio"),
    ]);

    // A seeded sample of the served keys must match the flow run
    // directly in this process.
    let keys: Vec<(Kind, usize)> = first.keys().copied().collect();
    let mut rng = Rng::seed_from_u64(args.seed ^ 0x5EED_CAFE);
    for _ in 0..SAMPLE.min(keys.len()) {
        let (kind, net) = keys[rng.gen_range(0..keys.len())];
        let expected = direct(kind, &inputs.nets[net]);
        report.check(expected.as_ref().ok() == first.get(&(kind, net)), || {
            format!("served {kind:?} for pool net {net} differs from the direct run")
        });
    }

    if args.trace {
        let before = cache_counters(&mut report, &mut service.clients[0]);
        let mut s = Spans::new(true);
        let regenerated = s.time("net.gen", |_| generate(args.seed));
        report.check(
            regenerated.is_ok_and(|i| i.stream == inputs.stream && i.nets == inputs.nets),
            || "serve_mix inputs differ when generated again".into(),
        );
        let traced = s.time("bench.pass", |s| pass(&mut service, &inputs, s));
        if let Some((_, samples)) = report.op(traced, "traced serve_mix pass") {
            absorb(&mut report, samples, &mut first, &mut Vec::new());
        }
        let after = cache_counters(&mut report, &mut service.clients[0]);
        let [hits, misses, evictions] =
            [0, 1, 2].map(|i| after[i].saturating_sub(before[i]) as f64);
        let l = &mut report.layer;
        l.insert(
            "serve.map_p50_ms",
            stats::median(&s.durations_ms("serve.map")),
        );
        l.insert(
            "serve.implement_p50_ms",
            stats::median(&s.durations_ms("serve.implement")),
        );
        l.insert(
            "serve.stats_rtt_ms",
            stats::median(&s.durations_ms("serve.stats")),
        );
        l.insert("serve.hit_ratio", ratio(hits, hits + misses));
        l.insert("serve.evictions", evictions);
        let counters = crate::spans::Counters::default();
        common_layers(&mut report, &s, &counters, stats::median(&walls));
        crate::write_spans(args, &s, &counters);
    }
    service.server.shutdown();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_counters_reads_the_stats_layout() {
        let json = "{\n  \"cache\": {\"entries\": 3, \"capacity\": 16, \"bytes\": 9, \"stages\": \
                    {\"gen\": {\"hits\": 0, \"misses\": 0, \"evictions\": 0}, \
                    \"map\": {\"hits\": 12, \"misses\": 5, \"evictions\": 2}, \
                    \"implement\": {\"hits\": 4, \"misses\": 7, \"evictions\": 1}}}}";
        assert_eq!(stage_counters(json, "map"), Some([12, 5, 2]));
        assert_eq!(stage_counters(json, "implement"), Some([4, 7, 1]));
        assert_eq!(stage_counters(json, "nope"), None);
    }

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        let (a, b) = (generate(7).unwrap(), generate(7).unwrap());
        assert_eq!(a.nets, b.nets);
        assert_eq!(a.stream, b.stream);
        let c = generate(8).unwrap();
        assert_ne!(c.stream, a.stream);
        assert_ne!(c.nets, a.nets);
        // Another seed reorders the same multiset of requests.
        let (mut x, mut y) = (a.stream.clone(), c.stream.clone());
        x.sort();
        y.sort();
        assert_eq!(x, y);
        assert_eq!(a.stream.len(), STREAM);
        assert_eq!(
            a.stream.iter().filter(|r| r.0 == Kind::Stats).count(),
            STATS
        );
    }

    #[test]
    fn apportion_follows_the_weights_and_keeps_the_total() {
        let split = apportion(&[('a', 3.0), ('b', 1.0), ('c', 1.0)], 7);
        assert_eq!(split, vec!['a', 'a', 'a', 'a', 'b', 'b', 'c']);
        assert_eq!(apportion(&[('a', 1.0)], 0), Vec::<char>::new());
    }
}
