//! perfbench: host time per simulated request on the repository's three
//! benchmark workloads, with per-crate layer metrics from a traced run.
//!
//! ```text
//! perfbench --workload <rr-rack|blk-storm|sweep-scaling> [--seed N]
//!           [--seconds N] [--trace 0|1] [--out-dir DIR]
//! perfbench --self-test
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones. See README.md.

mod measure;
mod replay;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use vrio::{RingConfig, Testbed, TestbedConfig};
use vrio_sim::SimDuration;
use vrio_trace::Json;
use vrio_workloads::{netperf_rr, run_filebench};

use measure::Spans;
use measure::{allocs, child_coverage, count_allocs, median, peak_rss_mb, ratio, CountingAlloc};
use workloads::{
    blk_run, blk_storm_config, check_digest, rr_rack_config, rr_run, run_batch, Batch, Observers,
    Opts, Workload, BLK_PERSONALITY, DEFAULT_SEED,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest batches the measured phase runs, however long they take.
const MIN_BATCHES: usize = 3;

const USAGE: &str = "usage: perfbench --workload <rr-rack|blk-storm|sweep-scaling> \
[--seed N] [--seconds N] [--trace 0|1] [--out-dir DIR]\n       perfbench --self-test";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from("perfbench/out"),
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(Workload::parse(&value).ok_or(bad("workload"))?);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or(bad("seconds"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_none() && !args.self_test {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Metrics in report order: name → (value, unit).
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    let m = Json::obj(vec![
                        ("value", Json::Num(*value)),
                        ("unit", Json::str(unit)),
                    ]);
                    (name.clone(), m)
                })
                .collect(),
        )
    }
}

/// Scenario accounting across every batch of a run.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

impl Tally {
    fn add(&mut self, batch: &Batch) {
        self.attempted += batch.runs.len();
        self.failed += batch.failed();
        for r in &batch.runs {
            self.problems.extend(r.problems.iter().cloned());
        }
    }

    fn failed_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Builds one `Testbed` per config, with a span around each
/// `Testbed::new`; returns the summed construction time in ns.
fn setup_pass(configs: &[TestbedConfig], spans: &Spans, parent: Option<usize>) -> u64 {
    let mut total = 0;
    for (i, c) in configs.iter().enumerate() {
        let id = spans.open("Testbed::new", parent, Some(i));
        let tb = Testbed::new(c.clone());
        total += spans.close(id);
        drop(tb);
    }
    total
}

/// The committed digest to check against: only at the default seed.
fn committed(workload: Workload, seed: u64) -> Option<u64> {
    // A missing entry at the default seed can never match: it fails.
    (seed == DEFAULT_SEED).then(|| workload.committed_digest().unwrap_or(0))
}

/// Runs batches until `seconds` have passed (at least [`MIN_BATCHES`]),
/// checking each against the first and the committed digest.
fn measured_phase(
    workload: Workload,
    seed: u64,
    seconds: f64,
    spans: &Spans,
    tally: &mut Tally,
) -> (Vec<Batch>, u64) {
    let want = committed(workload, seed);
    let t0 = Instant::now();
    let mut batches: Vec<Batch> = Vec::new();
    let mut first = None;
    while batches.len() < MIN_BATCHES || t0.elapsed() < Duration::from_secs_f64(seconds) {
        let mut batch = run_batch(workload, seed, Opts::PLAIN, spans, None);
        let reference = *first.get_or_insert(batch.digest());
        check_digest(&mut batch, reference, want);
        tally.add(&batch);
        batches.push(batch);
    }
    (batches, first.unwrap_or(0))
}

/// The untraced run: end-to-end metrics.
fn untraced(workload: Workload, seed: u64, seconds: f64) -> (Metrics, Tally, u64, Spans) {
    let spans = Spans::default();
    let mut tally = Tally::default();
    let configs = workload.configs(seed);
    let setup: Vec<f64> = (0..SETUP_REPS)
        .map(|_| setup_pass(&configs, &spans, None) as f64 / 1e9)
        .collect();
    let (batches, digest) = measured_phase(workload, seed, seconds, &spans, &mut tally);

    let per_req: Vec<f64> = if workload == Workload::SweepScaling {
        // run_sweep interleaves scenarios on two threads: divide the
        // batch's CPU time by everything it completed.
        batches
            .iter()
            .map(|b| ratio(b.cpu_ns as f64, b.requests() as f64))
            .collect()
    } else {
        batches
            .iter()
            .flat_map(|b| &b.runs)
            .filter(|r| r.requests > 0)
            .map(|r| r.host_ns as f64 / r.requests as f64)
            .collect()
    };
    let mut m = Metrics::default();
    m.add("host_ns_per_req", median(&per_req), "ns");
    let wall: Vec<f64> = batches.iter().map(|b| b.wall_ns as f64 / 1e9).collect();
    let cpu: Vec<f64> = batches.iter().map(|b| b.cpu_ns as f64 / 1e9).collect();
    m.add("wall_s", median(&wall), "s");
    m.add("cpu_s", median(&cpu), "s");
    m.add("setup_s", median(&setup), "s");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
    eprintln!(
        "{}: {} batches, {} scenarios, {} requests per batch",
        workload.name(),
        batches.len(),
        tally.attempted,
        batches.first().map_or(0, Batch::requests)
    );
    (m, tally, digest, spans)
}

/// Sums per-scenario self-profiles: scope name → (calls, total ns).
fn merged_profile(batch: &Batch) -> BTreeMap<&'static str, (u64, u64)> {
    let mut scopes = BTreeMap::new();
    for r in &batch.runs {
        for s in &r.profile.scopes {
            let e = scopes.entry(s.name).or_insert((0u64, 0u64));
            e.0 += s.calls;
            e.1 += s.total.as_nanos() as u64;
        }
    }
    scopes
}

/// The traced run: per-layer metrics. Phases, each a child span of the
/// root: set-up, an untraced reference batch, the traced batch (Profiler
/// and counting allocator on), the observer passes of `blk-storm`, and the
/// replay loops.
fn traced(workload: Workload, seed: u64) -> (Metrics, Tally, u64, Spans) {
    let spans = Spans::default();
    let mut tally = Tally::default();
    let want = committed(workload, seed);
    let root = spans.open("traced_run", None, None);
    let configs = workload.configs(seed);
    let setup: Vec<f64> = (0..3)
        .map(|_| {
            spans.with("setup", Some(root), None, |p| {
                setup_pass(&configs, &spans, Some(p))
            }) as f64
        })
        .collect();

    let pass = |name: &str, opts: Opts, tally: &mut Tally, first: Option<u64>| {
        let mut b = spans.with(name, Some(root), None, |p| {
            run_batch(workload, seed, opts, &spans, Some(p))
        });
        let reference = first.unwrap_or_else(|| b.digest());
        check_digest(&mut b, reference, want);
        tally.add(&b);
        b
    };
    let reference = pass("untraced_batch", Opts::PLAIN, &mut tally, None);
    let digest = reference.digest();
    let profiled = Opts {
        profile: true,
        ..Opts::PLAIN
    };
    let a0 = allocs();
    count_allocs(true);
    let traced = pass("traced_batch", profiled, &mut tally, Some(digest));
    count_allocs(false);
    let n_allocs = allocs() - a0;
    // Observer overheads: only blk-storm runs with observers on; on the
    // other workloads they are off and cost nothing.
    let (oracle_frac, telemetry_frac) = if workload == Workload::BlkStorm {
        let with = |observers| Opts {
            observers,
            ..Opts::PLAIN
        };
        let oracle = pass(
            "oracle_only_batch",
            with(Observers::OracleOnly),
            &mut tally,
            Some(digest),
        );
        let neither = pass(
            "neither_batch",
            with(Observers::Neither),
            &mut tally,
            Some(digest),
        );
        (
            ratio(oracle.wall_ns as f64, neither.wall_ns as f64) - 1.0,
            ratio(reference.wall_ns as f64, oracle.wall_ns as f64) - 1.0,
        )
    } else {
        (0.0, 0.0)
    };

    let reqs = traced.requests() as f64;
    let per_req = |n: u64| ratio(n as f64, reqs);
    let sum = |f: &dyn Fn(&workloads::Run) -> u64| traced.runs.iter().map(f).sum::<u64>();
    let prof = merged_profile(&traced);
    let scope = |name: &str| prof.get(name).copied().unwrap_or((0, 0));
    let mean_ns = |name: &str| {
        let (calls, total) = scope(name);
        ratio(total as f64, calls as f64)
    };
    let chains = sum(&|r| r.ring_ops.chains_published);
    let kicks = sum(&|r| r.ring_ops.driver_kicks);
    let suppressed = sum(&|r| r.ring_ops.kicks_suppressed);
    let rr = sum(&|r| r.rr);
    let blk = sum(&|r| r.blk);
    let msgs = sum(&|r| r.vrio_msgs);
    let sent = sum(&|r| r.rel.block_sent);
    let scope_calls: u64 = prof.values().map(|(calls, _)| calls).sum();
    let ring = RingConfig::split_basic();

    let timed_replay =
        |name: &str, f: &dyn Fn() -> f64| spans.with(name, Some(root), None, |_| f());
    let scope_ns = timed_replay("replay.profiler_scope", &|| {
        replay::profiler_scope_ns(replay::sized(scope_calls))
    });
    let chain_ns = timed_replay("replay.chain", &|| {
        replay::chain_ns(ring, replay::sized(chains))
    });
    let net_ns = timed_replay("replay.net_rr", &|| {
        replay::net_rr_ns(ring, replay::sized(rr))
    });
    let blk_ns = timed_replay("replay.blk_4k", &|| {
        replay::blk_4k_ns(ring, replay::sized(blk))
    });
    let disk_ns = timed_replay("replay.ramdisk_4k", &|| {
        replay::ramdisk_4k_ns(replay::sized(blk))
    });
    let proto_ns = timed_replay("replay.proto", &|| replay::proto_ns(replay::sized(msgs)));
    spans.close(root);

    let all = spans.snapshot();
    let traced_id = all
        .iter()
        .position(|s| s.name == "traced_batch")
        .expect("traced batch span");
    let scenario_ns: Vec<u64> = all
        .iter()
        .filter(|s| s.parent == Some(traced_id) && s.name != "check")
        .map(|s| s.dur_ns())
        .collect();
    let busy: u64 = scenario_ns.iter().sum();
    let traced_wall = all[traced_id].dur_ns() as f64;
    let threads = workload.threads() as f64;

    let mut m = Metrics::default();
    m.add(
        "vrio-sim.events_per_req",
        per_req(scope("engine.callback").0),
        "events/req",
    );
    m.add("vrio-sim.pop_ns", mean_ns("engine.pop"), "ns");
    m.add("vrio-sim.push_ns", mean_ns("engine.push"), "ns");
    m.add("vrio-sim.callback_ns", mean_ns("engine.callback"), "ns");
    m.add("vrio-sim.allocs_per_req", per_req(n_allocs), "allocs/req");
    m.add("vrio-sim.profiler_scope_ns", scope_ns, "ns");
    m.add("vrio-virtio.chains_per_req", per_req(chains), "chains/req");
    m.add("vrio-virtio.kicks_per_req", per_req(kicks), "kicks/req");
    m.add(
        "vrio-virtio.kick_suppressed_frac",
        ratio(suppressed as f64, (kicks + suppressed) as f64),
        "frac",
    );
    m.add("vrio-virtio.chain_ns", chain_ns, "ns");
    m.add(
        "vrio-virtio.chain_ns_per_req",
        chain_ns * per_req(chains),
        "ns/req",
    );
    m.add("vrio-hv.net_rr_ns", net_ns, "ns");
    m.add("vrio-hv.net_rr_ns_per_req", net_ns * per_req(rr), "ns/req");
    m.add("vrio-hv.blk_4k_ns", blk_ns, "ns");
    m.add("vrio-hv.blk_4k_ns_per_req", blk_ns * per_req(blk), "ns/req");
    m.add("vrio-block.ramdisk_4k_ns", disk_ns, "ns");
    m.add(
        "vrio-block.ramdisk_4k_ns_per_req",
        disk_ns * per_req(blk),
        "ns/req",
    );
    m.add(
        "vrio-net.injected_loss_frac",
        ratio(sum(&|r| r.rel.injected_losses) as f64, sent as f64),
        "frac",
    );
    m.add("vrio.proto_ns", proto_ns, "ns");
    m.add("vrio.proto_ns_per_req", proto_ns * per_req(msgs), "ns/req");
    m.add(
        "vrio.retx_frac",
        ratio(sum(&|r| r.rel.retransmissions) as f64, sent as f64),
        "frac",
    );
    m.add(
        "vrio.stale_frac",
        ratio(sum(&|r| r.rel.stale_responses) as f64, sent as f64),
        "frac",
    );
    m.add(
        "vrio.device_errors",
        sum(&|r| r.rel.device_errors) as f64,
        "count",
    );
    m.add("vrio.oracle_overhead_frac", oracle_frac, "frac");
    m.add("vrio-trace.telemetry_overhead_frac", telemetry_frac, "frac");
    m.add("vrio-trace.probe_ns", mean_ns("engine.probe"), "ns");
    m.add(
        "vrio-trace.telemetry_sample_us",
        mean_ns("telemetry.sample") / 1e3,
        "us",
    );
    m.add(
        "vrio-bench.setup_ms_per_testbed",
        median(&setup) / configs.len() as f64 / 1e6,
        "ms",
    );
    m.add(
        "vrio-bench.scenario_ms_max",
        scenario_ns.iter().copied().max().unwrap_or(0) as f64 / 1e6,
        "ms",
    );
    m.add(
        "vrio-bench.sweep_idle_frac",
        1.0 - ratio(busy as f64, threads * traced_wall),
        "frac",
    );
    m.add(
        "bench.tracing_overhead_frac",
        ratio(traced.wall_ns as f64, reference.wall_ns as f64) - 1.0,
        "frac",
    );
    m.add(
        "bench.span_coverage_frac",
        child_coverage(&all, root),
        "frac",
    );
    m.add("bench.failed_frac", tally.failed_frac(), "frac");
    (m, tally, digest, spans)
}

/// `nproc`, CPU model and `rustc -V`: results compare only within one.
fn fingerprint() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    Json::obj(vec![
        ("nproc", Json::int(nproc as u64)),
        ("cpu", Json::str(&cpu)),
        ("rustc", Json::str(&rustc)),
    ])
}

/// Shows that the check fails what it should: a clean scenario passes, a
/// perturbed committed digest fails its batch, and an injected oracle
/// violation fails its scenario. Returns the process exit code.
fn self_test() -> i32 {
    let short = SimDuration::millis(5);
    let clean = rr_run(&netperf_rr(rr_rack_config(DEFAULT_SEED), short), 1);
    let digest_of = |runs: Vec<workloads::Run>| Batch {
        runs,
        ..Batch::default()
    };

    let mut tally = Tally::default();
    let mut pass = digest_of(vec![clean.clone()]);
    let d = pass.digest();
    check_digest(&mut pass, d, Some(d));
    tally.add(&pass);
    let clean_ok = pass.failed() == 0;

    let mut perturbed = digest_of(vec![clean]);
    check_digest(&mut perturbed, d, Some(d ^ 1));
    tally.add(&perturbed);
    let perturbed_caught = perturbed.failed() == 1;

    let r = run_filebench(
        blk_storm_config(DEFAULT_SEED, Observers::Both),
        BLK_PERSONALITY,
        short,
    );
    r.oracle
        .check_bytes("self-test injected corruption", b"payload", b"pAyload");
    let violated = digest_of(vec![blk_run(&r, 1)]);
    tally.add(&violated);
    let violation_caught = violated.failed() == 1;

    for (what, ok) in [
        ("clean scenario passes", clean_ok),
        ("perturbed digest raises failed_frac", perturbed_caught),
        (
            "injected oracle violation raises failed_frac",
            violation_caught,
        ),
    ] {
        println!("{} {what}", if ok { "ok  " } else { "FAIL" });
    }
    for p in &tally.problems {
        println!("     caught: {p}");
    }
    println!(
        "failed_frac {}/{} = {:.4}",
        tally.failed,
        tally.attempted,
        tally.failed_frac()
    );
    if clean_ok && perturbed_caught && violation_caught {
        0
    } else {
        1
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.self_test {
        std::process::exit(self_test());
    }
    let workload = args.workload.expect("checked by parse_args");
    let fp = fingerprint();
    println!("fingerprint {}", fp.render());
    let (metrics, tally, digest, spans) = if args.trace {
        traced(workload, args.seed)
    } else {
        untraced(workload, args.seed, args.seconds)
    };
    println!(
        "digest {} seed={} {digest:016x}",
        workload.name(),
        args.seed
    );
    for p in tally.problems.iter().take(10) {
        eprintln!("FAILED: {p}");
    }
    let result = Json::obj(vec![
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::int(tally.attempted as u64)),
        ("failed", Json::int(tally.failed as u64)),
        ("metrics", metrics.to_json()),
    ]);

    let tag = format!(
        "{}-seed{}-trace{}",
        workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let saved = Json::obj(vec![
        ("workload", Json::str(workload.name())),
        ("seed", Json::int(args.seed)),
        ("trace", Json::Bool(args.trace)),
        ("digest", Json::str(&format!("{digest:016x}"))),
        ("fingerprint", fp),
        ("result", result.clone()),
    ]);
    let write = |name: String, body: String| {
        let path = args.out_dir.join(name);
        if let Err(e) =
            std::fs::create_dir_all(&args.out_dir).and_then(|()| std::fs::write(&path, body))
        {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    };
    write(format!("result-{tag}.json"), saved.render_pretty());
    if args.trace {
        write(format!("spans-{tag}.json"), spans.to_json().render());
    }
    println!("{}", result.render());
}
