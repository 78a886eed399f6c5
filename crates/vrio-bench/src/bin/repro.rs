//! The repro harness: regenerates every table and figure of
//! "Paravirtual Remote I/O" (ASPLOS 2016).
//!
//! ```text
//! repro --all            # everything (full preset)
//! repro --quick --all    # everything, short runs
//! repro --quick --all --threads 2
//!                        # the experiments run across 2 OS threads
//!                        # (default 4); stdout and every file written
//!                        # are byte-identical for any thread count
//! repro --fig7 --tab3    # selected experiments
//! repro --quick --tab3 --trace /tmp/t --json /tmp/j
//!                        # ...plus the instrumented observability pass:
//!                        # TRACE_tab3.json (Perfetto) and BENCH_tab3.json
//! repro --quick --sweep smoke --threads 4 --json benches
//!                        # the parallel sweep engine: expands the named
//!                        # grid, runs it across 4 OS threads, and emits
//!                        # BENCH_sweep_smoke.json (byte-identical for any
//!                        # thread count)
//! repro --quick --chaos primary-kill --threads 4 --json benches
//!                        # the chaos-schedule engine: run the named
//!                        # campaign's replicas (outages, loss storms,
//!                        # surges) with the oracle on and emit
//!                        # BENCH_chaos_primary-kill.json (byte-identical
//!                        # for any thread count)
//! repro --quick --tab3 --oracle --json /tmp/j
//!                        # ...with the simulation oracle: every run is
//!                        # checked against the conservation invariants
//!                        # (observe-only — the output bytes are identical)
//! repro --quick --tab3 --telemetry --json /tmp/j
//!                        # ...with continuous telemetry sampling: emits a
//!                        # TELEM_tab3.json track bundle and counter tracks
//!                        # in the Chrome trace (observe-only — every
//!                        # BENCH_* document stays byte-identical)
//! repro --quick --tab3 --profile --json /tmp/j
//!                        # ...with the wall-clock self-profiler: emits
//!                        # PROF_tab3.json (host time; excluded from every
//!                        # byte-identity gate)
//! ```

use vrio_bench::*;
use vrio_trace::Json;

/// Tracks every file written so the run can list them at exit, and turns
/// write failures into a clear message instead of a panic.
#[derive(Default)]
struct Outputs {
    written: Vec<String>,
}

impl Outputs {
    fn ensure_dir(dir: &str) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("repro: cannot create output directory {dir}: {e}");
            std::process::exit(1);
        }
    }

    fn write(&mut self, path: String, content: &str) {
        if let Err(e) = std::fs::write(&path, content) {
            eprintln!("repro: cannot write {path}: {e}");
            std::process::exit(1);
        }
        self.written.push(path);
    }

    fn report(&self) {
        if !self.written.is_empty() {
            println!("\nfiles written:");
            for f in &self.written {
                println!("  {f}");
            }
        }
    }
}

/// Re-tags a `BENCH_*` document's `experiment` key. The instrumented pass
/// itself is experiment-independent (it is the canonical RR lifecycle), so
/// it runs once and is stamped per selected experiment.
fn with_experiment(mut doc: Json, name: &str) -> Json {
    if let Json::Obj(ref mut pairs) = doc {
        for (k, v) in pairs.iter_mut() {
            if k == "experiment" {
                *v = Json::str(name);
            }
        }
    }
    doc
}

/// The value of `r`, or its error on stderr and exit status 2.
fn or_exit<T, E: std::fmt::Display>(r: Result<T, E>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("repro: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut rc = if quick {
        ReproConfig::quick()
    } else {
        ReproConfig::full()
    };

    // --out/--trace/--json DIR, --sweep SPEC, --threads N: each takes a
    // value argument and is removed from the argument list before
    // experiment selection.
    let mut value_flag = |flag: &str| {
        args.iter().position(|a| a == flag).map(|i| {
            let v = args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("{flag} requires an argument");
                std::process::exit(2);
            });
            args.drain(i..=i + 1);
            v
        })
    };
    // --ring LAYOUT: run every experiment over the named virtqueue layout
    // (split | split-eventidx | packed). The default split layout
    // reproduces the seed's output byte-for-byte.
    if let Some(name) = value_flag("--ring") {
        rc.ring = vrio::RingConfig::from_name(&name).unwrap_or_else(|| {
            eprintln!("--ring expects split | split-eventidx | packed, got {name}");
            std::process::exit(2);
        });
    }
    let out_dir = value_flag("--out");
    let trace_dir = value_flag("--trace");
    let json_dir = value_flag("--json");
    let sweep_name = value_flag("--sweep");
    let chaos_name = value_flag("--chaos");
    let threads: usize = value_flag("--threads")
        .map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("--threads requires a positive integer, got {v}");
                std::process::exit(2);
            })
        })
        .unwrap_or(4);
    // Switches, each removed from the argument list before experiment
    // selection.
    let mut switch = |flag: &str| {
        let n = args.len();
        args.retain(|a| a != flag);
        args.len() != n
    };
    // --oracle: run the instrumented pass and any sweep with the
    // simulation oracle enabled (observe-only; panics on violation).
    let oracle = switch("--oracle");
    // --telemetry: sample continuous time-series tracks (observe-only;
    // lands in TELEM_* files, never changes BENCH_* bytes).
    let telemetry = switch("--telemetry");
    // --profile: wall-clock self-profiling (PROF_* files; nondeterministic
    // by nature, so nothing ever byte-diffs them).
    let profile = switch("--profile");
    for dir in [&out_dir, &trace_dir, &json_dir].into_iter().flatten() {
        Outputs::ensure_dir(dir);
    }
    let mut outputs = Outputs::default();

    // `--quick` alone still means "run everything", but a bare sweep or
    // chaos invocation runs only that.
    let all = args.iter().any(|a| a == "--all")
        || (sweep_name.is_none() && chaos_name.is_none() && args.iter().all(|a| a == "--quick"));

    let want = |flag: &str| all || args.iter().any(|a| a == flag);

    type Experiment = (&'static str, fn(ReproConfig) -> String);
    let experiments: [Experiment; 23] = [
        ("--fig1", |_| fig1()),
        ("--fig2", |_| fig2()),
        ("--tab1", |_| tab1()),
        ("--tab2", |_| tab2()),
        ("--fig3", |_| fig3()),
        ("--tab3", tab3),
        ("--fig5", fig5),
        ("--fig7", fig7),
        ("--fig8", fig8),
        ("--tab4", tab4),
        ("--fig9", fig9),
        ("--fig10", fig10),
        ("--fig11", fig11),
        ("--fig12", fig12),
        ("--fig13", fig13),
        ("--fig14", fig14),
        ("--fig15", fig15),
        ("--fig16", fig16),
        ("--hetero", hetero),
        ("--retx", retx_validation),
        ("--failover", failover),
        ("--rings", rings),
        ("--differential", differential),
    ];

    let known: Vec<&str> = experiments.iter().map(|(f, _)| *f).collect();
    for a in &args {
        if a != "--all" && a != "--quick" && !known.contains(&a.as_str()) {
            eprintln!("unknown flag {a}; known: --all --quick {}", known.join(" "));
            std::process::exit(2);
        }
    }

    // The instrumented observability pass (5 traced RR runs) is computed
    // lazily, at most once, when --trace/--json ask for its artifacts.
    let mut obs: Option<ObsReport> = None;

    // The selected experiments run in parallel; each report and its files
    // come out as soon as every experiment before it in the table is done,
    // so every byte is the same at any --threads.
    let selected: Vec<&Experiment> = experiments.iter().filter(|(f, _)| want(f)).collect();
    let mut ran = selected.len();
    let run = |i: usize| (selected[i].0, (selected[i].1)(rc));
    par_for_each_ordered(selected.len(), threads, run, |(flag, report)| {
        println!("{}", "=".repeat(74));
        println!("{report}");
        let name = flag.trim_start_matches("--");
        if let Some(dir) = &out_dir {
            outputs.write(format!("{dir}/{name}.txt"), &report);
        }
        if trace_dir.is_some() || json_dir.is_some() {
            let rep = obs.get_or_insert_with(|| {
                latency_breakdown_instrumented(rc, "all", oracle, telemetry, profile)
            });
            if let Some(dir) = &trace_dir {
                outputs.write(format!("{dir}/TRACE_{name}.json"), &rep.chrome);
            }
            if let Some(dir) = &json_dir {
                let doc = with_experiment(rep.json.clone(), name);
                outputs.write(format!("{dir}/BENCH_{name}.json"), &doc.render_pretty());
                if let Some(telem) = &rep.telemetry {
                    outputs.write(format!("{dir}/TELEM_{name}.json"), telem);
                }
                if let Some(prof) = &rep.profile {
                    outputs.write(format!("{dir}/PROF_{name}.json"), &prof.render_pretty());
                }
            }
        }
    });
    // The parallel sweep engine: expand the named grid, run it across OS
    // threads, emit the schema-versioned BENCH_sweep_*.json. The document
    // is byte-identical for every --threads value (CI diffs 1 vs 4).
    if let Some(name) = &sweep_name {
        let mut spec = or_exit(SweepSpec::named(name, rc));
        spec.oracle = oracle;
        spec.telemetry = telemetry;
        let sweep = or_exit(run_sweep(&spec, threads, true));
        println!("{}", "=".repeat(74));
        println!("{}", sweep.render_text());
        let dir = json_dir.clone().unwrap_or_else(|| ".".to_string());
        outputs.write(
            format!("{dir}/BENCH_sweep_{}.json", spec.name),
            &sweep.to_json().render_pretty(),
        );
        if telemetry {
            outputs.write(
                format!("{dir}/TELEM_sweep_{}.json", spec.name),
                &telemetry_bundle(&sweep.telemetry_runs()),
            );
        }
        ran += 1;
    }
    // The chaos-schedule engine: run the named campaign's replicas across
    // OS threads, emit BENCH_chaos_*.json (byte-identical for any
    // --threads value; every replica runs with the oracle on).
    if let Some(name) = &chaos_name {
        let mut campaign = or_exit(ChaosCampaign::named(name, rc));
        campaign.telemetry = telemetry;
        let chaos = or_exit(run_chaos(&campaign, threads, true));
        println!("{}", "=".repeat(74));
        println!("{}", chaos.render_text());
        let dir = json_dir.clone().unwrap_or_else(|| ".".to_string());
        outputs.write(
            format!("{dir}/BENCH_chaos_{}.json", campaign.name),
            &chaos.to_json().render_pretty(),
        );
        if telemetry {
            let names: Vec<String> = chaos
                .replicas
                .iter()
                .map(|r| format!("r{}", r.replica))
                .collect();
            let runs: Vec<_> = names
                .iter()
                .zip(&chaos.replicas)
                .map(|(name, r)| (name.as_str(), &r.telemetry))
                .collect();
            outputs.write(
                format!("{dir}/TELEM_chaos_{}.json", campaign.name),
                &telemetry_bundle(&runs),
            );
        }
        ran += 1;
    }
    if ran == 0 {
        eprintln!("nothing selected; try --all or one of {}", known.join(" "));
        std::process::exit(2);
    }
    if let Some(rep) = &obs {
        println!("{}", "=".repeat(74));
        println!("{}", rep.text);
    }
    outputs.report();
}
