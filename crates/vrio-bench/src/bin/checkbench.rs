//! CI regression gate for sweep results: diffs a `BENCH_sweep_*.json`
//! against a committed baseline with tolerance bands.
//!
//! ```text
//! checkbench RESULT.json --baseline benches/baseline.json [--tolerance 0.15]
//! ```
//!
//! For every scenario in the baseline, the result must contain
//! the same key, with throughput no more than `tolerance` below the
//! baseline and mean latency (where present) no more than `tolerance`
//! above it. Scenarios only in the result are reported but do not fail the
//! gate (a grown grid is not a regression). The documents must come from
//! the same schema version, spec name, seed and per-scenario duration —
//! comparing across those is meaningless and an error.
//!
//! Exits 0 when every check passes, 1 otherwise.

use vrio_trace::Json;

fn fail(msg: &str) -> ! {
    eprintln!("checkbench: {msg}");
    std::process::exit(1);
}

fn load(path: &str) -> Json {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    Json::parse(&text).unwrap_or_else(|e| fail(&format!("{path} is not valid JSON: {e}")))
}

fn num(doc: &Json, path: &str, file: &str) -> f64 {
    doc.get_path(path)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| fail(&format!("{file}: missing numeric \"{path}\"")))
}

/// A scenario's gated metrics, keyed for comparison.
struct Entry {
    throughput: f64,
    mean_latency_us: Option<f64>,
}

fn scenarios(doc: &Json, file: &str) -> Vec<(String, Entry)> {
    let arr = doc
        .get("scenarios")
        .and_then(Json::as_array)
        .unwrap_or_else(|| fail(&format!("{file}: missing \"scenarios\" array")));
    arr.iter()
        .map(|s| {
            let key = s
                .get("key")
                .and_then(Json::as_str)
                .unwrap_or_else(|| fail(&format!("{file}: scenario without \"key\"")))
                .to_string();
            let throughput = s
                .get("throughput")
                .and_then(Json::as_f64)
                .unwrap_or_else(|| fail(&format!("{file}: scenario {key} without throughput")));
            let mean_latency_us = s.get("mean_latency_us").and_then(Json::as_f64);
            (
                key,
                Entry {
                    throughput,
                    mean_latency_us,
                },
            )
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut file: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut tolerance: Option<f64> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baseline" => match it.next() {
                Some(p) => baseline = Some(p),
                None => fail("--baseline needs a file argument"),
            },
            "--tolerance" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(t) if t >= 0.0 => tolerance = Some(t),
                _ => fail("--tolerance needs a non-negative number"),
            },
            _ if a.starts_with("--") => fail(&format!("unknown flag {a}")),
            _ if file.is_none() => file = Some(a),
            _ => fail("more than one input file given"),
        }
    }
    let (Some(file), Some(baseline_path)) = (file, baseline) else {
        fail("usage: checkbench RESULT.json --baseline FILE [--tolerance 0.15]");
    };
    let tolerance = tolerance.unwrap_or(0.15);

    let result = load(&file);
    let base = load(&baseline_path);

    // Comparing across schema versions or specs is meaningless; refuse.
    for path in ["schema_version", "spec.base_seed", "spec.duration_ms"] {
        let (r, b) = (num(&result, path, &file), num(&base, path, &baseline_path));
        if r != b {
            fail(&format!(
                "{path} differs: result {r} vs baseline {b} — regenerate the baseline \
                 (repro --quick --sweep <spec> --json benches/) if the change is intentional"
            ));
        }
    }
    let spec_name = |doc: &Json, f: &str| -> String {
        doc.get_path("spec.name")
            .and_then(Json::as_str)
            .unwrap_or_else(|| fail(&format!("{f}: missing \"spec.name\"")))
            .to_string()
    };
    if spec_name(&result, &file) != spec_name(&base, &baseline_path) {
        fail("result and baseline come from different sweep specs");
    }

    let got: std::collections::BTreeMap<String, Entry> =
        scenarios(&result, &file).into_iter().collect();
    let expected = scenarios(&base, &baseline_path);

    let mut regressions: Vec<String> = Vec::new();
    let mut checked = 0usize;
    for (key, want) in &expected {
        let Some(have) = got.get(key) else {
            regressions.push(format!("{key}: present in baseline, missing from result"));
            continue;
        };
        checked += 1;
        if have.throughput < want.throughput * (1.0 - tolerance) {
            regressions.push(format!(
                "{key}: throughput regressed {:.4} -> {:.4} (>{:.0}% below baseline)",
                want.throughput,
                have.throughput,
                tolerance * 100.0
            ));
        }
        if let (Some(w), Some(h)) = (want.mean_latency_us, have.mean_latency_us) {
            if h > w * (1.0 + tolerance) {
                regressions.push(format!(
                    "{key}: mean latency regressed {w:.3}us -> {h:.3}us (>{:.0}% above baseline)",
                    tolerance * 100.0
                ));
            }
        }
    }
    let extra: Vec<&String> = got
        .keys()
        .filter(|k| !expected.iter().any(|(e, _)| e == *k))
        .collect();
    if !extra.is_empty() {
        println!(
            "checkbench: note: {} scenario(s) not in baseline (grid grew): {}",
            extra.len(),
            extra
                .iter()
                .map(|s| s.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        );
    }

    if !regressions.is_empty() {
        for r in &regressions {
            eprintln!("checkbench: REGRESSION {r}");
        }
        fail(&format!(
            "{} of {} baseline scenarios regressed beyond ±{:.0}%",
            regressions.len(),
            expected.len(),
            tolerance * 100.0
        ));
    }
    println!(
        "checkbench: {checked} scenarios within tolerance ({:.0}%) of {baseline_path}",
        tolerance * 100.0
    );
}
