//! CI validator for the JSON artifacts `repro` emits.
//!
//! ```text
//! checkjson FILE                        # must parse as JSON
//! checkjson FILE --chrome               # must be a Chrome trace-event array
//! checkjson FILE --chrome --require-event vcpu_busy
//! checkjson FILE --telem                # must be a TELEM_* telemetry bundle
//! checkjson FILE --telem --require-track steer.iohost0.worker0.depth
//! checkjson FILE --telem --require-points retx.outstanding 330
//! checkjson FILE --prof                 # must be a PROF_* profile bundle
//! checkjson FILE --require models.vrio.breakdown.stage_sum_us ...
//! ```
//!
//! `--chrome` checks the document is a non-empty array whose elements all
//! carry the `ph`/`ts`/`pid`/`tid`/`name` keys Perfetto's loader requires;
//! `--require-event` (with `--chrome`) demands at least one event of that
//! name.
//! `--telem` checks a `TELEM_*` document: schema version, per-run track
//! objects, `[t_ns, value]` point pairs in non-decreasing time order, and
//! monotone counter tracks. `--require-track` (with `--telem`) demands a
//! named track in at least one run; `--require-points TRACK N` (with
//! `--telem`) demands it too, and exactly `N` points in every run that
//! holds it, so a sampling grid that drops or repeats a sample fails.
//! `--prof` checks a `PROF_*` document's per-scope wall-clock statistics
//! for shape and internal consistency (never for values — profiles are
//! nondeterministic by nature). Each `--require` takes a dotted path
//! that must resolve through nested objects. Exits 0 when every check
//! passes, 1 otherwise.

use vrio_bench::PROF_SCHEMA_VERSION;
use vrio_trace::{Json, TELEM_SCHEMA_VERSION};

fn fail(msg: &str) -> ! {
    eprintln!("checkjson: {msg}");
    std::process::exit(1);
}

/// Checks one embedded telemetry run (`kind: "telemetry"`) and returns its
/// track count. `at` names the run for error messages (`runs.vrio`).
fn check_telemetry_run(run: &Json, file: &str, at: &str) -> usize {
    if run.get("kind").and_then(Json::as_str) != Some("telemetry") {
        fail(&format!("{file}: {at}: \"kind\" is not \"telemetry\""));
    }
    let interval = run
        .get("interval_us")
        .and_then(Json::as_f64)
        .unwrap_or_else(|| fail(&format!("{file}: {at}: missing numeric \"interval_us\"")));
    if interval < 0.0 {
        fail(&format!("{file}: {at}: negative \"interval_us\""));
    }
    let Some(Json::Obj(tracks)) = run.get("tracks") else {
        fail(&format!("{file}: {at}: missing \"tracks\" object"));
    };
    for (name, track) in tracks {
        let kind = track
            .get("kind")
            .and_then(Json::as_str)
            .unwrap_or_else(|| fail(&format!("{file}: {at}: track {name} without \"kind\"")));
        if kind != "gauge" && kind != "counter" {
            fail(&format!(
                "{file}: {at}: track {name} has unknown kind \"{kind}\""
            ));
        }
        let points = track
            .get("points")
            .and_then(Json::as_array)
            .unwrap_or_else(|| {
                fail(&format!(
                    "{file}: {at}: track {name} without \"points\" array"
                ))
            });
        let mut prev: Option<(f64, f64)> = None;
        for (i, p) in points.iter().enumerate() {
            let pair = p.as_array().filter(|a| a.len() == 2).unwrap_or_else(|| {
                fail(&format!(
                    "{file}: {at}: track {name} point {i} is not a [t_ns, value] pair"
                ))
            });
            let (t, v) = (pair[0].as_f64(), pair[1].as_f64());
            let (Some(t), Some(v)) = (t, v) else {
                fail(&format!(
                    "{file}: {at}: track {name} point {i} is not numeric"
                ));
            };
            if t < 0.0 || t.fract() != 0.0 {
                fail(&format!(
                    "{file}: {at}: track {name} point {i} timestamp is not integer nanoseconds"
                ));
            }
            if let Some((pt, pv)) = prev {
                if t < pt {
                    fail(&format!(
                        "{file}: {at}: track {name} point {i} goes back in time"
                    ));
                }
                if kind == "counter" && v < pv {
                    fail(&format!(
                        "{file}: {at}: counter track {name} decreases at point {i}"
                    ));
                }
            }
            prev = Some((t, v));
        }
    }
    tracks.len()
}

/// The `--telem` gate: validates a `TELEM_*` bundle (or a bare telemetry
/// document), any `--require-track` names and any `--require-points`
/// track point counts.
fn telem_gate(
    doc: &Json,
    file: &str,
    require_tracks: &[String],
    require_points: &[(String, usize)],
) {
    let version = doc
        .get("schema_version")
        .and_then(Json::as_f64)
        .unwrap_or_else(|| fail(&format!("{file}: missing numeric \"schema_version\"")));
    if version != TELEM_SCHEMA_VERSION as f64 {
        fail(&format!(
            "{file}: telemetry schema_version {version} (this checker understands \
             {TELEM_SCHEMA_VERSION})"
        ));
    }
    let kind = doc
        .get("kind")
        .and_then(Json::as_str)
        .unwrap_or_else(|| fail(&format!("{file}: missing \"kind\"")));
    // A bundle holds one embedded telemetry document per run; a bare
    // document is a single run.
    let runs: Vec<(String, &Json)> = match kind {
        "telemetry_bundle" => {
            let Some(Json::Obj(runs)) = doc.get("runs") else {
                fail(&format!("{file}: missing \"runs\" object"));
            };
            runs.iter()
                .map(|(name, run)| (format!("runs.{name}"), run))
                .collect()
        }
        "telemetry" => vec![("document".to_string(), doc)],
        other => fail(&format!(
            "{file}: \"kind\" is \"{other}\", expected \"telemetry_bundle\" or \"telemetry\""
        )),
    };
    let mut total = 0usize;
    for (at, run) in &runs {
        total += check_telemetry_run(run, file, at);
    }
    fn track<'a>(run: &'a Json, name: &str) -> Option<&'a Json> {
        run.get("tracks").and_then(|t| t.get(name))
    }
    for name in require_tracks {
        if !runs.iter().any(|(_, run)| track(run, name).is_some()) {
            fail(&format!(
                "{file}: required track \"{name}\" not found in any run"
            ));
        }
    }
    for (name, want) in require_points {
        let mut found = false;
        for (at, run) in &runs {
            let Some(t) = track(run, name) else { continue };
            found = true;
            let got = t
                .get("points")
                .and_then(Json::as_array)
                .map_or(0, <[Json]>::len);
            if got != *want {
                fail(&format!(
                    "{file}: {at}: track \"{name}\" has {got} points, {want} required"
                ));
            }
        }
        if !found {
            fail(&format!(
                "{file}: required track \"{name}\" not found in any run"
            ));
        }
    }
    println!(
        "{file}: valid telemetry, {} run(s), {total} track(s)",
        runs.len()
    );
}

/// The `--prof` gate: validates a `PROF_*` profile bundle's shape.
fn prof_gate(doc: &Json, file: &str) {
    let version = doc
        .get("schema_version")
        .and_then(Json::as_f64)
        .unwrap_or_else(|| fail(&format!("{file}: missing numeric \"schema_version\"")));
    if version != PROF_SCHEMA_VERSION as f64 {
        fail(&format!(
            "{file}: profile schema_version {version} (this checker understands \
             {PROF_SCHEMA_VERSION})"
        ));
    }
    if doc.get("kind").and_then(Json::as_str) != Some("profile") {
        fail(&format!("{file}: \"kind\" is not \"profile\""));
    }
    let Some(Json::Obj(runs)) = doc.get("runs") else {
        fail(&format!("{file}: missing \"runs\" object"));
    };
    let mut total = 0usize;
    for (run_name, run) in runs {
        let Some(Json::Obj(scopes)) = run.get("scopes") else {
            fail(&format!(
                "{file}: runs.{run_name}: missing \"scopes\" object"
            ));
        };
        for (scope_name, scope) in scopes {
            let at = format!("runs.{run_name}.scopes.{scope_name}");
            let field = |key: &str| {
                scope
                    .get(key)
                    .and_then(Json::as_f64)
                    .unwrap_or_else(|| fail(&format!("{file}: {at}: missing numeric \"{key}\"")))
            };
            let (calls, total_us, max_us, mean_us) = (
                field("calls"),
                field("total_us"),
                field("max_us"),
                field("mean_us"),
            );
            if calls < 1.0 {
                fail(&format!("{file}: {at}: recorded scope with zero calls"));
            }
            if total_us < 0.0 || max_us < 0.0 || mean_us < 0.0 {
                fail(&format!("{file}: {at}: negative wall-clock time"));
            }
            // total accumulates every entry, so the longest single entry
            // cannot exceed it (rounding to whole µs gives no slack here).
            if max_us > total_us {
                fail(&format!("{file}: {at}: max_us exceeds total_us"));
            }
        }
        total += scopes.len();
    }
    println!(
        "{file}: valid profile, {} run(s), {total} scope(s)",
        runs.len()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut file: Option<String> = None;
    let mut chrome = false;
    let mut telem = false;
    let mut prof = false;
    let mut requires: Vec<String> = Vec::new();
    let mut require_tracks: Vec<String> = Vec::new();
    let mut require_events: Vec<String> = Vec::new();
    let mut require_points: Vec<(String, usize)> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--chrome" => chrome = true,
            "--telem" => telem = true,
            "--prof" => prof = true,
            "--require" => match it.next() {
                Some(p) => requires.push(p),
                None => fail("--require needs a dotted path argument"),
            },
            "--require-track" => match it.next() {
                Some(p) => require_tracks.push(p),
                None => fail("--require-track needs a track name argument"),
            },
            "--require-event" => match it.next() {
                Some(p) => require_events.push(p),
                None => fail("--require-event needs an event name argument"),
            },
            "--require-points" => match (it.next(), it.next().map(|n| n.parse())) {
                (Some(p), Some(Ok(n))) => require_points.push((p, n)),
                _ => fail("--require-points needs a track name and a point count"),
            },
            _ if a.starts_with("--") => fail(&format!("unknown flag {a}")),
            _ if file.is_none() => file = Some(a),
            _ => fail("more than one input file given"),
        }
    }
    let Some(file) = file else {
        fail(
            "usage: checkjson FILE [--chrome [--require-event NAME]...] \
             [--telem [--require-track NAME]... [--require-points NAME N]...] [--prof] \
             [--require dotted.path]...",
        );
    };
    if !require_tracks.is_empty() && !telem {
        fail("--require-track only applies to --telem mode");
    }
    if !require_points.is_empty() && !telem {
        fail("--require-points only applies to --telem mode");
    }
    if !require_events.is_empty() && !chrome {
        fail("--require-event only applies to --chrome mode");
    }

    let text = std::fs::read_to_string(&file)
        .unwrap_or_else(|e| fail(&format!("cannot read {file}: {e}")));
    let doc =
        Json::parse(&text).unwrap_or_else(|e| fail(&format!("{file} is not valid JSON: {e}")));

    if chrome {
        let arr = doc
            .as_array()
            .unwrap_or_else(|| fail(&format!("{file}: top level is not an array")));
        if arr.is_empty() {
            fail(&format!("{file}: trace array is empty"));
        }
        for (i, ev) in arr.iter().enumerate() {
            for key in ["ph", "ts", "pid", "tid", "name"] {
                if ev.get(key).is_none() {
                    fail(&format!("{file}: event {i} is missing \"{key}\""));
                }
            }
        }
        for name in &require_events {
            let named = |ev: &Json| ev.get("name").and_then(Json::as_str) == Some(name.as_str());
            if !arr.iter().any(named) {
                fail(&format!("{file}: no \"{name}\" event"));
            }
        }
        println!("{file}: valid chrome trace, {} events", arr.len());
    }

    if telem {
        telem_gate(&doc, &file, &require_tracks, &require_points);
    }
    if prof {
        prof_gate(&doc, &file);
    }

    for path in &requires {
        if doc.get_path(path).is_none() {
            fail(&format!("{file}: required path \"{path}\" not found"));
        }
    }
    if !requires.is_empty() {
        println!("{file}: all {} required paths present", requires.len());
    }
    if !chrome && !telem && !prof && requires.is_empty() {
        println!("{file}: valid JSON");
    }
}
