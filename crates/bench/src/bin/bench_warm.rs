//! Warm-restart smoke benchmark for CI: per ch4 application, a cold
//! session open over a fresh persist dir versus a warm restart over the
//! same dir (replay the base image + append-log, recompute nothing), plus
//! the per-assert checkpoint cost now that checkpoints append O(delta)
//! records instead of rewriting the whole snapshot.  Emitted to
//! `BENCH_8.json`.
//!
//! The asserted contract, per app:
//!
//! * the warm open reports `snapshot: loaded` and invokes the summarize,
//!   liveness, and classify passes **zero** times — every pass is
//!   persisted since snapshot version 3;
//! * appended checkpoint bytes per assert stay below the whole-image
//!   size a pre-append-log checkpoint used to rewrite each time.
//!
//! Suite-wide, the warm restart must spend at least 5x less on analysis
//! passes than the cold run: cold `passes.total` seconds versus the warm
//! open's residual `passes.total` (near zero — every persisted pass is
//! answered from the snapshot).  The costs a warm open still pays are
//! reported alongside, not hidden in the ratio: `warm_load_secs` (reading
//! and decoding the image — linear in image size, independent of how
//! expensive the facts were to compute) and the wall-clock open times,
//! which both runs dominate with the dynamic profile run that is
//! re-executed per load by design (profile evidence is an observed input,
//! not a derived fact, so persistence deliberately does not capture it).
//!
//! Usage: `bench_warm [min_speedup]`  (runs the ch4 suite at `Scale::Bench`)

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use suif_analysis::{ScheduleOptions, SummaryCache};
use suif_benchmarks::{ch4_apps, Scale};
use suif_server::json::Json;
use suif_server::{Session, SessionConfig, SNAPSHOT_FILE, SNAPSHOT_LOG_FILE};

fn open(source: &str, dir: &Path) -> Session {
    let cfg = SessionConfig {
        opts: ScheduleOptions::sequential(),
        persist_dir: Some(dir.to_path_buf()),
        ..SessionConfig::default()
    };
    Session::open_cfg(source, Arc::new(SummaryCache::new()), cfg).expect("session open")
}

fn snap_i64(s: &Session, field: &str) -> i64 {
    s.stats_json()
        .get("snapshot")
        .and_then(|j| j.get(field))
        .and_then(Json::as_i64)
        .unwrap_or(0)
}

fn snap_f64(s: &Session, field: &str) -> f64 {
    s.stats_json()
        .get("snapshot")
        .and_then(|j| j.get(field))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Total pass seconds of the session's analysis so far.
fn analysis_secs(s: &Session) -> f64 {
    s.stats_json()
        .get("passes")
        .and_then(|p| p.get("total"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn pass_invocations(s: &Session, pass: &str) -> i64 {
    // Zero-traffic passes are omitted from `passes`; absence is zero.
    s.stats_json()
        .get("passes")
        .and_then(|p| p.get(pass))
        .and_then(|p| p.get("invocations"))
        .and_then(Json::as_i64)
        .unwrap_or(0)
}

fn main() {
    let min_speedup: f64 = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("min_speedup"))
        .unwrap_or(5.0);

    let mut rows = Vec::new();
    let mut cold_analysis_total = 0.0f64;
    let mut warm_analysis_total = 0.0f64;
    let mut warm_load_total = 0.0f64;

    for bench in ch4_apps(Scale::Bench) {
        let dir = std::env::temp_dir().join(format!(
            "suif_bench_warm_{}_{}",
            std::process::id(),
            bench.name
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");

        // ---- cold: fresh dir, everything computed and persisted --------
        // The pipeline is demand-driven, so the guru query (not the open)
        // triggers the bulk of the analysis; measure pass seconds after it.
        let t0 = Instant::now();
        let mut s = open(&bench.source, &dir);
        let _ = s.guru_json();
        let cold_open = t0.elapsed().as_secs_f64();
        let cold_analysis = analysis_secs(&s);
        s.checkpoint_json().expect("checkpoint");

        // Per-assert checkpoint cost: each assert appends one O(delta)
        // record; the alternative it replaced rewrote the whole base
        // image every time.
        let base_bytes = std::fs::metadata(dir.join(SNAPSHOT_FILE))
            .expect("base image")
            .len();
        let mut assert_bytes = Vec::new();
        for a in &bench.assertions {
            let before = snap_i64(&s, "appended_bytes");
            let _ = s.assert_json(&a.loop_name, &a.var, !a.privatize);
            assert_bytes.push(snap_i64(&s, "appended_bytes") - before);
        }
        let compactions = snap_i64(&s, "compactions");
        drop(s); // clean shutdown appends any remainder

        // ---- warm: same dir, same program, nothing recomputed ----------
        let t1 = Instant::now();
        let mut s = open(&bench.source, &dir);
        let _ = s.guru_json();
        let warm_open = t1.elapsed().as_secs_f64();
        let warm_analysis = analysis_secs(&s);
        let warm_load = snap_f64(&s, "load_secs");
        let status = s
            .stats_json()
            .get("snapshot")
            .and_then(|j| j.get("status"))
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        assert_eq!(status, "loaded", "{}: warm open must load", bench.name);
        let warm_hits = snap_i64(&s, "warm_hits");
        assert!(warm_hits > 0, "{}: no facts imported", bench.name);
        for pass in ["summarize", "liveness", "classify"] {
            let n = pass_invocations(&s, pass);
            assert_eq!(n, 0, "{}: warm open re-ran {pass}", bench.name);
        }
        drop(s);
        let log_bytes = std::fs::metadata(dir.join(SNAPSHOT_LOG_FILE))
            .map(|m| m.len())
            .unwrap_or(0);
        let _ = std::fs::remove_dir_all(&dir);

        cold_analysis_total += cold_analysis;
        warm_analysis_total += warm_analysis;
        warm_load_total += warm_load;
        let speedup = cold_analysis / warm_analysis.max(1e-6);
        let per_assert: Vec<String> = assert_bytes.iter().map(|b| b.to_string()).collect();
        eprintln!(
            "{:<8} analysis: cold {cold_analysis:.4}s  warm {warm_analysis:.6}s  x{speedup:.0}  \
             [warm load {warm_load:.4}s; open wall: cold {cold_open:.4}s, warm {warm_open:.4}s]  \
             {warm_hits} warm hits, 0 summarize/liveness/classify; \
             base {base_bytes} B, per-assert append [{}] B",
            bench.name,
            per_assert.join(", "),
        );
        for b in &assert_bytes {
            assert!(
                (*b as u64) < base_bytes,
                "{}: appended {b} B per assert, not less than a {base_bytes} B full rewrite",
                bench.name
            );
        }
        rows.push(format!(
            "{{\"name\":\"{}\",\"cold_analysis_secs\":{cold_analysis:.6},\
             \"warm_analysis_secs\":{warm_analysis:.6},\"speedup\":{speedup:.2},\
             \"warm_load_secs\":{warm_load:.6},\
             \"cold_open_secs\":{cold_open:.6},\"warm_open_secs\":{warm_open:.6},\
             \"warm_hits\":{warm_hits},\"warm_invocations\":{{\"summarize\":0,\
             \"liveness\":0,\"classify\":0}},\"full_snapshot_bytes\":{base_bytes},\
             \"appended_bytes_per_assert\":[{}],\"log_bytes\":{log_bytes},\
             \"compactions\":{compactions}}}",
            bench.name,
            per_assert.join(","),
        ));
    }

    let suite_speedup = cold_analysis_total / warm_analysis_total.max(1e-6);
    eprintln!(
        "suite: analysis cold {cold_analysis_total:.4}s  warm {warm_analysis_total:.6}s  \
         x{suite_speedup:.0} (floor x{min_speedup:.1}); warm load {warm_load_total:.4}s"
    );
    assert!(
        suite_speedup >= min_speedup,
        "warm restart analysis speedup x{suite_speedup:.2} below the x{min_speedup} floor"
    );

    let json = format!(
        "{{\"bench\":\"warm_restart\",\"metric\":\"analysis_recompute\",\"apps\":[{}],\
         \"suite\":{{\"cold_analysis_secs\":{cold_analysis_total:.6},\
         \"warm_analysis_secs\":{warm_analysis_total:.6},\
         \"warm_load_secs\":{warm_load_total:.6},\
         \"speedup\":{suite_speedup:.2},\"min_speedup\":{min_speedup}}}}}",
        rows.join(",")
    );
    std::fs::write("BENCH_8.json", &json).expect("write BENCH_8.json");
    println!("{json}");
}
