//! CI benchmark-regression gate.
//!
//! ```text
//! bench_gate <baseline_dir> <fresh_dir> [<fresh_dir>...]
//! ```
//!
//! Reads the checked-in `BENCH_*.json` baselines from `<baseline_dir>`
//! (the repo root) and one or more fresh quick-mode runs.  Several
//! fresh directories are folded into each benchmark's **best**
//! observation first — interference noise only ever slows a run down,
//! so CI runs the benches twice and judges the better pass.  The gate
//! fails (exit 1) when:
//!
//! * any baseline benchmark's calibration-normalized throughput drops
//!   more than the noise threshold (15%, `HWPROF_BENCH_GATE_PCT`
//!   overrides), or vanishes from the fresh run; or
//! * a machine-independent hard invariant breaks within the fresh run
//!   itself: columnar decode must hold >= 3x the scalar oracle, and the
//!   two-worker reconstruction fan-out >= 1.6x the sequential fold.
//!
//! Regenerate baselines after an intentional perf change with:
//!
//! ```text
//! HWPROF_BENCH_QUICK=1 HWPROF_BENCH_JSON=. \
//!     cargo bench -p hwprof-bench --bench analysis_throughput \
//!                                 --bench capture_path \
//!                                 --bench fleet
//! ```

use hwprof_bench::gate::{compare, merge_best, threshold_pct, BenchDoc};
use std::path::Path;
use std::process::ExitCode;

/// The bench binaries the gate covers (their `BENCH_<name>.json`
/// files must exist in both directories).
const GATED_BENCHES: &[&str] = &[
    "analysis_throughput",
    "capture_path",
    "fleet",
    "recorder",
    "sentinel",
];

/// Machine-independent within-run ratios that must hold in the fresh
/// run: (bench, numerator id, denominator id, minimum ratio).
const HARD_INVARIANTS: &[(&str, &str, &str, f64)] = &[
    (
        "analysis_throughput",
        "analysis/decode_hot_16k",
        "analysis/decode_scalar_hot_16k",
        3.0,
    ),
    (
        "analysis_throughput",
        "parallel_reconstruction/parallel_1m/2",
        "parallel_reconstruction/batch_1m",
        1.6,
    ),
];

fn load(dir: &Path, bench: &str) -> Result<BenchDoc, String> {
    let path = dir.join(format!("BENCH_{bench}.json"));
    let json = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    BenchDoc::parse(&json).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let [_, baseline_dir, fresh_dirs @ ..] = &args[..] else {
        eprintln!("usage: bench_gate <baseline_dir> <fresh_dir> [<fresh_dir>...]");
        return ExitCode::FAILURE;
    };
    if fresh_dirs.is_empty() {
        eprintln!("usage: bench_gate <baseline_dir> <fresh_dir> [<fresh_dir>...]");
        return ExitCode::FAILURE;
    }
    let threshold = threshold_pct();
    let mut failed = false;

    for bench in GATED_BENCHES {
        let baseline = match load(Path::new(baseline_dir), bench) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("bench_gate: {e}");
                failed = true;
                continue;
            }
        };
        let mut runs = Vec::new();
        for dir in fresh_dirs {
            match load(Path::new(dir), bench) {
                Ok(doc) => runs.push(doc),
                Err(e) => {
                    eprintln!("bench_gate: {e}");
                    failed = true;
                }
            }
        }
        let Some(fresh) = merge_best(runs) else {
            failed = true;
            continue;
        };
        println!(
            "== {bench}  (threshold {threshold}%, machine factor {:.2}x)",
            fresh.calibration_ns_per_elem / baseline.calibration_ns_per_elem
        );
        for v in compare(&baseline, &fresh, threshold) {
            match v.adjusted_per_sec {
                Some(adj) => println!(
                    "  {:<44} base {:>14.0}/s  adj {:>14.0}/s  {:>+7.1}%  [{}]",
                    v.id,
                    v.baseline_per_sec,
                    adj,
                    v.change_pct,
                    if v.ok { "ok" } else { "REGRESSED" }
                ),
                None => println!(
                    "  {:<44} base {:>14.0}/s  missing from fresh run  [REGRESSED]",
                    v.id, v.baseline_per_sec
                ),
            }
            failed |= !v.ok;
        }
        for &(b, num, den, min) in HARD_INVARIANTS {
            if b != *bench {
                continue;
            }
            match fresh.ratio(num, den) {
                Some(r) => {
                    let ok = r >= min;
                    println!(
                        "  invariant {num} >= {min}x {den}: {r:.2}x  [{}]",
                        if ok { "ok" } else { "BROKEN" }
                    );
                    failed |= !ok;
                }
                None => {
                    println!("  invariant {num} / {den}: benchmarks missing  [BROKEN]");
                    failed = true;
                }
            }
        }
    }

    if failed {
        eprintln!("bench_gate: FAILED");
        ExitCode::FAILURE
    } else {
        println!("bench_gate: ok");
        ExitCode::SUCCESS
    }
}
