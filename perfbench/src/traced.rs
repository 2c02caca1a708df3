//! The traced run: the same op composed from the layers' public calls,
//! each call timed from outside as a span.
//!
//! Spans (name, start, end, parent, op id) stay in memory and are
//! written at the end as chrome-trace JSON.  Every traced op must
//! reproduce the untraced op's output digest, so it is checked to do
//! the same work; the untraced op runs alternately beside it, and the
//! difference between the two is the tracing overhead.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hwprof::analysis::{
    summary_report, Analyzer, ColumnarDecoder, DenseTagTable, Profile, Reconstruction,
    SessionRecon, StreamAnalyzer, Symbols,
};
use hwprof::profiler::{parse_raw, serialize_raw, BankSink, RawRecord, SupervisedRun};
use hwprof::tagfile::TagFile;
use hwprof::{validate_json, FlightRecorder, Sentinel, SentinelConfig};

use crate::ops::{self, Kind, Rendered, Workload, BANK_RECORDS};
use crate::stats::{calibrate, median, reference_ms};
use crate::{alloc, guarded, metric as m, print_result, Baseline};

/// Directory, relative to the working directory, the span JSON and the
/// full layer table are written to.
const OUT_DIR: &str = ".perfbench_out";

/// One timed call.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// In-memory span recorder.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id` and any span still open inside it.
    fn end(&mut self, id: usize) {
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Times `f` as one leaf span.
    fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Chrome-trace JSON of every span ("X" complete events, µs).
    fn chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {}, \"op\": {}}}}}",
                    s.name,
                    s.start_ns as f64 / 1e3,
                    (s.end_ns - s.start_ns) as f64 / 1e3,
                    s.parent.map_or(-1, |p| p as i64),
                    s.op
                )
            })
            .collect();
        format!(
            "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n{}\n]}}\n",
            events.join(",\n")
        )
    }
}

/// Exact counts a traced op observes at the layer boundaries.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Counts {
    events: u64,
    cswitches: u64,
    banks: u64,
    gaps: u64,
    retries: u64,
    transport_failures: u64,
    banks_lost: u64,
    upload_attempts: u64,
    trace_items: u64,
    alloc_bytes: u64,
    recorder_windows: u64,
    recorder_evicted: u64,
    sentinel_alerts: u64,
    render_bytes: u64,
}

impl Counts {
    /// Counts repeat exactly across traced ops, except the allocated
    /// bytes, which also count the stream worker's own allocations.
    fn repeats(&self, first: &Counts) -> bool {
        Counts {
            alloc_bytes: first.alloc_bytes,
            ..*self
        } == *first
    }
}

/// Bytes allocated while `f` runs, added to `acc`.
fn counting<R>(acc: &mut u64, f: impl FnOnce() -> R) -> R {
    let before = alloc::total_bytes();
    let r = f();
    *acc += alloc::total_bytes() - before;
    r
}

/// Sends the whole-run upload through the uploader's byte format and
/// back: the serialize + parse leg of carrying a RAM to the host.
fn upload(records: &[RawRecord]) -> Result<Vec<RawRecord>, String> {
    parse_raw(&serialize_raw(records)).map_err(|e| format!("upload: {e:?}"))
}

/// The batch fold of `banks`, each one session — decode (8192 records
/// per `extend`), reconstruct and merge each in bank order — then the
/// same banks through a one-worker `StreamAnalyzer`, which must agree
/// exactly.
fn fold(
    tr: &mut Tracer,
    c: &mut Counts,
    tf: &TagFile,
    banks: &[Vec<RawRecord>],
) -> Result<Reconstruction, String> {
    let id = tr.begin("analysis.fold");
    let r = fold_inner(tr, c, tf, banks);
    tr.end(id);
    r
}

fn fold_inner(
    tr: &mut Tracer,
    c: &mut Counts,
    tf: &TagFile,
    banks: &[Vec<RawRecord>],
) -> Result<Reconstruction, String> {
    let table = DenseTagTable::from_tagfile(tf);
    let syms = Symbols::from_tagfile(tf);
    let mut decoder = ColumnarDecoder::new(&table);
    let mut recon = SessionRecon::new(&syms, false);
    let mut out = Reconstruction::empty(syms.clone());
    let mut events = Vec::new();
    let mut alloc_bytes = 0;
    for bank in banks {
        counting(&mut alloc_bytes, || {
            tr.leaf("analysis.decode", || {
                decoder.reset();
                events.clear();
                for chunk in bank.chunks(BANK_RECORDS) {
                    decoder.extend(chunk, &mut events);
                }
            })
        });
        let part = counting(&mut alloc_bytes, || {
            tr.leaf("analysis.recon", || {
                let mut part = Reconstruction::empty(syms.clone());
                recon.session_into(&events, &mut part);
                part.note(&decoder.anomalies());
                part
            })
        });
        counting(&mut alloc_bytes, || {
            tr.leaf("analysis.merge", || out.merge(part))
        });
    }
    let mut stream = counting(&mut alloc_bytes, || {
        tr.leaf("analysis.stream", || {
            let sa = StreamAnalyzer::new(tf, 1);
            let mut feed = sa.feed().map_err(|e| e.to_string())?;
            for bank in banks {
                if !feed.bank(bank.clone()) {
                    return Err("stream pipeline refused a bank".to_string());
                }
            }
            Ok(sa)
        })
    })?;
    let streamed = counting(&mut alloc_bytes, || {
        tr.leaf("analysis.stream_finish", || stream.finish())
    })
    .map_err(|e| e.to_string())?;
    tr.leaf("bench.check", || {
        if streamed == out {
            Ok(())
        } else {
            Err("streamed reconstruction differs from the batch fold".to_string())
        }
    })?;
    c.alloc_bytes += alloc_bytes;
    c.trace_items = out.trace.len() as u64;
    c.cswitches = out.context_switches;
    Ok(out)
}

/// Capture into a RAM that holds the run, then upload it.
fn capture_whole(
    tr: &mut Tracer,
    c: &mut Counts,
    w: &Workload,
) -> Result<(Vec<RawRecord>, hwprof::kernel386::kernel::Kernel), String> {
    let cap = tr.leaf("kernel386.capture", || ops::capture_whole_run(w))?;
    let records = tr.leaf("profiler.upload", || upload(&cap.records))?;
    c.events = records.len() as u64;
    Ok((records, cap.kernel))
}

/// One traced op; returns its rendered outputs (hashed by the caller
/// and compared with the untraced op's) and its layer counts.
fn traced_op(tr: &mut Tracer, w: &Workload) -> Result<(Rendered, Counts), String> {
    let mut c = Counts::default();
    let tf = tr.leaf("core.build", ops::tagfile)?;
    let rendered = match w.kind {
        Kind::Fig3Stream => {
            let (records, kernel) = capture_whole(tr, &mut c, w)?;
            let banks: Vec<Vec<RawRecord>> =
                records.chunks(BANK_RECORDS).map(<[_]>::to_vec).collect();
            c.banks = banks.len() as u64;
            c.upload_attempts = c.banks;
            let r = fold(tr, &mut c, &tf, &banks)?;
            let summary = tr.leaf("render.summary", || summary_report(&r, None));
            c.render_bytes = summary.len() as u64;
            Rendered::board(vec![summary], r, kernel)
        }
        Kind::Fig4Export => {
            let (records, kernel) = capture_whole(tr, &mut c, w)?;
            c.banks = 1;
            c.upload_attempts = 1;
            let r = fold(tr, &mut c, &tf, &[records])?;
            let p = Profile::new(&r);
            let texts = vec![
                tr.leaf("render.chrome", || p.chrome_trace()),
                tr.leaf("render.speedscope", || p.speedscope()),
                tr.leaf("render.folded", || p.folded()),
                tr.leaf("render.html", || p.html()),
            ];
            c.render_bytes = texts.iter().map(|t| t.len() as u64).sum();
            Rendered::board(texts, r, kernel)
        }
        Kind::LiveWatch => return live_watch(tr, c, w, &tf),
    };
    Ok((rendered, c))
}

/// `live_watch` composed: supervised capture, upload of the delivered
/// banks, the stitch (`Analyzer::run`, the call the supervised capture
/// makes itself) and the same stitch as decode/reconstruct/merge, the
/// recorder fed the delivered sessions and gaps, the sentinel scan,
/// queries and HTML.
fn live_watch(
    tr: &mut Tracer,
    mut c: Counts,
    w: &Workload,
    tf: &TagFile,
) -> Result<(Rendered, Counts), String> {
    let cap = tr
        .leaf("profiler.supervised", || {
            w.experiment().supervised(w.policy())
        })
        .map_err(|e| e.to_string())?;
    let banks = tr.leaf("profiler.upload", || {
        cap.run
            .sessions
            .iter()
            .map(|s| upload(&s.records))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let cov = cap.run.coverage;
    c.events = banks.iter().map(|b| b.len() as u64).sum();
    c.banks = banks.len() as u64;
    c.gaps = cov.gaps;
    c.retries = cov.retries;
    c.transport_failures = cov.transport_failures;
    c.banks_lost = cov.banks_lost;
    c.upload_attempts = c.banks + cov.transport_failures;
    let stitched = tr
        .leaf("analysis.stitch", || {
            Analyzer::for_tagfile(tf).run(&cap.run)
        })
        .map_err(|e| e.to_string())?;
    let mut r = fold(tr, &mut c, tf, &banks)?;
    r.note_coverage(&cov);
    tr.leaf("bench.check", || {
        if r == cap.profile && stitched == cap.profile {
            Ok(())
        } else {
            Err("stitch or its layer composition differs from the supervised profile".to_string())
        }
    })?;
    let rec = tr.leaf("analysis.recorder_ingest", || replay(tf, &cap.run));
    let sentinel = tr.leaf("analysis.sentinel_scan", || {
        let mut s = Sentinel::new(SentinelConfig::default());
        s.scan(&rec);
        s
    });
    let (range, diff) = tr.leaf("analysis.recorder_query", || ops::query(&rec))?;
    let (diff_html, html) = tr.leaf("render.html", || {
        let p = Profile::new(&r)
            .run(&cap.run)
            .alerts(sentinel.journal().entries());
        (diff.html(), p.html())
    });
    let ledger = rec.ledger();
    c.recorder_windows = rec.retained().end - rec.retained().start + ledger.evicted_windows;
    c.recorder_evicted = ledger.evicted_windows;
    c.sentinel_alerts = sentinel.journal().len() as u64;
    let texts = vec![
        sentinel.describe(),
        ledger.describe(),
        range,
        diff.describe(),
        diff_html,
        html,
    ];
    c.render_bytes = texts[4..].iter().map(|t| t.len() as u64).sum();
    Ok((Rendered::supervised(texts, r, cap.kernel), c))
}

/// A flight recorder fed a finished run's sessions and gaps in
/// timeline order, as the supervisor delivered them live, then sealed.
fn replay(tf: &TagFile, run: &SupervisedRun) -> FlightRecorder {
    let rec = FlightRecorder::new(tf, ops::recorder_config());
    let mut gaps = run.gaps.iter().peekable();
    for s in &run.sessions {
        while let Some(g) = gaps.next_if(|g| g.start_us < s.start_us) {
            rec.ingest_gap(g);
        }
        rec.ingest_session(s);
    }
    for g in gaps {
        rec.ingest_gap(g);
    }
    rec.seal(run);
    rec
}

/// Per-op layer times of one traced op, calibrated: inclusive and self
/// ms by span name, the op's wall, and the unattributed share of it.
struct OpLayers {
    incl: BTreeMap<&'static str, f64>,
    self_ms: BTreeMap<&'static str, f64>,
    wall_ms: f64,
    unattributed_pct: f64,
}

impl OpLayers {
    /// Inclusive ms of every span named `name` (0 if none ran).
    fn incl_ms(&self, name: &str) -> f64 {
        self.incl.get(name).copied().unwrap_or(0.0)
    }
}

/// Median over traced ops of `f`.
fn per_op(ops: &[OpLayers], f: impl Fn(&OpLayers) -> f64) -> f64 {
    median(&ops.iter().map(f).collect::<Vec<_>>())
}

fn layers(tr: &Tracer, root: usize, cal: f64) -> OpLayers {
    let ms = |ns: u64| calibrate(ns as f64 / 1e6, cal);
    let dur = |s: &Span| s.end_ns - s.start_ns;
    let mut incl = BTreeMap::new();
    let mut self_ms = BTreeMap::new();
    let mut child_ns = vec![0u64; tr.spans.len() - root];
    for s in &tr.spans[root + 1..] {
        if let Some(p) = s.parent {
            child_ns[p - root] += dur(s);
        }
    }
    for (i, s) in tr.spans.iter().enumerate().skip(root + 1) {
        *incl.entry(s.name).or_insert(0.0) += ms(dur(s));
        *self_ms.entry(s.name).or_insert(0.0) += ms(dur(s) - child_ns[i - root]);
    }
    let wall = dur(&tr.spans[root]);
    OpLayers {
        incl,
        self_ms,
        wall_ms: ms(wall),
        unattributed_pct: (wall - child_ns[0]) as f64 * 100.0 / wall.max(1) as f64,
    }
}

/// The traced run: untraced and traced ops alternate for `budget`,
/// reference kernel between every two ops.
pub fn run(w: &Workload, base: &Baseline, budget: Duration) -> ExitCode {
    let mut tr = Tracer::new();
    let start = Instant::now();
    let mut cal_prev = reference_ms();
    let mut cals = vec![cal_prev];
    let mut untraced_ms = Vec::new();
    let mut untraced_raw_ms = Vec::new();
    let mut ops_layers: Vec<OpLayers> = Vec::new();
    let mut counts: Option<Counts> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    while attempted == 0 || start.elapsed() < budget {
        for traced in [false, true] {
            attempted += 1;
            tr.op = attempted;
            let root = tr.spans.len();
            let t = Instant::now();
            let res = guarded(|| {
                if traced {
                    let id = tr.begin("op");
                    let r = traced_op(&mut tr, w);
                    tr.end(id);
                    r.map(|(rendered, c)| (rendered, Some(c)))
                } else {
                    ops::run_op(w).map(|r| (r, None))
                }
            });
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
            let cal_next = reference_ms();
            cals.push(cal_next);
            let cal = (cal_prev + cal_next) / 2.0;
            cal_prev = cal_next;
            let checked = res.and_then(|(r, c)| {
                base.check(&r.output())?;
                match (c, counts) {
                    (Some(c), Some(first)) if !c.repeats(&first) => {
                        Err(format!("layer counts {c:?} differ from {first:?}"))
                    }
                    _ => Ok(c),
                }
            });
            match checked {
                Ok(Some(c)) => {
                    counts.get_or_insert(c);
                    ops_layers.push(layers(&tr, root, cal));
                }
                Ok(None) => {
                    untraced_ms.push(calibrate(wall_ms, cal));
                    untraced_raw_ms.push(wall_ms);
                }
                Err(e) => {
                    // A panic can leave spans open.
                    failed += 1;
                    tr.stack.clear();
                    tr.spans.truncate(root);
                    eprintln!("perfbench: op {attempted} failed: {e}");
                }
            }
        }
    }
    let (Some(c), false) = (counts, untraced_ms.is_empty()) else {
        eprintln!("perfbench: no traced or no untraced op succeeded");
        return ExitCode::FAILURE;
    };
    let json = tr.chrome_json();
    if let Err(e) = validate_json(&json) {
        eprintln!("perfbench: span JSON invalid: {e}");
        return ExitCode::FAILURE;
    }
    let layer_ms = |name: &str| per_op(&ops_layers, |o| o.incl_ms(name));
    let traced_wall = per_op(&ops_layers, |o| o.wall_ms);
    let untraced = median(&untraced_ms);
    // The capture layer is the capture call less the analysis it runs
    // itself: all of a whole-RAM `try_run`, or a supervised run less
    // its stitch (kernel, board and supervisor together).
    let capture_ms = match w.kind {
        Kind::LiveWatch => per_op(&ops_layers, |o| {
            o.incl_ms("profiler.supervised") - o.incl_ms("analysis.stitch")
        }),
        Kind::Fig3Stream | Kind::Fig4Export => layer_ms("kernel386.capture"),
    };
    let render_ms = per_op(&ops_layers, |o| {
        o.incl
            .iter()
            .filter(|(k, _)| k.starts_with("render."))
            .map(|(_, v)| v)
            .sum()
    });
    let ns_per_event = |ms: f64| ms * 1e6 / c.events.max(1) as f64;
    let decode_ms = layer_ms("analysis.decode");
    let recon_ms = layer_ms("analysis.recon");
    let metrics = [
        m("core.build_ms", layer_ms("core.build"), "ms"),
        m("kernel386.capture_ms", capture_ms, "ms"),
        m(
            "kernel386.capture_ns_per_event",
            ns_per_event(capture_ms),
            "ns",
        ),
        m("kernel386.events", c.events as f64, "count"),
        m("kernel386.cswitches", c.cswitches as f64, "count"),
        m("profiler.upload_ms", layer_ms("profiler.upload"), "ms"),
        m("profiler.banks", c.banks as f64, "count"),
        m("profiler.gaps", c.gaps as f64, "count"),
        m("profiler.retries", c.retries as f64, "count"),
        m(
            "profiler.transport_failures",
            c.transport_failures as f64,
            "count",
        ),
        m("profiler.banks_lost", c.banks_lost as f64, "count"),
        m(
            "profiler.delivery_ratio",
            c.banks as f64 / c.upload_attempts.max(1) as f64,
            "ratio",
        ),
        m("analysis.decode_ms", decode_ms, "ms"),
        m(
            "analysis.decode_ns_per_event",
            ns_per_event(decode_ms),
            "ns",
        ),
        m("analysis.recon_ms", recon_ms, "ms"),
        m("analysis.recon_ns_per_event", ns_per_event(recon_ms), "ns"),
        m("analysis.merge_ms", layer_ms("analysis.merge"), "ms"),
        m("analysis.stream_ms", layer_ms("analysis.stream"), "ms"),
        m(
            "analysis.stream_finish_ms",
            layer_ms("analysis.stream_finish"),
            "ms",
        ),
        m("analysis.trace_items", c.trace_items as f64, "count"),
        m(
            "analysis.alloc_mb",
            c.alloc_bytes as f64 / (1024.0 * 1024.0),
            "MiB",
        ),
        m(
            "analysis.recorder_windows",
            c.recorder_windows as f64,
            "count",
        ),
        m(
            "analysis.recorder_evicted",
            c.recorder_evicted as f64,
            "count",
        ),
        m(
            "analysis.sentinel_alerts",
            c.sentinel_alerts as f64,
            "count",
        ),
        m("render.ms", render_ms, "ms"),
        m("render.bytes", c.render_bytes as f64, "count"),
        m("bench.cal_ms", median(&cals), "ms"),
        m("bench.op_wall_ms_p50", median(&untraced_raw_ms), "ms"),
        m(
            "bench.trace_overhead_pct",
            (traced_wall / untraced - 1.0) * 100.0,
            "%",
        ),
        m(
            "bench.unattributed_pct",
            per_op(&ops_layers, |o| o.unattributed_pct),
            "%",
        ),
    ];
    let table = layer_table(w, &ops_layers, untraced, traced_wall);
    eprint!("{table}");
    if let Err(e) = write_out(w, &json, &table) {
        eprintln!("perfbench: writing {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    print_result(failed == 0, attempted, failed, &metrics);
    ExitCode::SUCCESS
}

/// Every span name's per-op median inclusive and self time.
fn layer_table(w: &Workload, ops: &[OpLayers], untraced: f64, traced: f64) -> String {
    let mut names: Vec<&'static str> = ops.iter().flat_map(|o| o.incl.keys().copied()).collect();
    names.sort_unstable();
    names.dedup();
    let mut out = format!(
        "perfbench: {} seed {}: {} traced ops; calibrated ms per op (median)\n{:<28} {:>10} {:>10}\n",
        w.name(),
        w.seed,
        ops.len(),
        "layer",
        "incl",
        "self"
    );
    for n in names {
        let incl = per_op(ops, |o| o.incl_ms(n));
        let self_ms = per_op(ops, |o| o.self_ms.get(n).copied().unwrap_or(0.0));
        out += &format!("{n:<28} {incl:>10.3} {self_ms:>10.3}\n");
    }
    out += &format!(
        "{:<28} {untraced:>10.3}\n{:<28} {traced:>10.3}\n",
        "op (untraced)", "op (traced)"
    );
    out
}

/// Writes the span JSON and the layer table under [`OUT_DIR`].
fn write_out(w: &Workload, json: &str, table: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    let stem = format!("{OUT_DIR}/{}-seed{}", w.name(), w.seed);
    std::fs::write(format!("{stem}.spans.json"), json)?;
    std::fs::write(format!("{stem}.layers.txt"), table)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traced composition renders byte-identical outputs to the
    /// untraced op, and its spans nest and serialize as valid JSON.
    #[test]
    fn traced_op_reproduces_the_untraced_op() {
        for name in Workload::NAMES {
            let w = Workload::new(name, ops::DEFAULT_SEED).expect("known workload");
            let untraced = ops::run_op(&w).expect("op runs").output();
            let mut tr = Tracer::new();
            let root = tr.begin("op");
            let (rendered, counts) = traced_op(&mut tr, &w).expect("traced op runs");
            tr.end(root);
            assert_eq!(rendered.output(), untraced, "{name}");
            assert_eq!(counts.events, untraced.events, "{name}");
            assert!(tr.stack.is_empty());
            assert!(tr.spans.iter().all(|s| s.end_ns >= s.start_ns));
            validate_json(&tr.chrome_json()).expect("span JSON parses");
            let l = layers(&tr, root, crate::stats::REFERENCE_MS);
            assert!((0.0..100.0).contains(&l.unattributed_pct), "{name}");
        }
    }
}
