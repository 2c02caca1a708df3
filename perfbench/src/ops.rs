//! The three workloads and their untraced op: scenario → capture →
//! analysis → rendered output, through the public `hwprof` API exactly
//! as a user drives it.

use hwprof::analysis::{summary_report, Analyzer, Profile, Reconstruction};
use hwprof::instrument::ModuleSelect;
use hwprof::kernel386::kernel::Kernel;
use hwprof::profiler::BoardConfig;
use hwprof::{
    build_tagfile, scenarios, Capture, Experiment, RecorderConfig, Scenario, SentinelConfig,
    SentinelHandle, SupervisorPolicy,
};

use crate::stats::Fnv;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1993;
/// A second seed, not used while the benchmark was tuned, for the
/// smoke test.
#[cfg(test)]
pub const HELD_OUT_SEED: u64 = 424_242;

/// Bytes the remote host streams in the saturated TCP receive (the
/// paper's Fig. 3 run).
const RECEIVE_BYTES: u64 = 4 << 20;
/// Iterations of the mixed network / vfork+exec / disk workload.
const MIXED_ITERATIONS: usize = 16;
/// RAM depth, in events, of the board that holds a whole run.
const WHOLE_RUN_RAM: usize = 1 << 21;
/// Records per drained bank: half the stock 16384-event RAM.
pub const BANK_RECORDS: usize = 8192;
/// `live_watch` transport failure rate (5%).
const FLAKY_PPM: u32 = 50_000;
/// `live_watch` recorder windows: 100 ms wide, 64 retained.
const WINDOW_US: u64 = 100_000;
const RETAIN_WINDOWS: usize = 64;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fig. 3 saturated receive, streamed through one analysis worker,
    /// ending in the summary report.  No timeline is rendered.
    Fig3Stream,
    /// Mixed multi-process workload captured whole, batch-analysed and
    /// rendered through every timeline renderer.
    Fig4Export,
    /// Saturated receive under supervision with a flaky transport, a
    /// flight recorder and the sentinel, then range/diff queries.
    LiveWatch,
}

/// A workload at one seed.  The simulated scenarios are fixed; the
/// seed drives `live_watch`'s supervisor (transport failures and
/// backoff jitter).
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
}

impl Workload {
    /// Every workload name, in report order.
    pub const NAMES: [&'static str; 3] = ["fig3_stream", "fig4_export", "live_watch"];

    /// Parses a workload name.
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        let kind = match name {
            "fig3_stream" => Kind::Fig3Stream,
            "fig4_export" => Kind::Fig4Export,
            "live_watch" => Kind::LiveWatch,
            _ => return None,
        };
        Some(Workload { kind, seed })
    }

    /// The workload's name.
    pub fn name(&self) -> &'static str {
        Self::NAMES[self.kind as usize]
    }

    /// The workload's scenario.
    pub fn scenario(&self) -> Scenario {
        match self.kind {
            Kind::Fig3Stream | Kind::LiveWatch => scenarios::network_receive(RECEIVE_BYTES, true),
            Kind::Fig4Export => scenarios::mixed(MIXED_ITERATIONS),
        }
    }

    /// The profiled experiment on the stock board.
    pub fn experiment(&self) -> Experiment {
        Experiment::new().scenario(self.scenario())
    }

    /// The supervisor policy of `live_watch`: seeded 5% flaky transport.
    pub fn policy(&self) -> SupervisorPolicy {
        SupervisorPolicy {
            transport_fail_ppm: FLAKY_PPM,
            seed: self.seed,
            ..SupervisorPolicy::default()
        }
    }
}

/// The recorder configuration of `live_watch`.
pub fn recorder_config() -> RecorderConfig {
    RecorderConfig::builder()
        .window_us(WINDOW_US)
        .retain(RETAIN_WINDOWS)
        .build()
        .expect("100 ms windows retaining 64 is a valid recorder config")
}

/// What an op produced, reduced to what the benchmark checks and
/// reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpOutput {
    /// FNV-1a over every rendered output (see each op).
    pub digest: u64,
    /// Board events the op's capture analysed.
    pub events: u64,
    /// Simulated busy cycles (`machine.now − sched.idle_cycles`).
    pub busy_cycles: u64,
    /// Simulated page faults (identical work check against the twin).
    pub page_faults: u64,
    /// Covered µs of the capture.
    pub covered_us: u64,
    /// Timeline µs the coverage is measured against.
    pub timeline_us: u64,
}

impl OpOutput {
    /// Covered share of the capture's timeline, in percent.
    pub fn coverage_pct(&self) -> f64 {
        self.covered_us as f64 * 100.0 / self.timeline_us.max(1) as f64
    }
}

/// The rendered outputs of one op, produced inside the timed window
/// and hashed after it.
pub struct Rendered {
    texts: Vec<String>,
    recon: Reconstruction,
    kernel: Kernel,
    covered_us: u64,
    timeline_us: u64,
}

impl Rendered {
    /// Board captures cover the time their sessions span, against the
    /// whole simulated run.
    pub fn board(texts: Vec<String>, recon: Reconstruction, kernel: Kernel) -> Rendered {
        let covered_us = recon.total_elapsed;
        let timeline_us = kernel.now_us();
        Rendered {
            texts,
            recon,
            kernel,
            covered_us,
            timeline_us,
        }
    }

    /// Supervised captures carry their own exact coverage ledger.
    pub fn supervised(texts: Vec<String>, recon: Reconstruction, kernel: Kernel) -> Rendered {
        let covered_us = recon.coverage.covered_us;
        let timeline_us = recon.coverage.timeline_us;
        Rendered {
            texts,
            recon,
            kernel,
            covered_us,
            timeline_us,
        }
    }

    /// The reconstruction the outputs were rendered from.
    pub fn recon(&self) -> &Reconstruction {
        &self.recon
    }

    /// Hashes the outputs and reads the simulated counters.
    pub fn output(&self) -> OpOutput {
        let mut h = Fnv::default();
        for t in &self.texts {
            h.text(t);
        }
        h.u64(recon_digest(&self.recon));
        OpOutput {
            digest: h.finish(),
            events: self.recon.tags as u64,
            busy_cycles: busy_cycles(&self.kernel),
            page_faults: self.kernel.stats.page_faults,
            covered_us: self.covered_us,
            timeline_us: self.timeline_us,
        }
    }
}

/// Simulated busy cycles of a finished run.
pub fn busy_cycles(k: &Kernel) -> u64 {
    k.machine.now - k.sched.idle_cycles
}

/// Digest of a reconstruction's aggregates: every counter, every
/// per-function aggregate, the call graph in sorted order and the
/// trace length.  (The trace itself is covered by the renderers on the
/// workloads that render it, and by the streaming == batch equality.)
pub fn recon_digest(r: &Reconstruction) -> u64 {
    let mut h = Fnv::default();
    for v in [
        r.total_elapsed,
        r.idle,
        r.tags as u64,
        r.context_switches,
        r.swtch_calls,
        r.unmatched_exits,
        r.unknown_tags,
        r.open_at_end,
        r.births,
        r.trace.len() as u64,
        r.sessions as u64,
        r.anomalies.total(),
    ] {
        h.u64(v);
    }
    for a in &r.stats {
        for v in [
            a.calls,
            a.inline_hits,
            a.elapsed,
            a.net,
            a.max_net,
            a.min_net,
        ] {
            h.u64(v);
        }
    }
    let mut edges: Vec<_> = r.edges.iter().collect();
    edges.sort_unstable();
    for (&(from, to), &n) in edges {
        h.u64(u64::from(from)).u64(u64::from(to)).u64(n);
    }
    h.text(&format!("{:?}", r.coverage));
    h.finish()
}

/// Runs one untraced op.
pub fn run_op(w: &Workload) -> Result<Rendered, String> {
    match w.kind {
        Kind::Fig3Stream => {
            let cap = w
                .experiment()
                .try_run_streaming(1)
                .map_err(|e| e.to_string())?;
            let summary = summary_report(&cap.profile, None);
            Ok(Rendered::board(vec![summary], cap.profile, cap.kernel))
        }
        Kind::Fig4Export => {
            let cap = capture_whole_run(w)?;
            let r = Analyzer::for_tagfile(&cap.tagfile)
                .record_sessions([cap.records.as_slice()])
                .map_err(|e| e.to_string())?;
            let p = Profile::new(&r);
            let texts = vec![p.chrome_trace(), p.speedscope(), p.folded(), p.html()];
            Ok(Rendered::board(texts, r, cap.kernel))
        }
        Kind::LiveWatch => {
            let h = w
                .experiment()
                .watch(w.policy(), recorder_config(), SentinelConfig::default())
                .map_err(|e| e.to_string())?;
            let texts = live_outputs(&h)?;
            let (_, handle) = h.into_parts();
            Ok(Rendered::supervised(texts, handle.profile, handle.kernel))
        }
    }
}

/// `live_watch`'s queries and renders over a finished watch: the alert
/// journal, the recorder ledger, a range rollup over every retained
/// window, the first-vs-last retained window diff, and the diff and
/// profile HTML.
fn live_outputs(h: &SentinelHandle) -> Result<Vec<String>, String> {
    let rec = h.handle();
    let (range, diff) = query(rec.recorder())?;
    Ok(vec![
        h.describe(),
        rec.ledger().describe(),
        range,
        diff.describe(),
        diff.html(),
        h.as_profile().html(),
    ])
}

/// The range and diff queries over a recorder's retained ring.
pub fn query(rec: &hwprof::FlightRecorder) -> Result<(String, hwprof::WindowDiff), String> {
    let retained = rec.retained();
    if retained.end < retained.start + 2 {
        return Err(format!("only {retained:?} windows retained"));
    }
    let range = rec
        .range(retained.clone())
        .ok_or("range over the retained ring is empty")?;
    let diff = rec
        .diff(retained.start, retained.end - 1)
        .ok_or("diff of the retained ring's ends is empty")?;
    Ok((range.as_profile().describe(), diff))
}

/// Simulated busy cycles and page faults of the workload's scenario on
/// an unprofiled, unarmed kernel: the E9 overhead twin.
pub fn unprofiled_twin(w: &Workload) -> Result<(u64, u64), String> {
    let cap = Experiment::new()
        .profile_none()
        .unarmed()
        .scenario(w.scenario())
        .try_run()
        .map_err(|e| e.to_string())?;
    Ok((busy_cycles(&cap.kernel), cap.kernel.stats.page_faults))
}

/// The tag file every op's build compiles (every module profiled).
pub fn tagfile() -> Result<hwprof::tagfile::TagFile, String> {
    build_tagfile(&ModuleSelect::All).map_err(|e| e.to_string())
}

/// The workload's scenario captured into a RAM that holds the whole
/// run, as one session.
pub fn capture_whole_run(w: &Workload) -> Result<Capture, String> {
    let cap = Experiment::new()
        .board(BoardConfig {
            capacity: WHOLE_RUN_RAM,
            ..BoardConfig::default()
        })
        .scenario(w.scenario())
        .try_run()
        .map_err(|e| e.to_string())?;
    if cap.overflowed {
        return Err("whole-run RAM overflowed".into());
    }
    Ok(cap)
}

/// Streaming == batch: `streamed` must equal a batch
/// `Analyzer::record_sessions` over the same capture, taken whole and
/// cut into the banks the streaming board drains.
pub fn check_stream_equals_batch(w: &Workload, streamed: &Reconstruction) -> Result<(), String> {
    let cap = capture_whole_run(w)?;
    let batch = Analyzer::for_tagfile(&cap.tagfile)
        .record_sessions(cap.records.chunks(BANK_RECORDS))
        .map_err(|e| e.to_string())?;
    if &batch != streamed {
        return Err("streamed reconstruction differs from batch record_sessions".into());
    }
    Ok(())
}
