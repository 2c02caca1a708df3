//! One front door to every analysis flavour.
//!
//! The crate grew nine `analyze*` entry points as capture modes were
//! added: one-session and multi-session batch, the explicit iterator
//! fold, the thread-pool fan-out, and the three gap-aware stitched
//! flavours for supervised runs — plus the recovery-mode variants in
//! the `hwprof` facade.  They all compose the same three independent
//! choices, which [`Analyzer`] makes explicit:
//!
//! * **decode/reconstruction mode** — strict, or
//!   [recovering](Analyzer::recovering) (tolerant decode plus
//!   resynchronizing reconstruction, every intervention classified in
//!   [`crate::Anomalies`]);
//! * **schedule** — sequential, or fanned out across
//!   [workers](Analyzer::workers) (bit-identical by the monoid-merge
//!   argument; only the schedule differs);
//! * **trust gate** — an optional [anomaly
//!   budget](Analyzer::limit_ppm) in parts per million of captured
//!   tags, refused with [`AnalyzerError::AnomalyLimit`] when crossed.
//!
//! The old free functions have been deleted (they lived out PRs 4–5 as
//! thin `#[deprecated]` wrappers); every combination they covered (and
//! several they never did, like recovering + parallel) is one builder
//! chain here:
//!
//! ```
//! use hwprof_analysis::Analyzer;
//!
//! let tf = hwprof_tagfile::parse("a/100\nb/102\n").unwrap();
//! let analyzer = Analyzer::for_tagfile(&tf).recovering(true).workers(4);
//! let r = analyzer.records(&[]).unwrap();
//! assert_eq!(r.tags, 0);
//! ```

use std::ops::Range;
use std::sync::Arc;

use hwprof_profiler::{RawRecord, SupervisedRun};
use hwprof_tagfile::TagFile;
use hwprof_telemetry::{Registry, SpanLog};

use crate::columnar::{ColumnarDecoder, DenseTagTable};
use crate::events::{Event, Symbols};
use crate::recon::{Reconstruction, SessionRecon};
use crate::stream::StreamAnalyzer;

/// Why an [`Analyzer`] refused to produce a reconstruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalyzerError {
    /// The capture's classified anomaly rate crossed the configured
    /// [`Analyzer::limit_ppm`] budget: the numbers cannot be trusted.
    AnomalyLimit {
        /// Classified anomalies the pipeline counted.
        anomalies: u64,
        /// Hardware events in the capture.
        tags: u64,
        /// The configured budget, in anomalies per million tags.
        limit_ppm: u32,
    },
    /// A raw-record or supervised-run entry point needs the build's tag
    /// file, but the analyzer was built from bare [`Symbols`]
    /// ([`Analyzer::new`]); use [`Analyzer::for_tagfile`].
    MissingTagFile,
    /// The internal streaming pipeline misbehaved (it cannot, short of
    /// a panicking worker; surfaced as an error rather than a panic).
    PipelineClosed,
}

impl std::fmt::Display for AnalyzerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalyzerError::AnomalyLimit {
                anomalies,
                tags,
                limit_ppm,
            } => write!(
                f,
                "capture too corrupt to trust: {anomalies} anomalies in {tags} tags \
                 (budget {limit_ppm} per million)"
            ),
            AnalyzerError::MissingTagFile => write!(
                f,
                "this entry point decodes raw records and needs the build's tag file; \
                 construct the analyzer with Analyzer::for_tagfile"
            ),
            AnalyzerError::PipelineClosed => {
                write!(f, "internal streaming pipeline closed early")
            }
        }
    }
}

impl std::error::Error for AnalyzerError {}

/// The consolidated analysis front door: mode, schedule and trust gate
/// chosen once, then applied to whatever form the capture arrives in
/// (decoded events, raw records, or a whole supervised run).
#[derive(Debug, Clone)]
#[must_use = "an Analyzer does nothing until an analyze method consumes a capture"]
pub struct Analyzer {
    syms: Symbols,
    tagfile: Option<TagFile>,
    recovering: bool,
    workers: usize,
    limit_ppm: Option<u32>,
    telemetry: Option<Registry>,
    journal: Option<SpanLog>,
}

impl Analyzer {
    /// An analyzer over pre-decoded events: strict, sequential, no
    /// anomaly budget.  Entry points that decode raw records
    /// ([`records`](Analyzer::records), [`run`](Analyzer::run)) need
    /// the tag file too — use [`Analyzer::for_tagfile`] for those.
    pub fn new(syms: &Symbols) -> Self {
        Analyzer {
            syms: syms.clone(),
            tagfile: None,
            recovering: false,
            workers: 1,
            limit_ppm: None,
            telemetry: None,
            journal: None,
        }
    }

    /// An analyzer for captures from a build with this tag file; every
    /// entry point is available.
    pub fn for_tagfile(tf: &TagFile) -> Self {
        Analyzer {
            syms: Symbols::from_tagfile(tf),
            tagfile: Some(tf.clone()),
            recovering: false,
            workers: 1,
            limit_ppm: None,
            telemetry: None,
            journal: None,
        }
    }

    /// Recovery mode: duplicates dropped, corrupt timestamps clamped,
    /// mispaired frames resynchronized, every intervention classified
    /// in [`Reconstruction::anomalies`] instead of corrupting the
    /// numbers silently.
    pub fn recovering(mut self, on: bool) -> Self {
        self.recovering = on;
        self
    }

    /// Fans multi-session work out across `n` threads (contiguous
    /// session blocks, merged in order — bit-identical to sequential).
    /// `0` and `1` both mean sequential.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Refuses the reconstruction with [`AnalyzerError::AnomalyLimit`]
    /// if classified anomalies exceed `ppm` per million captured tags.
    pub fn limit_ppm(mut self, ppm: u32) -> Self {
        self.limit_ppm = Some(ppm);
        self
    }

    /// Registers live pipeline telemetry (the `stream.*` metrics) in
    /// `reg` for entry points that run the streaming worker pool
    /// ([`Analyzer::run_streaming`]).  Off by default; when off, no
    /// atomics are touched anywhere on the analysis path.
    pub fn telemetry(mut self, reg: &Registry) -> Self {
        self.telemetry = Some(reg.clone());
        self
    }

    /// Records per-bank analyze spans into `log` for entry points that
    /// run the streaming worker pool ([`Analyzer::run_streaming`]).
    /// Off by default, like [`Analyzer::telemetry`].
    pub fn journal(mut self, log: &SpanLog) -> Self {
        self.journal = Some(log.clone());
        self
    }

    /// The symbol table this analyzer reconstructs against.
    pub fn symbols(&self) -> &Symbols {
        &self.syms
    }

    /// The unified [`Profile`](crate::Profile) view over a
    /// reconstruction this analyzer produced, pre-loaded with the
    /// configured span journal (if any).  Chain
    /// [`Profile::run`](crate::Profile::run) to place a stitched
    /// result on its supervised timeline.
    pub fn profile<'r>(&self, r: &'r Reconstruction) -> crate::Profile<'r> {
        let p = crate::Profile::new(r);
        match &self.journal {
            Some(log) => p.spans(log),
            None => p,
        }
    }

    /// The base fold every flavour goes through: sessions reconstructed
    /// in isolation, accumulated in order into one result.  A single
    /// arena-backed [`SessionRecon`] serves every session, so the loop
    /// allocates no per-session state (bit-identical to building and
    /// merging per-session `Reconstruction`s — the monoid argument).
    /// Each session is a range of `buf`, which the result's timeline
    /// keeps a share of.
    fn fold(&self, buf: &Arc<Vec<Event>>, spans: &[Range<usize>]) -> Reconstruction {
        let mut out = Reconstruction::empty(self.syms.clone());
        let mut recon = SessionRecon::new(&self.syms, self.recovering);
        for span in spans {
            recon.session_span(buf, span.clone(), &mut out);
        }
        out
    }

    /// The fold fanned out across the configured workers: contiguous
    /// session blocks, block results merged in order.  A merge adds up
    /// the aggregates and concatenates the blocks' kept sessions, so
    /// the calling thread's `workers - 1` merges cost O(functions +
    /// edges + sessions), independent of the event count.
    fn fan_out(&self, buf: &Arc<Vec<Event>>, spans: &[Range<usize>]) -> Reconstruction {
        let workers = self.workers.min(spans.len().max(1));
        if workers <= 1 {
            return self.fold(buf, spans);
        }
        let chunk = spans.len().div_ceil(workers);
        let parts: Vec<Reconstruction> = std::thread::scope(|scope| {
            let handles: Vec<_> = spans
                .chunks(chunk)
                .map(|block| scope.spawn(move || self.fold(buf, block)))
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(part) => part,
                    Err(e) => std::panic::resume_unwind(e),
                })
                .collect()
        });
        let mut out = Reconstruction::empty(self.syms.clone());
        for r in parts {
            out.merge(r);
        }
        out
    }

    /// The trust gate, applied by every public entry point.
    fn gate(&self, r: Reconstruction) -> Result<Reconstruction, AnalyzerError> {
        if let Some(limit_ppm) = self.limit_ppm {
            let anomalies = r.anomalies.total();
            let tags = r.tags as u64;
            if anomalies * 1_000_000 > tags.max(1) * u64::from(limit_ppm) {
                return Err(AnalyzerError::AnomalyLimit {
                    anomalies,
                    tags,
                    limit_ppm,
                });
            }
        }
        Ok(r)
    }

    fn dense_table(&self) -> Result<DenseTagTable, AnalyzerError> {
        Ok(DenseTagTable::from_tagfile(
            self.tagfile.as_ref().ok_or(AnalyzerError::MissingTagFile)?,
        ))
    }

    /// Decodes one raw bank in the configured mode through a shared
    /// columnar decoder, appending its events to `out` and returning
    /// its decode-level anomalies (folded into the reconstruction by the
    /// caller).  The decoder's scratch columns persist across banks;
    /// only its session state resets.
    fn decode_bank(
        &self,
        decoder: &mut ColumnarDecoder<'_>,
        records: &[RawRecord],
        out: &mut Vec<Event>,
    ) -> crate::Anomalies {
        decoder.reset();
        if self.recovering {
            decoder.extend_recovering(records, out);
        } else {
            decoder.extend(records, out);
        }
        decoder.anomalies()
    }

    /// Analyzes one decoded capture session.
    pub fn session(&self, events: &[Event]) -> Result<Reconstruction, AnalyzerError> {
        let (buf, spans) = concat(&[events]);
        self.gate(self.fold(&buf, &spans))
    }

    /// Analyzes several capture sessions (merged in slice order), fanned
    /// out across the configured workers.
    pub fn sessions(&self, sessions: &[Vec<Event>]) -> Result<Reconstruction, AnalyzerError> {
        let (buf, spans) = concat(sessions);
        self.gate(self.fan_out(&buf, &spans))
    }

    /// Analyzes an iterator of capture sessions, folded sequentially in
    /// iteration order, one session in hand at a time.
    pub fn sessions_iter<I>(&self, sessions: I) -> Result<Reconstruction, AnalyzerError>
    where
        I: IntoIterator,
        I::Item: AsRef<[Event]>,
    {
        let mut out = Reconstruction::empty(self.syms.clone());
        let mut recon = SessionRecon::new(&self.syms, self.recovering);
        for s in sessions {
            recon.session_into(s.as_ref(), &mut out);
        }
        self.gate(out)
    }

    /// Decodes and analyzes one uploaded RAM image as a single session.
    /// Needs [`Analyzer::for_tagfile`].
    pub fn records(&self, records: &[RawRecord]) -> Result<Reconstruction, AnalyzerError> {
        self.record_sessions(std::iter::once(records))
    }

    /// Decodes and analyzes several uploaded RAM images (carried
    /// battery-backed RAMs, in swap order), each as one session.  Needs
    /// [`Analyzer::for_tagfile`].
    pub fn record_sessions<I>(&self, banks: I) -> Result<Reconstruction, AnalyzerError>
    where
        I: IntoIterator,
        I::Item: AsRef<[RawRecord]>,
    {
        let table = self.dense_table()?;
        let mut decoder = ColumnarDecoder::new(&table);
        let mut recon = SessionRecon::new(&self.syms, self.recovering);
        let mut out = Reconstruction::empty(self.syms.clone());
        for bank in banks {
            let bank = bank.as_ref();
            let mut events = Vec::with_capacity(bank.len());
            let anomalies = self.decode_bank(&mut decoder, bank, &mut events);
            recon.session_shared(Arc::new(events), &mut out);
            out.note(&anomalies);
        }
        self.gate(out)
    }

    /// Stitches a supervised run: each delivered bank decoded and
    /// reconstructed as one session (fanned out across the configured
    /// workers), merged in bank order, the run's [`Coverage`] ledger
    /// folded in so the report carries its "Coverage" block.  Needs
    /// [`Analyzer::for_tagfile`].
    ///
    /// [`Coverage`]: hwprof_profiler::Coverage
    pub fn run(&self, run: &SupervisedRun) -> Result<Reconstruction, AnalyzerError> {
        let table = self.dense_table()?;
        let mut decoder = ColumnarDecoder::new(&table);
        let mut decode_anoms = crate::Anomalies::default();
        // Every bank decodes straight into one buffer the result keeps.
        let mut buf = Vec::with_capacity(run.sessions.iter().map(|s| s.records.len()).sum());
        let mut spans = Vec::with_capacity(run.sessions.len());
        for s in &run.sessions {
            let start = buf.len();
            decode_anoms.merge(&self.decode_bank(&mut decoder, &s.records, &mut buf));
            spans.push(start..buf.len());
        }
        let mut out = self.fan_out(&Arc::new(buf), &spans);
        out.note(&decode_anoms);
        out.note_coverage(&run.coverage);
        self.gate(out)
    }

    /// Stitches a supervised run through the streaming worker pipeline
    /// (each delivered bank fed as one bank); bit-identical to
    /// [`Analyzer::run`].  Needs [`Analyzer::for_tagfile`].
    pub fn run_streaming(&self, run: &SupervisedRun) -> Result<Reconstruction, AnalyzerError> {
        let tf = self.tagfile.as_ref().ok_or(AnalyzerError::MissingTagFile)?;
        let mut analyzer = if self.recovering {
            StreamAnalyzer::recovering(tf, self.workers)
        } else {
            StreamAnalyzer::new(tf, self.workers)
        };
        if let Some(reg) = &self.telemetry {
            analyzer.set_telemetry(reg);
        }
        if let Some(log) = &self.journal {
            analyzer.set_span_log(log);
        }
        {
            let mut feed = analyzer.feed().map_err(|_| AnalyzerError::PipelineClosed)?;
            for s in &run.sessions {
                if !hwprof_profiler::BankSink::bank(&mut feed, s.records.clone()) {
                    return Err(AnalyzerError::PipelineClosed);
                }
            }
        }
        let mut out = analyzer
            .finish()
            .map_err(|_| AnalyzerError::PipelineClosed)?;
        out.note_coverage(&run.coverage);
        self.gate(out)
    }
}

/// Lays borrowed sessions end to end in one buffer, the one copy a
/// result's timeline keeps (one allocation, not one per session), and
/// returns each session's range in it.
fn concat<S: AsRef<[Event]>>(sessions: &[S]) -> (Arc<Vec<Event>>, Vec<Range<usize>>) {
    let mut buf = Vec::with_capacity(sessions.iter().map(|s| s.as_ref().len()).sum());
    let spans = sessions
        .iter()
        .map(|s| {
            let start = buf.len();
            buf.extend_from_slice(s.as_ref());
            start..buf.len()
        })
        .collect();
    (Arc::new(buf), spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwprof_profiler::RawRecord;

    const TF: &str = "a/100\nb/102\nswtch/200!\n";

    fn rec(tag: u16, time: u32) -> RawRecord {
        RawRecord { tag, time }
    }

    #[test]
    fn session_matches_sessions_and_parallel() {
        let tf = hwprof_tagfile::parse(TF).unwrap();
        let records = [rec(100, 0), rec(102, 20), rec(103, 50), rec(101, 100)];
        let a = Analyzer::for_tagfile(&tf);
        let one = a.records(&records).unwrap();
        let (_, events) = crate::events::decode(&records, &tf);
        assert_eq!(a.session(&events).unwrap(), one);
        assert_eq!(a.sessions(std::slice::from_ref(&events)).unwrap(), one);
        assert_eq!(a.clone().workers(4).sessions(&[events]).unwrap(), one);
        assert_eq!(one.agg("a").unwrap().net, 70);
    }

    #[test]
    fn recovering_mode_classifies_instead_of_miscounting() {
        let tf = hwprof_tagfile::parse(TF).unwrap();
        // A duplicate record and an unknown tag among clean pairs.
        let records = [rec(100, 0), rec(100, 0), rec(0x9999, 5), rec(101, 10)];
        let strict = Analyzer::for_tagfile(&tf).records(&records).unwrap();
        let recovering = Analyzer::for_tagfile(&tf)
            .recovering(true)
            .records(&records)
            .unwrap();
        assert_eq!(recovering.anomalies.duplicates, 1);
        assert_eq!(recovering.anomalies.unknown_tags, 1);
        assert_eq!(recovering.agg("a").unwrap().calls, 1);
        // Strict decode keeps the duplicate as a real (bogus) event.
        assert!(strict.tags >= recovering.tags);
    }

    #[test]
    fn limit_ppm_gates_corrupt_captures() {
        let tf = hwprof_tagfile::parse(TF).unwrap();
        let records = [rec(100, 0), rec(0x9999, 5), rec(101, 10)];
        let lax = Analyzer::for_tagfile(&tf)
            .recovering(true)
            .limit_ppm(1_000_000);
        assert!(lax.records(&records).is_ok());
        let strict = Analyzer::for_tagfile(&tf).recovering(true).limit_ppm(1);
        match strict.records(&records) {
            Err(AnalyzerError::AnomalyLimit {
                anomalies,
                limit_ppm,
                ..
            }) => {
                assert_eq!(anomalies, 1);
                assert_eq!(limit_ppm, 1);
            }
            other => panic!("wanted AnomalyLimit, got {other:?}"),
        }
    }

    #[test]
    fn records_without_tagfile_is_an_error() {
        let tf = hwprof_tagfile::parse(TF).unwrap();
        let syms = Symbols::from_tagfile(&tf);
        let a = Analyzer::new(&syms);
        assert_eq!(a.records(&[]).unwrap_err(), AnalyzerError::MissingTagFile);
        // Event-level entry points still work.
        assert!(a.session(&[]).is_ok());
    }
}
