//! Standards-based trace export.
//!
//! The paper renders its reconstruction as the Figure 4 ASCII report;
//! this module lifts the same [`Reconstruction`] into three formats
//! modern tooling consumes directly:
//!
//! * **Chrome Trace Event JSON** ([`Exporter::chrome_trace`]) — loads
//!   in Perfetto / `chrome://tracing`.  Each capture session becomes a
//!   process, and each thread of control the reconstructor untangled
//!   from the paper's `!`-multiplexed stream becomes a thread lane of
//!   nested `B`/`E` spans.  When a [`SupervisedRun`] is attached,
//!   coverage [`Gap`](hwprof_profiler::Gap)s and mask-ladder moves are
//!   emitted as instant
//!   events on a "capture timeline" process, anomaly totals as a
//!   counter track, and a [`SpanLog`] journal renders as pipeline lanes
//!   (supervisor / transport / analyzer / board) on the same clock — a
//!   supervised run reads as one unified timeline.
//! * **speedscope JSON** ([`Exporter::speedscope`]) — one evented
//!   profile per thread of control.
//! * **folded stacks** ([`Exporter::folded`]) — `a;b;c net_us` lines
//!   for flamegraph tooling, aggregated across the whole run.  The
//!   weights are per-call *net* (exclusive) microseconds, so the folded
//!   total equals the reconstruction's net-time accounting exactly.
//!
//! Output is deterministic: lanes are emitted in (session, lane) order,
//! span-journal events are totally ordered by a fixed key, and all JSON
//! is hand-built with a fixed field order — goldens diff cleanly.
//!
//! Every timestamp is microseconds.  Plain exports place each session
//! at its own µs-from-session-start times; attaching a run re-bases
//! every session at its recorded place on the supervised timeline.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

use hwprof_profiler::{GapCause, SupervisedRun, TagMaskLevel};
use hwprof_telemetry::{SpanEvent, SpanLog, SpanName, SpanPhase, SpanTrack};

use crate::events::SymId;
use crate::recon::{ItemKind, Reconstruction, TraceItem};
use crate::sentinel::AlertEntry;

/// Synthetic pid of the coverage/anomaly overlay process.
const OVERLAY_PID: u64 = 0;
/// Synthetic pid of the span-journal pipeline process.
const PIPELINE_PID: u64 = 1_000_000;

/// Builder that renders a [`Reconstruction`] (plus optional supervised
/// run context and span journal) into the three export formats.
#[derive(Debug, Clone)]
pub struct Exporter<'a> {
    r: &'a Reconstruction,
    run: Option<&'a SupervisedRun>,
    /// Span journal, already in [`sort_spans`] order.
    spans: Cow<'a, [SpanEvent]>,
    alerts: Cow<'a, [AlertEntry]>,
    name: String,
}

impl<'a> Exporter<'a> {
    /// An exporter over a plain reconstruction.
    pub fn new(r: &'a Reconstruction) -> Self {
        Exporter {
            r,
            run: None,
            spans: Cow::Borrowed(&[]),
            alerts: Cow::Borrowed(&[]),
            name: "hwprof".to_string(),
        }
    }

    /// Profile name stamped into the JSON outputs.
    pub fn name(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// Attaches supervised-run context: sessions are re-based onto the
    /// run timeline, and gaps / mask moves / coverage render as overlay
    /// events.
    pub fn run(mut self, run: &'a SupervisedRun) -> Self {
        self.run = Some(run);
        self
    }

    /// Attaches a span journal; its events render as pipeline lanes in
    /// the Chrome trace.
    pub fn spans(self, log: &SpanLog) -> Self {
        let events = log.snapshot();
        self.span_events(events)
    }

    /// Attaches sentinel alert-journal entries; they render as instant
    /// markers on a dedicated overlay lane in the Chrome trace.  An
    /// empty slice leaves every output byte-identical to an exporter
    /// with no alerts attached.
    pub fn alerts(mut self, entries: &[AlertEntry]) -> Self {
        self.alerts = Cow::Owned(entries.to_vec());
        self
    }

    /// Like [`Exporter::spans`], from an already-snapshotted event list.
    pub fn span_events(mut self, mut events: Vec<SpanEvent>) -> Self {
        sort_spans(&mut events);
        self.spans = Cow::Owned(events);
        self
    }

    // ---- shared walk ---------------------------------------------------

    /// Crate-internal constructor for [`Profile`](crate::Profile), the
    /// one place outside this module allowed to assemble an exporter:
    /// every other caller goes through the `Profile` surface.  `spans`
    /// must already be in [`sort_spans`] order.
    pub(crate) fn assemble(
        r: &'a Reconstruction,
        run: Option<&'a SupervisedRun>,
        spans: Cow<'a, [SpanEvent]>,
        alerts: Cow<'a, [AlertEntry]>,
        name: &str,
    ) -> Self {
        Exporter {
            r,
            run,
            spans,
            alerts,
            name: name.to_string(),
        }
    }

    /// First microsecond of the supervised timeline (the exporter's
    /// time origin when a run is attached).
    fn base(&self) -> u64 {
        let Some(run) = self.run else { return 0 };
        run.sessions
            .iter()
            .map(|s| s.start_us)
            .chain(run.gaps.iter().map(|g| g.start_us))
            .min()
            .unwrap_or(0)
    }

    /// Timeline offset added to session-local µs of `session`.
    fn session_offset(&self, session: usize, base: u64) -> u64 {
        self.run
            .and_then(|run| run.sessions.get(session))
            .map(|s| s.start_us.saturating_sub(base))
            .unwrap_or(0)
    }

    /// Last microsecond of the export (for counter tracks).
    fn end_ts(&self) -> u64 {
        if let Some(run) = self.run {
            return run.coverage.timeline_us;
        }
        self.r
            .timeline()
            .iter()
            .map(|it| match it.kind {
                ItemKind::Call { elapsed, .. } => it.t + elapsed,
                _ => it.t,
            })
            .max()
            .unwrap_or(0)
    }

    /// Every symbol name JSON-escaped once, indexed by [`SymId`].
    fn escaped_names(&self) -> Vec<Cow<'a, str>> {
        let syms = &self.r.syms;
        (0..syms.len())
            .map(|i| esc(syms.name(i as SymId)))
            .collect()
    }

    // ---- Chrome Trace Event JSON ---------------------------------------

    /// Chrome Trace Event JSON (object form), loadable in Perfetto or
    /// `chrome://tracing`.
    pub fn chrome_trace(&self) -> String {
        let base = self.base();
        let items = self.r.timeline();
        let lanes = Lanes::new(items);
        let names = self.escaped_names();
        // A begin/end pair is about 140 bytes besides its two names;
        // the metadata and overlay records are 100-200 bytes each.
        let overlay = lanes.lanes.len() * 200
            + self.spans.len() * 110
            + self.alerts.len() * 160
            + self
                .run
                .map_or(0, |r| r.gaps.len() * 200 + r.sessions.len() * 100);
        let mut w = ChromeWriter::new(4096 + overlay + estimate_len(items, &names, 140, 2, 100));
        w.out
            .push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"exporter\":\"");
        push_esc(&mut w.out, &self.name);
        w.out.push_str("\",\"sessions\":");
        push_u64(&mut w.out, self.r.sessions as u64);
        w.out.push_str(",\"context_switches\":");
        push_u64(&mut w.out, self.r.context_switches);
        w.out.push_str("},\"traceEvents\":[");

        // Metadata: name every process and thread lane up front.
        w.meta(OVERLAY_PID, None, |s| s.push_str("capture timeline"));
        w.meta(OVERLAY_PID, Some(0), |s| s.push_str("coverage"));
        if !self.alerts.is_empty() {
            w.meta(OVERLAY_PID, Some(1), |s| s.push_str("alerts"));
        }
        let mut named_session = usize::MAX;
        for lane in &lanes.lanes {
            let session = lane.session;
            if session != named_session {
                named_session = session;
                let bank = self.run.and_then(|r| r.sessions.get(session));
                w.meta(session as u64 + 1, None, |s| {
                    s.push_str("kernel session ");
                    push_u64(s, session as u64);
                    if let Some(b) = bank {
                        s.push_str(" (bank ");
                        push_u64(s, b.index);
                        s.push_str(", ");
                        s.push_str(level_label(b.level));
                        s.push(')');
                    }
                });
            }
            w.meta(session as u64 + 1, Some(u64::from(lane.lane) + 1), |s| {
                s.push_str("control ");
                push_u64(s, u64::from(lane.lane));
            });
        }
        if !self.spans.is_empty() {
            w.meta(PIPELINE_PID, None, |s| s.push_str("capture pipeline"));
            for track in [
                SpanTrack::Supervisor,
                SpanTrack::Transport,
                SpanTrack::Analyzer,
                SpanTrack::Board,
                SpanTrack::Recorder,
            ] {
                w.meta(PIPELINE_PID, Some(u64::from(track.idx()) + 1), |s| {
                    push_esc(s, track.label())
                });
            }
        }

        // Kernel lanes.
        for lane in &lanes.lanes {
            let pid = lane.session as u64 + 1;
            let tid = u64::from(lane.lane) + 1;
            let off = self.session_offset(lane.session, base);
            visit_lane(lanes.items(lane), |cev| match cev {
                CallEv::Open {
                    sym,
                    t,
                    net,
                    elapsed,
                } => {
                    w.event("B", pid, Some(tid), t + off);
                    w.name(&names[sym as usize]);
                    w.out.push_str(",\"args\":{\"net_us\":");
                    push_u64(&mut w.out, net);
                    w.out.push_str(",\"elapsed_us\":");
                    push_u64(&mut w.out, elapsed);
                    w.out.push_str("}}");
                }
                CallEv::Close { sym, t } => {
                    w.event("E", pid, Some(tid), t + off);
                    w.name(&names[sym as usize]);
                    w.out.push('}');
                }
                CallEv::Mark { sym, t } => w.instant(pid, tid, t + off, |s| {
                    s.push_str("== ");
                    s.push_str(&names[sym as usize]);
                }),
                CallEv::OpenEnd { sym, t } => w.instant(pid, tid, t + off, |s| {
                    s.push_str(&names[sym as usize]);
                    s.push_str(" (open at capture end)");
                }),
                CallEv::Switch { t, birth } => w.instant(pid, tid, t + off, |s| {
                    s.push_str(if birth {
                        "switch in (new process)"
                    } else {
                        "switch in"
                    })
                }),
            });
        }

        // Coverage overlay: one slice plus one instant per dark window,
        // and an instant at every mask-level change.
        if let Some(run) = self.run {
            for (i, gap) in run.gaps.iter().enumerate() {
                let ts = gap.start_us.saturating_sub(base);
                let cause = cause_label(gap.cause);
                w.event("X", OVERLAY_PID, Some(0), ts);
                w.out.push_str(",\"dur\":");
                push_u64(&mut w.out, gap.span_us());
                w.out.push_str(",\"name\":\"dark (");
                w.out.push_str(cause);
                w.out.push_str(")\",\"args\":{\"gap\":");
                push_u64(&mut w.out, i as u64);
                w.out.push_str(",\"span_us\":");
                push_u64(&mut w.out, gap.span_us());
                w.out.push_str("}}");
                w.instant(OVERLAY_PID, 0, ts, |s| {
                    s.push_str("gap (");
                    s.push_str(cause);
                    s.push(')');
                });
            }
            let mut level: Option<TagMaskLevel> = None;
            for s in &run.sessions {
                if level != Some(s.level) {
                    level = Some(s.level);
                    w.instant(OVERLAY_PID, 0, s.start_us.saturating_sub(base), |out| {
                        out.push_str("mask level = ");
                        out.push_str(level_label(s.level));
                    });
                }
            }
        }

        // Anomaly totals as a counter track (flat line start -> end).
        let a = &self.r.anomalies;
        for ts in [0, self.end_ts()] {
            w.event("C", OVERLAY_PID, Some(0), ts);
            w.out.push_str(",\"name\":\"anomalies\",\"args\":");
            let mut sep = '{';
            for (key, v) in [
                ("orphan_exits", a.orphan_exits),
                ("unmatched_entries", a.unmatched_entries),
                ("unknown_tags", a.unknown_tags),
                ("time_jumps", a.time_jumps),
                ("duplicates", a.duplicates),
                ("truncations", a.truncations),
            ] {
                w.out.push(sep);
                sep = ',';
                w.out.push('"');
                w.out.push_str(key);
                w.out.push_str("\":");
                push_u64(&mut w.out, v);
            }
            w.out.push_str("}}");
        }

        // Sentinel alert transitions as instant markers on their own
        // overlay lane, in journal order.  The subject is escaped twice,
        // as it always has been: once into the label, once with it.
        for a in self.alerts.iter() {
            w.instant(OVERLAY_PID, 1, a.at_us.saturating_sub(base), |s| {
                push_esc(s, a.transition.label());
                s.push(' ');
                push_esc(s, a.detector.label());
                s.push('(');
                push_esc(s, &esc(&a.subject));
                s.push_str(") delta ");
                s.push(if a.delta < 0 { '-' } else { '+' });
                push_u64(s, a.delta.unsigned_abs());
                s.push(' ');
                push_esc(s, a.detector.unit());
            });
        }

        // Pipeline lanes from the span journal: begin/end pairs render
        // as complete (`X`) slices, instants as instants.
        for span in self.paired_spans(base) {
            let tid = u64::from(span.track.idx()) + 1;
            match span.dur {
                Some(dur) => {
                    w.event("X", PIPELINE_PID, Some(tid), span.ts);
                    w.out.push_str(",\"dur\":");
                    push_u64(&mut w.out, dur);
                }
                None => {
                    w.event("i", PIPELINE_PID, Some(tid), span.ts);
                    w.out.push_str(",\"s\":\"t\"");
                }
            }
            w.out.push_str(",\"name\":\"");
            push_esc(&mut w.out, span.label);
            push_esc(&mut w.out, span.suffix);
            w.out.push_str("\",\"args\":{\"id\":");
            push_u64(&mut w.out, span.id);
            w.out.push_str(",\"arg\":");
            push_u64(&mut w.out, span.arg);
            w.out.push_str("}}");
        }

        w.out.push_str("]}");
        w.out
    }

    /// Span-journal events with begin/end pairs joined and times
    /// re-based onto the export timeline.
    fn paired_spans(&self, base: u64) -> Vec<PairedSpan> {
        let rebase = |ev: &SpanEvent| -> u64 {
            match (ev.track, self.run) {
                // Analysis workers only know bank-relative time; place
                // them at their session's spot on the timeline.
                (SpanTrack::Analyzer, Some(run)) => {
                    let off = run
                        .sessions
                        .get(ev.id as usize)
                        .map(|s| s.start_us.saturating_sub(base))
                        .unwrap_or(0);
                    ev.t_us + off
                }
                (_, Some(_)) => ev.t_us.saturating_sub(base),
                (_, None) => ev.t_us,
            }
        };
        let mut open: BTreeMap<(SpanTrack, SpanName, u64), (u64, u64)> = BTreeMap::new();
        let mut out = Vec::new();
        for ev in self.spans.iter() {
            let ts = rebase(ev);
            let span = |suffix, ts, dur| PairedSpan {
                track: ev.track,
                label: ev.name.label(),
                suffix,
                ts,
                dur,
                id: ev.id,
                arg: ev.arg,
            };
            match ev.phase {
                SpanPhase::Begin => {
                    open.insert((ev.track, ev.name, ev.id), (ts, ev.arg));
                }
                SpanPhase::End => match open.remove(&(ev.track, ev.name, ev.id)) {
                    Some((begin_ts, _)) => {
                        out.push(span("", begin_ts, Some(ts.saturating_sub(begin_ts))))
                    }
                    None => out.push(span(" (unmatched end)", ts, None)),
                },
                SpanPhase::Instant => out.push(span("", ts, None)),
            }
        }
        for ((track, name, id), (ts, arg)) in open {
            out.push(PairedSpan {
                track,
                label: name.label(),
                suffix: " (open at capture end)",
                ts,
                dur: None,
                id,
                arg,
            });
        }
        out.sort_by(|a, b| {
            (a.ts, a.track)
                .cmp(&(b.ts, b.track))
                .then_with(|| a.name_bytes().cmp(b.name_bytes()))
                .then(a.id.cmp(&b.id))
        });
        out
    }

    // ---- speedscope ----------------------------------------------------

    /// speedscope JSON: one evented profile per thread of control.
    pub fn speedscope(&self) -> String {
        let base = self.base();
        let items = self.r.timeline();
        let lanes = Lanes::new(items);
        let names = self.escaped_names();
        // An open/close pair is about 76 bytes; every frame is its name
        // plus 12.
        let frames: usize = names.iter().map(|n| n.len() + 12).sum();
        let mut out = String::with_capacity(4096 + frames + estimate_len(items, &names, 76, 0, 0));
        out.push_str(
            "{\"$schema\":\"https://www.speedscope.app/file-format-schema.json\",\"name\":\"",
        );
        push_esc(&mut out, &self.name);
        out.push_str(
            "\",\"activeProfileIndex\":0,\"exporter\":\"hwprof\",\"shared\":{\"frames\":[",
        );
        for (i, name) in names.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            out.push_str(name);
            out.push_str("\"}");
        }
        out.push_str("]},\"profiles\":[");
        let mut first_profile = true;
        for lane in &lanes.lanes {
            let off = self.session_offset(lane.session, base);
            // Inline marks, unclosed frames and switch points have no
            // evented-profile representation; a lane with no completed
            // call has no profile.
            let evented = |cev| match cev {
                CallEv::Open { sym, t, .. } => Some(('O', sym, t + off)),
                CallEv::Close { sym, t } => Some(('C', sym, t + off)),
                _ => None,
            };
            // The header carries the lane's first and last event time,
            // so a first pass finds them before the events are written.
            let mut span: Option<(u64, u64)> = None;
            visit_lane(lanes.items(lane), |cev| {
                if let Some((_, _, at)) = evented(cev) {
                    span = Some(match span {
                        None => (at, at),
                        Some((first, last)) => (first, last.max(at)),
                    });
                }
            });
            let Some((first, last)) = span else { continue };
            if !first_profile {
                out.push(',');
            }
            first_profile = false;
            out.push_str("{\"type\":\"evented\",\"name\":\"session ");
            push_u64(&mut out, lane.session as u64);
            out.push_str(" control ");
            push_u64(&mut out, u64::from(lane.lane));
            out.push_str("\",\"unit\":\"microseconds\",\"startValue\":");
            push_u64(&mut out, first);
            out.push_str(",\"endValue\":");
            push_u64(&mut out, last);
            out.push_str(",\"events\":[");
            let mut sep = "";
            visit_lane(lanes.items(lane), |cev| {
                if let Some((ty, sym, at)) = evented(cev) {
                    out.push_str(sep);
                    sep = ",";
                    out.push_str("{\"type\":\"");
                    out.push(ty);
                    out.push_str("\",\"frame\":");
                    push_u64(&mut out, u64::from(sym));
                    out.push_str(",\"at\":");
                    push_u64(&mut out, at);
                    out.push('}');
                }
            });
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    // ---- folded stacks -------------------------------------------------

    /// Folded-stack flamegraph text: `a;b;c net_us` per line, sorted,
    /// aggregated over every session and thread of control.  Weights
    /// are per-call net µs, so the column total equals the
    /// reconstruction's total net time exactly.
    pub fn folded(&self) -> String {
        let syms = &self.r.syms;
        let lanes = Lanes::new(self.r.timeline());
        let mut arena = PathArena::default();
        for lane in &lanes.lanes {
            let mut path: Vec<u32> = Vec::new();
            visit_lane(lanes.items(lane), |cev| match cev {
                CallEv::Open { sym, net, .. } => {
                    let node = arena.child(path.last().copied(), sym);
                    path.push(node);
                    // Context-switch frames shape the path but have no
                    // net time of their own in the accounting.
                    if !syms.is_cswitch(sym) {
                        arena.add(node, net);
                    }
                }
                CallEv::Close { .. } => {
                    path.pop();
                }
                _ => {}
            });
        }
        // Each weighted path is spelled out once, then sorted by its
        // text.  Distinct symbol paths can spell the same text (a name
        // holding `;`, or two symbols sharing a name); they merge into
        // one line, as they would keyed by text from the start.
        let mut rows = arena.rows(|sym| syms.name(sym));
        rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut out = String::with_capacity(rows.iter().map(|(p, _)| p.len() + 22).sum());
        let mut rows = rows.into_iter().peekable();
        while let Some((path, mut net)) = rows.next() {
            while let Some((_, more)) = rows.next_if(|(next, _)| *next == path) {
                net += more;
            }
            out.push_str(&path);
            out.push(' ');
            push_u64(&mut out, net);
            out.push('\n');
        }
        out
    }
}

/// The total order the span journal renders in.  Concurrent writers
/// (analysis workers) make the journal's slot order nondeterministic;
/// a total order on the event value itself makes every export
/// deterministic.
pub(crate) fn sort_spans(events: &mut [SpanEvent]) {
    events.sort_by_key(|e| (e.t_us, e.track, e.name, e.id, e.phase, e.arg));
}

/// A buffer size just above a timeline document's final length, so the
/// one buffer is allocated once and never regrown (a regrow copies
/// megabytes and can leave as much again unused).  A completed call
/// costs `per_call` bytes plus `call_names` copies of its escaped name;
/// any other rendered item (an unclosed call, a mark, a switch)
/// `per_other` bytes plus its name.  The per-item figures sit a few
/// bytes above the real ones at 7-digit timestamps.
fn estimate_len(
    items: &[TraceItem],
    names: &[Cow<'_, str>],
    per_call: usize,
    call_names: usize,
    per_other: usize,
) -> usize {
    let name = |sym: SymId| names[sym as usize].len();
    items
        .iter()
        .map(|item| match item.kind {
            ItemKind::Call {
                sym, closed: true, ..
            } => per_call + call_names * name(sym),
            ItemKind::Call { sym, .. } | ItemKind::Inline { sym } => per_other + name(sym),
            ItemKind::SwitchIn { .. } => per_other,
            ItemKind::Return { .. } | ItemKind::SessionBreak => 0,
        })
        .sum()
}

/// One pipeline slice or point ready for the Chrome writer; its name
/// is `label` followed by `suffix`.
struct PairedSpan {
    track: SpanTrack,
    label: &'static str,
    suffix: &'static str,
    ts: u64,
    dur: Option<u64>,
    id: u64,
    arg: u64,
}

impl PairedSpan {
    /// The name's bytes, compared as one string.
    fn name_bytes(&self) -> impl Iterator<Item = u8> + '_ {
        self.label.bytes().chain(self.suffix.bytes())
    }
}

/// Trace items grouped per (session, lane) in deterministic order.
struct Lanes<'a> {
    items: &'a [TraceItem],
    /// Indices into `items`: each lane's items in timeline order, the
    /// lanes one after another.
    order: Vec<usize>,
    lanes: Vec<Lane>,
}

/// One thread of control of one session.
struct Lane {
    session: usize,
    lane: u32,
    /// The lane's run of [`Lanes::order`].
    run: Range<usize>,
}

impl<'a> Lanes<'a> {
    /// Groups `items` by a counting sort.  Lanes are numbered densely
    /// per session, so (session, lane) maps to slot
    /// `first slot of the session + lane`; lanes without items get no
    /// group.
    fn new(items: &'a [TraceItem]) -> Self {
        let mut session_slots = vec![0usize];
        let mut counts: Vec<usize> = Vec::new();
        for item in items {
            if matches!(item.kind, ItemKind::SessionBreak) {
                session_slots.push(counts.len());
                continue;
            }
            let first = *session_slots.last().expect("non-empty");
            let slot = first + item.lane as usize;
            if counts.len() <= slot {
                counts.resize(slot + 1, 0);
            }
            counts[slot] += 1;
        }
        let mut lanes = Vec::new();
        let mut starts = Vec::with_capacity(counts.len());
        let mut at = 0usize;
        for (session, &first) in session_slots.iter().enumerate() {
            let end = session_slots
                .get(session + 1)
                .copied()
                .unwrap_or(counts.len());
            for (lane, &count) in counts[first..end].iter().enumerate() {
                starts.push(at);
                if count > 0 {
                    lanes.push(Lane {
                        session,
                        lane: lane as u32,
                        run: at..at + count,
                    });
                    at += count;
                }
            }
        }
        let mut order = vec![0usize; at];
        let mut session = 0usize;
        for (i, item) in items.iter().enumerate() {
            if matches!(item.kind, ItemKind::SessionBreak) {
                session += 1;
                continue;
            }
            let first = session_slots[session];
            let slot = first + item.lane as usize;
            order[starts[slot]] = i;
            starts[slot] += 1;
        }
        Lanes {
            items,
            order,
            lanes,
        }
    }

    /// One lane's items, in timeline order.
    fn items(&self, lane: &Lane) -> impl Iterator<Item = &'a TraceItem> + '_ {
        self.order[lane.run.clone()].iter().map(|&i| &self.items[i])
    }
}

/// Balanced per-lane call stream derived from trace items.
enum CallEv {
    /// A completed call opens (its net/elapsed are known).
    Open {
        sym: SymId,
        t: u64,
        net: u64,
        elapsed: u64,
    },
    /// A previously opened call closes.
    Close { sym: SymId, t: u64 },
    /// An inline trigger point.
    Mark { sym: SymId, t: u64 },
    /// A call whose exit was never captured.
    OpenEnd { sym: SymId, t: u64 },
    /// Control switched onto this lane.
    Switch { t: u64, birth: bool },
}

/// Replays one lane's trace items as a balanced open/close stream,
/// handing each event to `f` in order.
///
/// Only *closed* calls open spans (their end time is `t + elapsed`);
/// a span is closed as soon as a later call at the same-or-shallower
/// depth proves the frame ended, or at lane end.  Closes pop deepest
/// first, so spans nest properly and times never run backwards.
fn visit_lane<'i>(items: impl Iterator<Item = &'i TraceItem>, mut f: impl FnMut(CallEv)) {
    // (sym, end time, depth) of every call still open.
    let mut stack: Vec<(SymId, u64, usize)> = Vec::new();
    for item in items {
        match item.kind {
            ItemKind::Call {
                sym,
                net,
                elapsed,
                closed,
                ..
            } => {
                while stack.last().is_some_and(|&(_, _, d)| d >= item.depth) {
                    let (s, end, _) = stack.pop().expect("guarded");
                    f(CallEv::Close { sym: s, t: end });
                }
                if closed {
                    f(CallEv::Open {
                        sym,
                        t: item.t,
                        net,
                        elapsed,
                    });
                    stack.push((sym, item.t + elapsed, item.depth));
                } else {
                    f(CallEv::OpenEnd { sym, t: item.t });
                }
            }
            ItemKind::Inline { sym } => f(CallEv::Mark { sym, t: item.t }),
            ItemKind::SwitchIn { birth } => f(CallEv::Switch { t: item.t, birth }),
            ItemKind::Return { .. } | ItemKind::SessionBreak => {}
        }
    }
    while let Some((s, end, _)) = stack.pop() {
        f(CallEv::Close { sym: s, t: end });
    }
}

/// Call-path arena behind [`Exporter::folded`]: one node per distinct
/// (parent node, symbol), carrying the net µs of every call made on
/// that path.
#[derive(Default)]
struct PathArena {
    nodes: Vec<PathNode>,
    index: HashMap<(Option<u32>, SymId), u32>,
}

struct PathNode {
    parent: Option<u32>,
    sym: SymId,
    net: u64,
    /// A non-switch call landed here, so the path gets a line (even
    /// one of weight 0).
    weighted: bool,
}

impl PathArena {
    /// The node for `sym` called under `parent` (`None` = lane root).
    fn child(&mut self, parent: Option<u32>, sym: SymId) -> u32 {
        let nodes = &mut self.nodes;
        *self.index.entry((parent, sym)).or_insert_with(|| {
            nodes.push(PathNode {
                parent,
                sym,
                net: 0,
                weighted: false,
            });
            u32::try_from(nodes.len() - 1).expect("fewer than 2^32 call paths")
        })
    }

    fn add(&mut self, node: u32, net: u64) {
        let n = &mut self.nodes[node as usize];
        n.net += net;
        n.weighted = true;
    }

    /// `(a;b;c, net)` for every weighted node, unsorted.
    fn rows<'n>(&self, name: impl Fn(SymId) -> &'n str) -> Vec<(String, u64)> {
        let mut syms = Vec::new();
        self.nodes
            .iter()
            .filter(|n| n.weighted)
            .map(|n| {
                syms.clear();
                syms.push(n.sym);
                let mut up = n.parent;
                while let Some(p) = up {
                    let p = &self.nodes[p as usize];
                    syms.push(p.sym);
                    up = p.parent;
                }
                let mut path = String::new();
                for (i, &s) in syms.iter().rev().enumerate() {
                    if i > 0 {
                        path.push(';');
                    }
                    path.push_str(name(s));
                }
                (path, n.net)
            })
            .collect()
    }
}

/// A Chrome `traceEvents` array under construction in one buffer.
struct ChromeWriter {
    out: String,
    /// No event written yet (the next one needs no separator).
    first: bool,
}

impl ChromeWriter {
    fn new(capacity: usize) -> Self {
        ChromeWriter {
            out: String::with_capacity(capacity),
            first: true,
        }
    }

    /// Opens the next event object up to its timestamp:
    /// `{"ph":..,"pid":..[,"tid":..],"ts":..`.
    fn event(&mut self, ph: &str, pid: u64, tid: Option<u64>, ts: u64) {
        self.head(ph, pid, tid);
        self.out.push_str(",\"ts\":");
        push_u64(&mut self.out, ts);
    }

    fn head(&mut self, ph: &str, pid: u64, tid: Option<u64>) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out.push_str("{\"ph\":\"");
        self.out.push_str(ph);
        self.out.push_str("\",\"pid\":");
        push_u64(&mut self.out, pid);
        if let Some(tid) = tid {
            self.out.push_str(",\"tid\":");
            push_u64(&mut self.out, tid);
        }
    }

    /// `,"name":"<escaped>"`.
    fn name(&mut self, escaped: &str) {
        self.out.push_str(",\"name\":\"");
        self.out.push_str(escaped);
        self.out.push('"');
    }

    /// A process (`tid` = `None`) or thread name record; `name` writes
    /// the already-escaped name.
    fn meta(&mut self, pid: u64, tid: Option<u64>, name: impl FnOnce(&mut String)) {
        self.head("M", pid, tid);
        self.out.push_str(if tid.is_some() {
            ",\"name\":\"thread_name\",\"args\":{\"name\":\""
        } else {
            ",\"name\":\"process_name\",\"args\":{\"name\":\""
        });
        name(&mut self.out);
        self.out.push_str("\"}}");
    }

    /// A thread-scoped instant; `name` writes the already-escaped name.
    fn instant(&mut self, pid: u64, tid: u64, ts: u64, name: impl FnOnce(&mut String)) {
        self.event("i", pid, Some(tid), ts);
        self.out.push_str(",\"s\":\"t\",\"name\":\"");
        name(&mut self.out);
        self.out.push_str("\"}");
    }
}

/// Appends `v` in decimal.
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[i..]).expect("ASCII digits"));
}

fn level_label(level: TagMaskLevel) -> &'static str {
    match level {
        TagMaskLevel::All => "All",
        TagMaskLevel::HotMasked => "HotMasked",
        TagMaskLevel::SwitchOnly => "SwitchOnly",
    }
}

fn cause_label(cause: GapCause) -> &'static str {
    match cause {
        GapCause::Overflow => "overflow",
        GapCause::Drain => "drain",
        GapCause::BankLost => "bank lost",
    }
}

/// Appends `s` escaped for inclusion in a JSON string literal.
fn push_esc(out: &mut String, s: &str) {
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every byte matched above is ASCII, so `i` is a char boundary.
        out.push_str(&s[clean..i]);
        if escaped.is_empty() {
            const HEX: &[u8; 16] = b"0123456789abcdef";
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        } else {
            out.push_str(escaped);
        }
        clean = i + 1;
    }
    out.push_str(&s[clean..]);
}

/// `s` escaped for inclusion in a JSON string literal, borrowed when
/// nothing needs escaping.
fn esc(s: &str) -> Cow<'_, str> {
    if s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        let mut out = String::with_capacity(s.len() + 8);
        push_esc(&mut out, s);
        Cow::Owned(out)
    } else {
        Cow::Borrowed(s)
    }
}

// ---- minimal JSON reader (for gates and property tests) ----------------

/// Parsed JSON value, produced by [`validate_json`].  Just enough
/// structure for the repro gates and property tests to walk exported
/// documents without external dependencies.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`validate_json`] accepts.  The parser
/// recurses once per level, so an unbounded depth would let a hostile
/// document overflow the stack; every document this workspace writes
/// nests fewer than ten levels.
pub const MAX_JSON_DEPTH: usize = 128;

/// Parses `s` as one JSON document, rejecting trailing garbage and
/// nesting deeper than [`MAX_JSON_DEPTH`].  This is the schema floor
/// every exported JSON must clear; the repro gate and property tests
/// run all output through it.
pub fn validate_json(s: &str) -> Result<JsonValue, String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at byte {} (found {:?})",
            c as char,
            *pos,
            b.get(*pos).map(|&x| x as char)
        ))
    }
}

/// Parses one value; `depth` counts the arrays and objects around it.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'{' | b'[')) && depth >= MAX_JSON_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_JSON_DEPTH} levels at byte {}",
            *pos
        ));
    }
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos, depth + 1),
        Some(b'[') => parse_array(b, pos, depth + 1),
        Some(b'"') => Ok(JsonValue::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        other => Err(format!(
            "unexpected {:?} at byte {}",
            other.map(|&x| x as char),
            *pos
        )),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(JsonValue::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let unit = hex4(b, *pos + 1)
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        *pos += 4;
                        // A high surrogate followed directly by an escaped
                        // low surrogate is one UTF-16 pair; any other
                        // surrogate stands alone and decodes to U+FFFD.
                        let c = match unit {
                            0xd800..=0xdbff if b.get(*pos + 1..*pos + 3) == Some(b"\\u") => {
                                match hex4(b, *pos + 3) {
                                    Some(low @ 0xdc00..=0xdfff) => {
                                        *pos += 6;
                                        char::from_u32(
                                            0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00),
                                        )
                                    }
                                    _ => None,
                                }
                            }
                            _ => char::from_u32(unit),
                        };
                        out.push(c.unwrap_or('\u{fffd}'));
                    }
                    other => {
                        return Err(format!(
                            "bad escape {:?} at byte {}",
                            other.map(|&x| x as char),
                            *pos
                        ))
                    }
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar.
                let s = std::str::from_utf8(&b[*pos..])
                    .map_err(|_| format!("invalid UTF-8 at byte {}", *pos))?;
                let c = s.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

/// The four hex digits at `at`, as a UTF-16 code unit.
fn hex4(b: &[u8], at: usize) -> Option<u32> {
    let h = b.get(at..at + 4)?;
    if !h.iter().all(u8::is_ascii_hexdigit) {
        return None;
    }
    u32::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(b, pos, b'[')?;
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(out));
    }
    loop {
        out.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(out));
            }
            other => {
                return Err(format!(
                    "expected ',' or ']' at byte {} (found {:?})",
                    *pos,
                    other.map(|&x| x as char)
                ))
            }
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(b, pos, b'{')?;
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(out));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos, depth)?;
        out.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(out));
            }
            other => {
                return Err(format!(
                    "expected ',' or '}}' at byte {} (found {:?})",
                    *pos,
                    other.map(|&x| x as char)
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::decode;
    use hwprof_profiler::RawRecord;

    fn rec(tag: u16, time: u32) -> RawRecord {
        RawRecord { tag, time }
    }

    const TF: &str = "a/100\nb/102\nc/104\nswtch/200!\nMARK/300=\n";

    fn fixture() -> Reconstruction {
        let tf = hwprof_tagfile::parse(TF).unwrap();
        // a{ b{} MARK } with a switch to a newborn process running c{}.
        let recs = [
            rec(100, 0),
            rec(102, 10),
            rec(103, 40),
            rec(300, 45),
            rec(200, 50),
            rec(201, 60), // birth
            rec(104, 70),
            rec(105, 90),
            rec(200, 95),
            rec(201, 100), // back to the first lane
            rec(101, 120),
        ];
        let (syms, ev) = decode(&recs, &tf);
        crate::Analyzer::new(&syms).session(&ev).expect("ungated")
    }

    #[test]
    fn chrome_trace_is_valid_json_with_balanced_spans() {
        let r = fixture();
        let out = Exporter::new(&r).chrome_trace();
        let doc = validate_json(&out).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert!(!events.is_empty());
        // Per (pid, tid, name): every B is eventually closed by an E at
        // a time >= its own.
        let mut open: std::collections::HashMap<(u64, u64, String), Vec<u64>> =
            std::collections::HashMap::new();
        for ev in events {
            let ph = ev.get("ph").unwrap().as_str().unwrap();
            if ph != "B" && ph != "E" {
                continue;
            }
            let key = (
                ev.get("pid").unwrap().as_u64().unwrap(),
                ev.get("tid").unwrap().as_u64().unwrap(),
                ev.get("name").unwrap().as_str().unwrap().to_string(),
            );
            let ts = ev.get("ts").unwrap().as_u64().unwrap();
            if ph == "B" {
                open.entry(key).or_default().push(ts);
            } else {
                let begin = open
                    .get_mut(&key)
                    .and_then(|v| v.pop())
                    .unwrap_or_else(|| panic!("E without B: {key:?}"));
                assert!(ts >= begin, "negative duration for {key:?}");
            }
        }
        for (key, stack) in open {
            assert!(stack.is_empty(), "unclosed B events for {key:?}");
        }
        // The two threads of control got distinct lanes.
        assert!(out.contains("\"name\":\"control 0\""));
        assert!(out.contains("\"name\":\"control 1\""));
        assert!(out.contains("== MARK"));
    }

    #[test]
    fn speedscope_profiles_are_monotonic() {
        let r = fixture();
        let out = Exporter::new(&r).speedscope();
        let doc = validate_json(&out).expect("valid JSON");
        let profiles = doc.get("profiles").unwrap().as_array().unwrap();
        assert!(!profiles.is_empty());
        for p in profiles {
            let events = p.get("events").unwrap().as_array().unwrap();
            let mut depth = 0i64;
            let mut last = 0u64;
            for ev in events {
                let at = ev.get("at").unwrap().as_u64().unwrap();
                assert!(at >= last, "time went backwards");
                last = at;
                match ev.get("type").unwrap().as_str().unwrap() {
                    "O" => depth += 1,
                    "C" => depth -= 1,
                    other => panic!("unexpected event type {other}"),
                }
                assert!(depth >= 0, "close before open");
            }
            assert_eq!(depth, 0, "profile left frames open");
            let start = p.get("startValue").unwrap().as_u64().unwrap();
            let end = p.get("endValue").unwrap().as_u64().unwrap();
            assert!(start <= end);
        }
    }

    #[test]
    fn folded_total_matches_net_accounting() {
        let r = fixture();
        let out = Exporter::new(&r).folded();
        let total: u64 = out
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        let net: u64 = r.stats.iter().map(|a| a.net).sum();
        assert_eq!(total, net, "folded:\n{out}");
        // Nested paths show up folded.
        assert!(out.contains("a;b "), "folded:\n{out}");
        // The newborn lane's call is its own root.
        assert!(out.lines().any(|l| l.starts_with("c ")), "folded:\n{out}");
    }

    #[test]
    fn span_journal_renders_as_pipeline_lanes() {
        let r = fixture();
        let log = SpanLog::with_capacity(16);
        log.begin(SpanTrack::Supervisor, SpanName::Bank, 10, 0, 0);
        log.end(SpanTrack::Supervisor, SpanName::Bank, 90, 0, 11);
        log.instant(SpanTrack::Transport, SpanName::Retry, 95, 0, 1);
        log.begin(SpanTrack::Transport, SpanName::Upload, 90, 0, 0);
        // Deliberately left open.
        let out = Exporter::new(&r).spans(&log).chrome_trace();
        validate_json(&out).expect("valid JSON");
        assert!(out.contains("\"name\":\"capture pipeline\""));
        assert!(out.contains("\"ph\":\"X\""), "paired span becomes a slice");
        assert!(out.contains("\"dur\":80"));
        assert!(out.contains("retry"));
        assert!(out.contains("upload (open at capture end)"));
    }

    #[test]
    fn validator_accepts_tricky_and_rejects_broken() {
        let ok = r#"{"a":[1,2.5,-3,true,false,null],"b":"q\"\\\u0041\n","c":{}}"#;
        let doc = validate_json(ok).expect("valid");
        assert_eq!(doc.get("b").unwrap().as_str(), Some("q\"\\A\n"));
        assert!(validate_json("{\"a\":1,}").is_err());
        assert!(validate_json("{\"a\":1} extra").is_err());
        assert!(validate_json("[1,2").is_err());
        assert!(validate_json("").is_err());
    }

    #[test]
    fn validator_rejects_deep_nesting_without_recursing_away() {
        let deep = "[".repeat(100_000);
        let err = validate_json(&deep).expect_err("100,000 levels must fail");
        assert!(err.contains("nesting deeper than"), "{err}");
        let objects = "{\"a\":".repeat(100_000);
        assert!(validate_json(&objects).is_err());
        // Exactly the cap still parses; one more level does not.
        let at_cap = format!(
            "{}{}",
            "[".repeat(MAX_JSON_DEPTH),
            "]".repeat(MAX_JSON_DEPTH)
        );
        assert!(validate_json(&at_cap).is_ok());
        let over = format!("[{at_cap}]");
        assert!(validate_json(&over).is_err());
    }

    #[test]
    fn validator_decodes_surrogate_pairs() {
        let s = |json: &str| {
            validate_json(json)
                .expect("valid")
                .as_str()
                .map(str::to_string)
        };
        assert_eq!(s(r#""\ud83d\ude00""#).as_deref(), Some("\u{1f600}"));
        assert_eq!(s(r#""a\uD834\uDD1Eb""#).as_deref(), Some("a\u{1d11e}b"));
        // Lone surrogates, either half, stay U+FFFD and consume nothing
        // after them.
        assert_eq!(s(r#""\ud83dx""#).as_deref(), Some("\u{fffd}x"));
        assert_eq!(s(r#""\ude00""#).as_deref(), Some("\u{fffd}"));
        assert_eq!(s(r#""\ud83d\u0041""#).as_deref(), Some("\u{fffd}A"));
        assert_eq!(
            s(r#""\ud83d\ud83d\ude00""#).as_deref(),
            Some("\u{fffd}\u{1f600}")
        );
        assert_eq!(s(r#""\ud83d\n""#).as_deref(), Some("\u{fffd}\n"));
        // Only hex digits make an escape.
        assert!(validate_json(r#""\u+041""#).is_err());
        assert!(validate_json(r#""\ud83d\u""#).is_err());
    }

    #[test]
    fn escaping_round_trips() {
        assert_eq!(esc("plain"), "plain");
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }
}
