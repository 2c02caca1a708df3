//! Call-path reconstruction from the decoded event stream.
//!
//! "Identification of function entry and exit points allow a code path
//! trace to be constructed with timing information at each call and
//! return point."  The hard part is the kernel's multiplexed control
//! flow: at a `!`-tagged function (`swtch`) "a discontinuous change in
//! the subroutine call/return model" occurs.  The reconstructor keeps one
//! stack per thread of control; at each `swtch` exit it decides which
//! suspended stack resumed by looking ahead for the first unmatched
//! function exit (the resumed process must unwind through the function
//! that called `swtch`).
//!
//! The paper's two reports need different things.  The Fig. 3 summary
//! is a per-function aggregate; the Fig. 4 code-path trace is a
//! separate pass.  [`Reconstruction`] is the aggregate only.  Its
//! [`Timeline`] keeps the decoded events each session was folded from,
//! and [`Reconstruction::timeline`] replays them into trace items the
//! first time a renderer asks.  The summary, the streaming pipeline,
//! the flight recorder, the sentinel and the fleet never build a trace.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use crate::anomaly::Anomalies;
use crate::events::{EvKind, Event, SymId, Symbols};
use hwprof_profiler::Coverage;

/// Aggregate statistics for one function.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FnAgg {
    /// Completed entry/exit pairs.
    pub calls: u64,
    /// Inline-trigger hits (for `=` tags).
    pub inline_hits: u64,
    /// Accumulated elapsed (inclusive) microseconds.
    pub elapsed: u64,
    /// Accumulated net (exclusive) microseconds.
    pub net: u64,
    /// Largest per-call net.
    pub max_net: u64,
    /// Smallest per-call net.
    pub min_net: u64,
}

impl FnAgg {
    /// Folds `other` into `self` (the monoid the streaming analyzer
    /// merges chunk results with).  Merging per-session aggregates in
    /// session order reproduces the sequential accumulation exactly:
    /// every field is a sum, a max, or a min over completed calls.
    pub fn merge(&mut self, other: &FnAgg) {
        if other.calls > 0 {
            self.min_net = if self.calls == 0 {
                other.min_net
            } else {
                self.min_net.min(other.min_net)
            };
            self.max_net = self.max_net.max(other.max_net);
        }
        self.calls += other.calls;
        self.inline_hits += other.inline_hits;
        self.elapsed += other.elapsed;
        self.net += other.net;
    }
}

/// One rendered-trace element (the trace report works from these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceItem {
    /// Event time (µs from session start).
    pub t: u64,
    /// Nesting depth at the event.
    pub depth: usize,
    /// Thread of control the item belongs to, numbered per session in
    /// order of first appearance (0 is the thread running at capture
    /// start; each birth allocates the next lane).  The exporters use
    /// this to split the paper's `!`-multiplexed stream into per-pid
    /// lanes; the ASCII renderer ignores it.
    pub lane: u32,
    /// What happened.
    pub kind: ItemKind,
}

/// Trace element kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// A call; times are patched in when the frame closes.
    Call {
        /// Function.
        sym: SymId,
        /// Net µs (valid when `closed`).
        net: u64,
        /// Elapsed µs (valid when `closed`).
        elapsed: u64,
        /// Subcalls observed.
        children: u32,
        /// A context switch occurred inside this frame.
        spans_switch: bool,
        /// The frame closed before the capture ended.
        closed: bool,
    },
    /// An explicit return line (context-switch frames and frames that
    /// span a switch get these).
    Return {
        /// Function (None renders as a bare `<-`).
        sym: Option<SymId>,
        /// Net µs.
        net: u64,
        /// Elapsed µs.
        elapsed: u64,
    },
    /// An inline trigger.
    Inline {
        /// The point.
        sym: SymId,
    },
    /// Control switched to a different thread of control.
    SwitchIn {
        /// The resumed stack had never been seen before (process birth).
        birth: bool,
    },
    /// Boundary between concatenated capture sessions.
    SessionBreak,
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    sym: SymId,
    entered: u64,
    child: u64,
    /// Index of the frame's call item (traced form only).
    item: usize,
    children: u32,
    spans_switch: bool,
    is_cswitch: bool,
}

#[derive(Debug, Default)]
struct PStack {
    frames: Vec<Frame>,
    /// Lane id carried by trace items while this stack is active.
    lane: u32,
}

/// The result of reconstruction: the per-function aggregate plus the
/// [`Timeline`] the code-path trace is replayed from.
///
/// `Reconstruction` is a monoid: [`Reconstruction::empty`] is the
/// identity and [`Reconstruction::merge`] combines per-session results
/// in session order into exactly what one sequential pass over the
/// concatenated sessions would produce.  That property is what lets
/// the streaming analyzer fan sessions out across worker threads — and
/// what lets a fleet aggregator fold per-machine reconstructions into
/// one fleet-wide profile.
///
/// Two reconstructions are equal when every aggregate and every
/// materialized trace item is equal.
#[derive(Debug, Clone)]
pub struct Reconstruction {
    /// Symbol table used.
    pub syms: Symbols,
    /// Per-symbol aggregates.
    pub stats: Vec<FnAgg>,
    /// Wall-clock µs covered (sum over sessions).
    pub total_elapsed: u64,
    /// Idle µs (inside `swtch`, less device interrupts).
    pub idle: u64,
    /// Total hardware events.
    pub tags: usize,
    /// Completed `swtch` intervals that changed the thread of control.
    pub context_switches: u64,
    /// Completed `swtch` frames (any resume).
    pub swtch_calls: u64,
    /// Exits with no matching open frame (capture started mid-call).
    pub unmatched_exits: u64,
    /// Tags absent from the name file.
    pub unknown_tags: u64,
    /// Frames still open when the capture ended.
    pub open_at_end: u64,
    /// Threads of control first seen at a `swtch` exit.
    pub births: u64,
    /// The code-path timeline: each session's kept events and the
    /// exact item count.  Read the items with
    /// [`Reconstruction::timeline`].
    pub trace: Timeline,
    /// Call-graph edges: (caller, callee) -> completed calls.
    pub edges: std::collections::HashMap<(SymId, SymId), u64>,
    /// Number of capture sessions analyzed.
    pub sessions: usize,
    /// Classified anomaly summary (always populated from the counters
    /// above plus any decode/upload-level anomalies folded in with
    /// [`Reconstruction::note`]).
    pub anomalies: Anomalies,
    /// Timeline coverage of the capture(s) behind this reconstruction.
    /// Zero (the merge identity) for plain captures; populated via
    /// [`Reconstruction::note_coverage`] when sessions come from a
    /// supervised run.  Merges field-wise like every other counter.
    pub coverage: Coverage,
}

impl Reconstruction {
    /// The merge identity: zero sessions analyzed against `syms`.
    pub fn empty(syms: Symbols) -> Self {
        let n = syms.len();
        Reconstruction {
            syms,
            stats: vec![FnAgg::default(); n],
            total_elapsed: 0,
            idle: 0,
            tags: 0,
            context_switches: 0,
            swtch_calls: 0,
            unmatched_exits: 0,
            unknown_tags: 0,
            open_at_end: 0,
            births: 0,
            trace: Timeline::default(),
            edges: std::collections::HashMap::new(),
            sessions: 0,
            anomalies: Anomalies::default(),
            coverage: Coverage::empty(),
        }
    }

    /// Folds `other` (the next sessions in order) into `self`.
    ///
    /// Every aggregate is a per-session sum/max/min and the timeline is
    /// a concatenation of kept sessions, so `empty ∘ merge` over
    /// per-session results is bit-identical to one sequential pass:
    /// reconstruction state (stacks, idle windows) never crosses a
    /// session boundary.  The timeline merges in O(sessions); no trace
    /// item is built or copied.
    pub fn merge(&mut self, other: Reconstruction) {
        debug_assert_eq!(self.syms.len(), other.syms.len(), "same tag file");
        for (a, b) in self.stats.iter_mut().zip(&other.stats) {
            a.merge(b);
        }
        self.total_elapsed += other.total_elapsed;
        self.idle += other.idle;
        self.tags += other.tags;
        self.context_switches += other.context_switches;
        self.swtch_calls += other.swtch_calls;
        self.unmatched_exits += other.unmatched_exits;
        self.unknown_tags += other.unknown_tags;
        self.open_at_end += other.open_at_end;
        self.births += other.births;
        self.trace.append(other.trace);
        for (k, v) in other.edges {
            *self.edges.entry(k).or_insert(0) += v;
        }
        self.sessions += other.sessions;
        self.anomalies.merge(&other.anomalies);
        self.coverage.merge(&other.coverage);
    }

    /// Folds decode- or upload-level anomalies (duplicates, time jumps,
    /// truncations — flagged before events reach reconstruction) into
    /// the summary.
    pub fn note(&mut self, a: &Anomalies) {
        self.anomalies.merge(a);
    }

    /// Folds supervised-run coverage accounting (gaps, mask downgrades,
    /// transport retries) into the result, exactly like
    /// [`Reconstruction::note`] folds anomalies.
    pub fn note_coverage(&mut self, c: &Coverage) {
        self.coverage.merge(c);
    }

    /// The code-path trace: every call, return, inline hit, switch and
    /// session break, across all sessions in order.  The first call
    /// replays the kept events through a traced [`SessionRecon`] and
    /// caches the items; later calls return the cache.  The replay is
    /// exact because reconstruction state never crosses a session
    /// boundary.
    pub fn timeline(&self) -> &[TraceItem] {
        self.trace
            .cache
            .get_or_init(|| self.trace.replay(&self.syms))
    }

    /// Accumulated non-idle µs.
    pub fn run_time(&self) -> u64 {
        self.total_elapsed.saturating_sub(self.idle)
    }

    /// Aggregate for a named function, if present.
    pub fn agg(&self, name: &str) -> Option<FnAgg> {
        self.syms.lookup(name).map(|s| self.stats[s as usize])
    }

    /// Net µs of `name` as a fraction of total elapsed (the `% real`
    /// column).
    pub fn pct_real(&self, name: &str) -> f64 {
        let a = self.agg(name).unwrap_or_default();
        if self.total_elapsed == 0 {
            0.0
        } else {
            a.net as f64 * 100.0 / self.total_elapsed as f64
        }
    }

    /// Net µs of `name` as a fraction of non-idle time (`% net`).
    pub fn pct_net(&self, name: &str) -> f64 {
        let a = self.agg(name).unwrap_or_default();
        let run = self.run_time();
        if run == 0 {
            0.0
        } else {
            a.net as f64 * 100.0 / run as f64
        }
    }
}

impl PartialEq for Reconstruction {
    fn eq(&self, other: &Self) -> bool {
        // Exhaustive destructuring: a new field must be compared here.
        let Reconstruction {
            syms,
            stats,
            total_elapsed,
            idle,
            tags,
            context_switches,
            swtch_calls,
            unmatched_exits,
            unknown_tags,
            open_at_end,
            births,
            trace,
            edges,
            sessions,
            anomalies,
            coverage,
        } = self;
        *syms == other.syms
            && *stats == other.stats
            && *total_elapsed == other.total_elapsed
            && *idle == other.idle
            && *tags == other.tags
            && *context_switches == other.context_switches
            && *swtch_calls == other.swtch_calls
            && *unmatched_exits == other.unmatched_exits
            && *unknown_tags == other.unknown_tags
            && *open_at_end == other.open_at_end
            && *births == other.births
            && *edges == other.edges
            && *sessions == other.sessions
            && *anomalies == other.anomalies
            && *coverage == other.coverage
            && trace.len() == other.trace.len()
            // Same symbols and same kept events replay to the same
            // items; only differing events need the replay.
            && (trace.same_events(&other.trace) || self.timeline() == other.timeline())
    }
}

/// The code-path timeline behind a [`Reconstruction`], kept as the
/// decoded events it is replayed from.
///
/// Each session's events are a range of a shared buffer
/// (`Arc<Vec<Event>>`), so merging two timelines concatenates pointers
/// and cloning one copies no event.
/// The exact item count is kept by the aggregate pass, so
/// [`len`](Timeline::len) never replays.  The items themselves are
/// built by [`Reconstruction::timeline`], once, for the renderers that
/// read them: the Fig. 4 trace report, the chrome-trace, speedscope
/// and folded exports, and the per-call histogram.
#[derive(Clone, Default)]
pub struct Timeline {
    /// The kept sessions, in order.
    sessions: Vec<Kept>,
    /// Trace items the sessions replay to.
    items: usize,
    /// The replayed items, built on first read.
    cache: OnceLock<Vec<TraceItem>>,
}

impl Timeline {
    /// Trace items across all sessions, session breaks included.
    pub fn len(&self) -> usize {
        self.items
    }

    /// Whether the timeline holds no item (no session was kept).
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// Keeps one folded session for replay.
    fn keep(&mut self, kept: Kept) {
        self.sessions.push(kept);
        self.cache = OnceLock::new();
    }

    /// Appends the next sessions in order.
    fn append(&mut self, other: Timeline) {
        self.sessions.extend(other.sessions);
        self.items += other.items;
        self.cache = OnceLock::new();
    }

    /// Whether both timelines kept the same events in the same modes.
    fn same_events(&self, other: &Timeline) -> bool {
        self.sessions.len() == other.sessions.len()
            && self.sessions.iter().zip(&other.sessions).all(|(a, b)| {
                a.recover == b.recover
                    && ((Arc::ptr_eq(&a.buf, &b.buf) && a.range == b.range)
                        || a.events() == b.events())
            })
    }

    /// Replays every kept session through one traced reconstructor.
    /// The aggregate it builds on the side is discarded.
    fn replay(&self, syms: &Symbols) -> Vec<TraceItem> {
        let mut recon = SessionRecon::traced(syms, false);
        recon.items.reserve_exact(self.items);
        let mut scratch = Reconstruction::empty(syms.clone());
        for kept in &self.sessions {
            recon.recover = kept.recover;
            recon.fold(kept.events(), &mut scratch);
        }
        debug_assert_eq!(recon.items.len(), self.items, "kept count is exact");
        recon.items
    }
}

/// One kept session: its decoded events, a range of a buffer shared
/// with other sessions, and whether it reconstructed in recovery mode.
#[derive(Clone)]
struct Kept {
    buf: Arc<Vec<Event>>,
    range: Range<usize>,
    recover: bool,
}

impl Kept {
    fn events(&self) -> &[Event] {
        &self.buf[self.range.clone()]
    }
}

impl std::fmt::Debug for Timeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Timeline")
            .field("sessions", &self.sessions.len())
            .field("items", &self.items)
            .field("replayed", &self.cache.get().is_some())
            .finish()
    }
}

/// The reusable session reconstructor — the arena of the hot path.
///
/// Reconstruction used to build a throwaway machine per session: two
/// symbol-table clones, two stats vectors, a fresh edges map and trace
/// vector, plus a newly grown frame stack for every process birth —
/// all dropped at session end and re-grown for the next bank.  At
/// fleet scale that allocator churn dominates.  A `SessionRecon` is
/// created once and fed many sessions:
///
/// * results accumulate **directly into a shared [`Reconstruction`]**
///   ([`session_into`](SessionRecon::session_into)) — bit-identical to
///   merging per-session results, since every aggregate is a sum, min
///   or max and the timeline is a concatenation of kept sessions (the
///   monoid argument), with zero intermediate allocation;
/// * frame stacks come from an internal **free pool**: a stack retired
///   at a context switch or session end keeps its capacity and is
///   handed to the next birth, so steady-state reconstruction performs
///   no frame allocation at all.
///
/// `TRACE` selects the form.  The aggregate form
/// ([`SessionRecon::new`]) only counts trace items; every item push
/// and call-item patch compiles away.  The traced form
/// ([`SessionRecon::traced`]) also builds the items, in its own buffer
/// ([`items`](SessionRecon::items)); [`Reconstruction::timeline`]
/// replays kept sessions through it.
pub struct SessionRecon<'a, const TRACE: bool = false> {
    syms: &'a Symbols,
    recover: bool,
    active: PStack,
    suspended: Vec<PStack>,
    /// Retired frame stacks, capacity kept for the next birth/session.
    free: Vec<Vec<Frame>>,
    /// Next lane id to hand a freshly born thread of control.
    next_lane: u32,
    in_switch: bool,
    switch_start: u64,
    intr_in_switch: u64,
    /// Trace items built so far (traced form only; always empty in the
    /// aggregate form).
    items: Vec<TraceItem>,
}

/// Outcome of the forward scan after a `swtch` exit.
enum ResumeId {
    /// First unmatched exit: the resumed stack unwinds through this.
    Exit(SymId),
    /// A new switch began before any unmatched exit — only a freshly
    /// born thread of control runs entries-only to its next switch.
    NextSwitch,
    /// The capture ended first; ambiguous.
    End,
}

/// Scans forward from a `swtch` exit for the function the resumed stack
/// unwinds through: the first exit not matching a post-resume entry.
fn identify_resume(events: &[Event], syms: &Symbols) -> ResumeId {
    let mut depth = 0i64;
    for ev in events {
        match ev.kind {
            EvKind::Entry(s) => {
                if syms.is_cswitch(s) {
                    return ResumeId::NextSwitch;
                }
                depth += 1;
            }
            EvKind::Exit(s) => {
                if depth > 0 {
                    depth -= 1;
                } else {
                    return ResumeId::Exit(s);
                }
            }
            EvKind::Inline(_) | EvKind::Unknown(_) => {}
        }
    }
    ResumeId::End
}

impl<'a> SessionRecon<'a> {
    /// A fresh aggregate-only reconstructor over `syms`; `recover`
    /// selects the resynchronizing mode (see
    /// [`reconstruct_session_recovering`]).
    pub fn new(syms: &'a Symbols, recover: bool) -> Self {
        Self::with_mode(syms, recover)
    }
}

impl<'a> SessionRecon<'a, true> {
    /// A fresh reconstructor that also builds the trace items of every
    /// session it folds, in fold order.
    pub fn traced(syms: &'a Symbols, recover: bool) -> Self {
        Self::with_mode(syms, recover)
    }

    /// The trace items of every session folded so far.
    pub fn items(&self) -> &[TraceItem] {
        &self.items
    }
}

impl<'a, const TRACE: bool> SessionRecon<'a, TRACE> {
    fn with_mode(syms: &'a Symbols, recover: bool) -> Self {
        SessionRecon {
            syms,
            recover,
            active: PStack::default(),
            suspended: Vec::new(),
            free: Vec::new(),
            next_lane: 1,
            in_switch: false,
            switch_start: 0,
            intr_in_switch: 0,
            items: Vec::new(),
        }
    }

    /// Counts one trace item and, in the traced form, builds it.
    #[inline(always)]
    fn emit(&mut self, out: &mut Reconstruction, item: TraceItem) {
        out.trace.items += 1;
        if TRACE {
            self.items.push(item);
        }
    }

    /// Pops the top frame without contributing to any statistic: its
    /// exit was never seen, so its times are unknowable.  The trace
    /// item stays unclosed and the parent's child-time accumulator is
    /// untouched (the orphaned interval will be net time of whichever
    /// ancestor does close cleanly).
    fn force_close(&mut self, out: &mut Reconstruction) {
        self.active.frames.pop().expect("caller checked");
        out.anomalies.unmatched_entries += 1;
    }

    fn push(&mut self, out: &mut Reconstruction, sym: SymId, t: u64, is_cswitch: bool) {
        let depth = self.active.frames.len();
        let item = self.items.len();
        self.emit(
            out,
            TraceItem {
                t,
                depth,
                lane: self.active.lane,
                kind: ItemKind::Call {
                    sym,
                    net: 0,
                    elapsed: 0,
                    children: 0,
                    spans_switch: false,
                    closed: false,
                },
            },
        );
        self.active.frames.push(Frame {
            sym,
            entered: t,
            child: 0,
            item,
            children: 0,
            spans_switch: false,
            is_cswitch,
        });
    }

    /// Pops the active top frame at time `t`, accounting and patching
    /// its trace item.
    fn pop(&mut self, out: &mut Reconstruction, t: u64) -> Frame {
        let f = self.active.frames.pop().expect("caller checked");
        let elapsed = t.saturating_sub(f.entered);
        let net = elapsed.saturating_sub(f.child);
        if let Some(parent) = self.active.frames.last_mut() {
            parent.child += elapsed;
            parent.children += 1;
        }
        if f.is_cswitch {
            out.swtch_calls += 1;
        } else {
            let a = &mut out.stats[f.sym as usize];
            a.calls += 1;
            a.elapsed += elapsed;
            a.net += net;
            a.max_net = a.max_net.max(net);
            a.min_net = if a.calls == 1 {
                net
            } else {
                a.min_net.min(net)
            };
            // An interrupt completing directly under an open swtch frame
            // during the idle window is run time, not idle.
            if self.in_switch && self.active.frames.last().is_some_and(|p| p.is_cswitch) {
                self.intr_in_switch += elapsed;
            }
        }
        if TRACE {
            if let ItemKind::Call {
                net: n,
                elapsed: e,
                children,
                spans_switch,
                closed,
                ..
            } = &mut self.items[f.item].kind
            {
                *n = net;
                *e = elapsed;
                *children = f.children;
                *spans_switch = f.spans_switch;
                *closed = true;
            }
        }
        // Call-graph edge.
        if let Some(parent) = self.active.frames.last() {
            *out.edges.entry((parent.sym, f.sym)).or_insert(0) += 1;
        }
        // Explicit return lines for frames the renderer may want to
        // close visually: switch spanners (named, with times) and
        // non-leaf frames (bare).
        if !f.is_cswitch && (f.spans_switch || f.children > 0) {
            self.emit(
                out,
                TraceItem {
                    t,
                    depth: self.active.frames.len(),
                    lane: self.active.lane,
                    kind: ItemKind::Return {
                        sym: if f.spans_switch { Some(f.sym) } else { None },
                        net,
                        elapsed,
                    },
                },
            );
        }
        f
    }

    fn handle_cswitch_exit(&mut self, out: &mut Reconstruction, t: u64, rest: &[Event]) {
        // Close the idle window.
        if self.in_switch {
            let window = t.saturating_sub(self.switch_start);
            out.idle += window.saturating_sub(self.intr_in_switch);
            self.in_switch = false;
        }
        let wanted = identify_resume(rest, self.syms);
        let top_is_swtch = |st: &PStack| st.frames.last().is_some_and(|f| f.is_cswitch);
        let matches_exit = |st: &PStack, x: SymId| -> bool {
            top_is_swtch(st) && st.frames.len().checked_sub(2).map(|i| st.frames[i].sym) == Some(x)
        };
        // A thread suspended at top level (a lone swtch frame) resumes to
        // entries-only execution, indistinguishable from a birth except
        // that its stack exists.
        let lone_swtch = |st: &PStack| st.frames.len() == 1 && top_is_swtch(st);
        let choice: Choice = match wanted {
            ResumeId::Exit(x) => {
                if matches_exit(&self.active, x) {
                    Choice::Active
                } else if let Some(i) = self.suspended.iter().rposition(|s| matches_exit(s, x)) {
                    Choice::Suspended(i)
                } else {
                    Choice::Birth
                }
            }
            ResumeId::NextSwitch => {
                if lone_swtch(&self.active) {
                    Choice::Active
                } else if let Some(i) = self.suspended.iter().rposition(lone_swtch) {
                    Choice::Suspended(i)
                } else {
                    Choice::Birth
                }
            }
            ResumeId::End => {
                if top_is_swtch(&self.active) {
                    Choice::Active
                } else if let Some(i) = self.suspended.iter().rposition(top_is_swtch) {
                    Choice::Suspended(i)
                } else {
                    Choice::Birth
                }
            }
        };
        let depth_for_item = |frames: &PStack| frames.frames.len().saturating_sub(1);
        match choice {
            Choice::Active => {
                self.emit(
                    out,
                    TraceItem {
                        t,
                        depth: depth_for_item(&self.active),
                        lane: self.active.lane,
                        kind: ItemKind::Return {
                            sym: self.active.frames.last().map(|f| f.sym),
                            net: 0,
                            elapsed: 0,
                        },
                    },
                );
                self.pop(out, t);
            }
            Choice::Suspended(i) => {
                let resumed = self.suspended.remove(i);
                let old = std::mem::replace(&mut self.active, resumed);
                self.suspended.push(old);
                out.context_switches += 1;
                // Everything still open on the resumed stack spans a
                // switch.
                for f in &mut self.active.frames {
                    f.spans_switch = true;
                }
                self.emit(
                    out,
                    TraceItem {
                        t,
                        depth: 0,
                        lane: self.active.lane,
                        kind: ItemKind::SwitchIn { birth: false },
                    },
                );
                self.emit(
                    out,
                    TraceItem {
                        t,
                        depth: depth_for_item(&self.active),
                        lane: self.active.lane,
                        kind: ItemKind::Return {
                            sym: self.active.frames.last().map(|f| f.sym),
                            net: 0,
                            elapsed: 0,
                        },
                    },
                );
                self.pop(out, t);
            }
            Choice::Birth => {
                // The fresh stack comes from the arena's free pool; the
                // outgoing one parks on `suspended` with its capacity
                // (an empty one goes straight back to the pool).
                let fresh = PStack {
                    frames: self.free.pop().unwrap_or_default(),
                    lane: 0,
                };
                let old = std::mem::replace(&mut self.active, fresh);
                if old.frames.is_empty() {
                    self.free.push(old.frames);
                } else {
                    self.suspended.push(old);
                }
                self.active.lane = self.next_lane;
                self.next_lane += 1;
                out.context_switches += 1;
                out.births += 1;
                self.emit(
                    out,
                    TraceItem {
                        t,
                        depth: 0,
                        lane: self.active.lane,
                        kind: ItemKind::SwitchIn { birth: true },
                    },
                );
            }
        }
    }

    /// Reconstructs one capture session, accumulating the result
    /// directly into `out` — exactly what
    /// `out.merge(reconstruct_session(syms, events))` would produce,
    /// without building the intermediate `Reconstruction` (every
    /// aggregate is a sum, min or max and the timeline a concatenation,
    /// so direct accumulation and merge-of-parts are the same fold).
    /// Reconstruction state never crosses a session boundary; the frame
    /// pool does, which is the point.
    ///
    /// The events are copied once into `out`'s [`Timeline`]; a caller
    /// that owns them uses
    /// [`session_shared`](SessionRecon::session_shared) instead.
    pub fn session_into(&mut self, events: &[Event], out: &mut Reconstruction) {
        self.session_shared(Arc::new(events.to_vec()), out);
    }

    /// [`session_into`](SessionRecon::session_into) for events handed
    /// over shared: `out`'s [`Timeline`] keeps this `Arc`, no copy.
    pub fn session_shared(&mut self, events: Arc<Vec<Event>>, out: &mut Reconstruction) {
        let range = 0..events.len();
        self.session_span(&events, range, out);
    }

    /// Reconstructs the session `buf[range]`; `out`'s [`Timeline`]
    /// keeps a share of `buf`.  Folds that copy many borrowed sessions
    /// copy them into one buffer: one allocation instead of one per
    /// session.
    pub(crate) fn session_span(
        &mut self,
        buf: &Arc<Vec<Event>>,
        range: Range<usize>,
        out: &mut Reconstruction,
    ) {
        self.fold(&buf[range.clone()], out);
        out.trace.keep(Kept {
            buf: Arc::clone(buf),
            range,
            recover: self.recover,
        });
    }

    /// The session fold itself: aggregates into `out`, counts trace
    /// items there and, in the traced form, builds them.
    fn fold(&mut self, events: &[Event], out: &mut Reconstruction) {
        debug_assert_eq!(self.syms.len(), out.syms.len(), "same tag file");
        out.sessions += 1;
        out.tags += events.len();
        if let (Some(first), Some(last)) = (events.first(), events.last()) {
            out.total_elapsed += last.t - first.t;
        }
        for (i, ev) in events.iter().enumerate() {
            match ev.kind {
                EvKind::Entry(sym) => {
                    let cs = self.syms.is_cswitch(sym);
                    self.push(out, sym, ev.t, cs);
                    if cs {
                        self.in_switch = true;
                        self.switch_start = ev.t;
                        self.intr_in_switch = 0;
                    }
                }
                EvKind::Exit(sym) => {
                    if self.syms.is_cswitch(sym) {
                        self.handle_cswitch_exit(out, ev.t, &events[i + 1..]);
                    } else if self
                        .active
                        .frames
                        .last()
                        .is_some_and(|f| f.sym == sym && !f.is_cswitch)
                    {
                        self.pop(out, ev.t);
                    } else if self.recover {
                        // Resynchronize: a dropped entry-or-exit leaves
                        // the matching frame deeper on the stack (or
                        // nowhere).  Search top-down — never across a
                        // context-switch frame, which belongs to a
                        // different control discontinuity — and
                        // force-close the skipped frames.
                        let mut found = None;
                        for (fi, f) in self.active.frames.iter().enumerate().rev() {
                            if f.is_cswitch {
                                break;
                            }
                            if f.sym == sym {
                                found = Some(fi);
                                break;
                            }
                        }
                        if let Some(fi) = found {
                            while self.active.frames.len() > fi + 1 {
                                self.force_close(out);
                            }
                            self.pop(out, ev.t);
                        } else {
                            out.unmatched_exits += 1;
                            out.anomalies.orphan_exits += 1;
                        }
                    } else {
                        out.unmatched_exits += 1;
                        out.anomalies.orphan_exits += 1;
                    }
                }
                EvKind::Inline(sym) => {
                    out.stats[sym as usize].inline_hits += 1;
                    self.emit(
                        out,
                        TraceItem {
                            t: ev.t,
                            depth: self.active.frames.len(),
                            lane: self.active.lane,
                            kind: ItemKind::Inline { sym },
                        },
                    );
                }
                EvKind::Unknown(_) => {
                    out.unknown_tags += 1;
                    out.anomalies.unknown_tags += 1;
                }
            }
        }
        // Session teardown: open frames are incomplete calls.
        let open: usize =
            self.active.frames.len() + self.suspended.iter().map(|s| s.frames.len()).sum::<usize>();
        out.open_at_end += open as u64;
        out.anomalies.unmatched_entries += open as u64;
        // Retire every stack into the free pool, keeping capacity for
        // the next session.
        self.active.frames.clear();
        self.active.lane = 0;
        for mut s in self.suspended.drain(..) {
            s.frames.clear();
            self.free.push(s.frames);
        }
        self.next_lane = 1;
        self.in_switch = false;
        self.emit(
            out,
            TraceItem {
                t: events.last().map_or(0, |e| e.t),
                depth: 0,
                lane: 0,
                kind: ItemKind::SessionBreak,
            },
        );
    }
}

enum Choice {
    Active,
    Suspended(usize),
    Birth,
}

/// Reconstructs a single capture session in isolation.
///
/// This is the unit of work the streaming analyzer hands to worker
/// threads; per-session results combine with
/// [`Reconstruction::merge`].  Session loops should hold a
/// [`SessionRecon`] instead and call
/// [`session_into`](SessionRecon::session_into) — same result, none of
/// the per-session allocation.
pub fn reconstruct_session(syms: &Symbols, events: &[Event]) -> Reconstruction {
    let mut out = Reconstruction::empty(syms.clone());
    SessionRecon::new(syms, false).session_into(events, &mut out);
    out
}

/// Reconstructs a single capture session in recovery mode.
///
/// Where strict reconstruction counts a mismatched exit as an orphan
/// and keeps going, recovery mode first tries to resynchronize: the
/// stack is searched top-down (stopping at a context-switch frame) for
/// a frame matching the exit, and any frames above it — entries whose
/// exits were lost — are force-closed without contributing statistics.
/// Every intervention lands in [`Reconstruction::anomalies`].
pub fn reconstruct_session_recovering(syms: &Symbols, events: &[Event]) -> Reconstruction {
    let mut out = Reconstruction::empty(syms.clone());
    SessionRecon::new(syms, true).session_into(events, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::decode;
    use hwprof_profiler::RawRecord;
    use hwprof_tagfile::parse;

    fn rec(tag: u16, time: u32) -> RawRecord {
        RawRecord { tag, time }
    }

    // These tests pin the reconstruction semantics, which live behind
    // the facade.
    fn analyze(syms: &Symbols, events: &[Event]) -> Reconstruction {
        crate::Analyzer::new(syms).session(events).expect("ungated")
    }

    fn analyze_sessions(syms: &Symbols, sessions: &[Vec<Event>]) -> Reconstruction {
        crate::Analyzer::new(syms)
            .sessions(sessions)
            .expect("ungated")
    }

    const TF: &str = "a/100\nb/102\nc/104\nswtch/200!\nMARK/300=\n";

    #[test]
    fn simple_nesting() {
        let tf = parse(TF).unwrap();
        // a[0..100] calling b[20..50].
        let recs = [rec(100, 0), rec(102, 20), rec(103, 50), rec(101, 100)];
        let (syms, ev) = decode(&recs, &tf);
        let r = analyze(&syms, &ev);
        let a = r.agg("a").unwrap();
        assert_eq!(a.calls, 1);
        assert_eq!(a.elapsed, 100);
        assert_eq!(a.net, 70);
        let b = r.agg("b").unwrap();
        assert_eq!(b.net, 30);
        assert_eq!(r.total_elapsed, 100);
        assert_eq!(r.idle, 0);
        assert_eq!(r.unmatched_exits, 0);
    }

    #[test]
    fn context_switch_splits_stacks() {
        let tf = parse(TF).unwrap();
        // Process P: a -> b -> swtch (switch out at t=30).
        // Process Q resumes: swtch exit, then exits c (its sleeper),
        // runs a bit, re-enters swtch at t=90; P resumes, exits b and a.
        let recs = [
            // P
            rec(100, 0),  // a enter
            rec(102, 10), // b enter
            rec(200, 30), // swtch enter (P out)
            // Q was suspended before capture inside c -> swtch; its
            // stack is unknown, so this resume is a birth.
            rec(201, 40),  // swtch exit (Q in) -- birth
            rec(105, 50),  // c exit (unmatched on fresh stack)
            rec(104, 60),  // c enter
            rec(105, 70),  // c exit
            rec(200, 90),  // swtch enter (Q out)
            rec(201, 95),  // swtch exit (P in)
            rec(103, 120), // b exit
            rec(101, 140), // a exit
        ];
        let (syms, ev) = decode(&recs, &tf);
        let r = analyze(&syms, &ev);
        // P's frames survived the switch.
        let a = r.agg("a").unwrap();
        assert_eq!(a.calls, 1);
        assert_eq!(a.elapsed, 140);
        let b = r.agg("b").unwrap();
        assert_eq!(b.elapsed, 110); // 10..120, spanning the switch
                                    // Q's completed c call counted; the stray first exit tolerated.
        let c = r.agg("c").unwrap();
        assert_eq!(c.calls, 1);
        assert_eq!(c.net, 10);
        assert_eq!(r.unmatched_exits, 1);
        assert_eq!(r.births, 1);
        assert!(r.context_switches >= 2);
        // Idle: windows 30..40 and 90..95.
        assert_eq!(r.idle, 15);
        // b's net excludes the whole swtch interval 30..95.
        assert_eq!(b.net, 110 - 65);
    }

    #[test]
    fn interrupt_during_idle_is_not_idle() {
        let tf = parse(TF).unwrap();
        let recs = [
            rec(100, 0),  // a enter
            rec(200, 10), // swtch enter: idle starts
            rec(104, 20), // c enter (device interrupt in idle loop)
            rec(105, 45), // c exit
            rec(201, 50), // swtch exit, same process resumes
            rec(101, 60), // a exit
        ];
        let (syms, ev) = decode(&recs, &tf);
        let r = analyze(&syms, &ev);
        // Window is 40 us, of which 25 was the interrupt.
        assert_eq!(r.idle, 15);
        assert_eq!(r.agg("c").unwrap().net, 25);
        assert_eq!(r.context_switches, 0, "same stack resumed");
        assert_eq!(r.swtch_calls, 1);
    }

    #[test]
    fn inline_tags_count_without_frames() {
        let tf = parse(TF).unwrap();
        let recs = [rec(100, 0), rec(300, 5), rec(300, 8), rec(101, 20)];
        let (syms, ev) = decode(&recs, &tf);
        let r = analyze(&syms, &ev);
        assert_eq!(r.agg("MARK").unwrap().inline_hits, 2);
        assert_eq!(r.agg("a").unwrap().net, 20);
    }

    #[test]
    fn capture_starting_mid_call_is_tolerated() {
        let tf = parse(TF).unwrap();
        let recs = [rec(103, 5), rec(101, 10), rec(100, 20), rec(101, 30)];
        let (syms, ev) = decode(&recs, &tf);
        let r = analyze(&syms, &ev);
        assert_eq!(r.unmatched_exits, 2);
        assert_eq!(r.agg("a").unwrap().calls, 1);
        assert_eq!(r.agg("a").unwrap().net, 10);
    }

    #[test]
    fn open_frames_at_end_are_not_counted() {
        let tf = parse(TF).unwrap();
        let recs = [rec(100, 0), rec(102, 10)];
        let (syms, ev) = decode(&recs, &tf);
        let r = analyze(&syms, &ev);
        assert_eq!(r.agg("a").unwrap().calls, 0);
        assert_eq!(r.open_at_end, 2);
    }

    #[test]
    fn sessions_accumulate() {
        let tf = parse(TF).unwrap();
        let s1 = [rec(100, 0), rec(101, 50)];
        let s2 = [rec(100, 0), rec(101, 70)];
        let (syms, e1) = decode(&s1, &tf);
        let (_, e2) = decode(&s2, &tf);
        let r = analyze_sessions(&syms, &[e1, e2]);
        assert_eq!(r.agg("a").unwrap().calls, 2);
        assert_eq!(r.agg("a").unwrap().elapsed, 120);
        assert_eq!(r.total_elapsed, 120);
        assert_eq!(r.sessions, 2);
    }

    #[test]
    fn unknown_tags_are_counted_not_fatal() {
        let tf = parse(TF).unwrap();
        let recs = [rec(100, 0), rec(999, 5), rec(101, 10)];
        let (syms, ev) = decode(&recs, &tf);
        let r = analyze(&syms, &ev);
        assert_eq!(r.unknown_tags, 1);
        assert_eq!(r.agg("a").unwrap().calls, 1);
    }
}
