//! Timeline oracle property suite: the code-path trace replayed on
//! demand from a [`Reconstruction`]'s kept events must equal the trace
//! a traced [`SessionRecon`] builds in one pass over the same sessions.
//!
//! Inputs are multi-session captures of several simulated processes
//! that call, return, fire inline points and switch (so reconstruction
//! sees births, resumes of suspended stacks and orphan exits), with
//! records dropped at random so recovery mode has to resynchronize.
//! Four things are checked:
//!
//! * the kept item count is exact: `r.trace.len() == r.timeline().len()`;
//! * the replayed timeline equals a direct one-pass traced fold;
//! * the timeline of merged parts equals the one-pass timeline;
//! * `==` answers the same through the kept-events fast path as
//!   through full replay.
//!
//! Runs at 256 cases per property (`PROPTEST_CASES` overrides); the CI
//! property job pins exactly that.

use proptest::prelude::*;

use hwprof_analysis::{decode, Event, Reconstruction, SessionRecon, Symbols, Timeline, TraceItem};
use hwprof_profiler::RawRecord;
use hwprof_tagfile::{TagFile, TagKind};

/// A capture of `procs` simulated processes.  Each op calls a
/// function, returns from the innermost one, switches to another
/// process through `swtch`, or fires an inline point (sometimes a tag
/// the tag file does not know).  Every `drop_every`-th record is lost
/// (0 keeps them all).  The record stream is then cut into sessions.
fn capture(
    procs: usize,
    ops: &[(u8, u8)],
    drop_every: usize,
    cuts: &[usize],
) -> (Symbols, Vec<Vec<Event>>) {
    let mut tf = TagFile::new(100);
    let fns: Vec<u16> = (0..4)
        .map(|i| {
            tf.assign(&format!("f{i}"), TagKind::Function)
                .expect("fresh")
        })
        .collect();
    let swtch = tf.assign("swtch", TagKind::ContextSwitch).expect("fresh");
    let mark = tf.assign("MARK", TagKind::Inline).expect("fresh");
    let procs = procs.max(1);
    let mut stacks: Vec<Vec<u16>> = vec![Vec::new(); procs];
    let mut cur = 0usize;
    let mut t = 0u64;
    let mut records = Vec::new();
    let mut emit = |tag: u16, t: u64| records.push(RawRecord::latch(tag, t));
    for &(sel, dt) in ops {
        t += u64::from(dt) + 1;
        match sel % 6 {
            0 | 1 => {
                let f = fns[usize::from(sel / 6) % fns.len()];
                stacks[cur].push(f);
                emit(f, t);
            }
            2 | 3 => {
                if let Some(f) = stacks[cur].pop() {
                    emit(f + 1, t);
                }
            }
            4 => {
                // Switch out, then resume `next` (its suspended swtch
                // frame, if any, closes with this exit).
                emit(swtch, t);
                t += 3;
                stacks[cur].push(swtch);
                cur = usize::from(sel / 6) % procs;
                if stacks[cur].last() == Some(&swtch) {
                    stacks[cur].pop();
                }
                emit(swtch + 1, t);
            }
            _ => emit(
                if sel % 12 == 5 {
                    mark
                } else {
                    900 + u16::from(sel)
                },
                t,
            ),
        }
    }
    let records: Vec<RawRecord> = records
        .into_iter()
        .enumerate()
        .filter(|(i, _)| drop_every == 0 || (i + 1) % drop_every != 0)
        .map(|(_, r)| r)
        .collect();
    let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (records.len() + 1)).collect();
    bounds.sort_unstable();
    let syms = Symbols::from_tagfile(&tf);
    let mut sessions = Vec::new();
    let mut prev = 0;
    for b in bounds.into_iter().chain([records.len()]) {
        let (_, events) = decode(&records[prev..b.max(prev)], &tf);
        sessions.push(events);
        prev = b.max(prev);
    }
    (syms, sessions)
}

/// The aggregate-only fold of `sessions`, session `i` in mode
/// `modes[i % modes.len()]`.
fn fold(syms: &Symbols, sessions: &[Vec<Event>], modes: &[bool]) -> Reconstruction {
    let mut out = Reconstruction::empty(syms.clone());
    for (i, s) in sessions.iter().enumerate() {
        SessionRecon::new(syms, modes[i % modes.len()]).session_into(s, &mut out);
    }
    out
}

/// The oracle: the items a traced reconstructor builds while it folds,
/// one traced reconstructor per session mode, concatenated in session
/// order.  With one mode this is a single one-pass fold.
fn one_pass(syms: &Symbols, sessions: &[Vec<Event>], modes: &[bool]) -> Vec<TraceItem> {
    if modes.iter().all(|&m| m == modes[0]) {
        let mut recon = SessionRecon::traced(syms, modes[0]);
        let mut out = Reconstruction::empty(syms.clone());
        for s in sessions {
            recon.session_into(s, &mut out);
        }
        return recon.items().to_vec();
    }
    let mut items = Vec::new();
    for (i, s) in sessions.iter().enumerate() {
        let mut recon = SessionRecon::traced(syms, modes[i % modes.len()]);
        recon.session_into(s, &mut Reconstruction::empty(syms.clone()));
        items.extend_from_slice(recon.items());
    }
    items
}

/// `r` with its timeline emptied: `==` on two of these compares the
/// aggregates alone.
fn aggregate(r: &Reconstruction) -> Reconstruction {
    Reconstruction {
        trace: Timeline::default(),
        ..r.clone()
    }
}

/// What `==` promises: equal aggregates and equal materialized items.
fn replay_eq(a: &Reconstruction, b: &Reconstruction) -> bool {
    aggregate(a) == aggregate(b) && a.timeline() == b.timeline()
}

proptest! {
    #![cases(256)]

    /// The aggregate pass counts exactly the items the replay builds,
    /// and the replay equals one traced pass, in either mode.
    #[test]
    fn replay_matches_one_pass_fold(
        procs in 1usize..4,
        ops in prop::collection::vec((0u8..=255, 0u8..40), 0..160),
        drop_every in 0usize..12,
        cuts in prop::collection::vec(0usize..1000, 0..5),
        recover in 0u8..2,
    ) {
        let (syms, sessions) = capture(procs, &ops, drop_every, &cuts);
        let modes = [recover == 1];
        let r = fold(&syms, &sessions, &modes);
        let oracle = one_pass(&syms, &sessions, &modes);
        prop_assert_eq!(r.trace.len(), oracle.len());
        prop_assert_eq!(r.timeline(), &oracle[..]);
        prop_assert_eq!(r.trace.len(), r.timeline().len());
        // The traced form's aggregate is the aggregate form's.
        let mut traced = SessionRecon::traced(&syms, modes[0]);
        let mut out = Reconstruction::empty(syms.clone());
        for s in &sessions {
            traced.session_into(s, &mut out);
        }
        prop_assert!(out == r);
    }

    /// Merging parts folded separately, in any mix of modes, yields the
    /// one-pass timeline, whether or not a part was replayed first.
    #[test]
    fn merged_parts_replay_like_one_pass(
        procs in 1usize..4,
        ops in prop::collection::vec((0u8..=255, 0u8..40), 0..160),
        drop_every in 0usize..12,
        cuts in prop::collection::vec(0usize..1000, 1..6),
        split in 0usize..8,
        modes in prop::collection::vec(0u8..2, 1..4),
        replay_first in 0u8..2,
    ) {
        let (syms, sessions) = capture(procs, &ops, drop_every, &cuts);
        let modes: Vec<bool> = modes.into_iter().map(|m| m == 1).collect();
        let split = split % (sessions.len() + 1);
        let whole = fold(&syms, &sessions, &modes);
        let mut merged = Reconstruction::empty(syms.clone());
        for (lo, hi) in [(0, split), (split, sessions.len())] {
            // Part-local modes continue the whole capture's cycle.
            let part_modes: Vec<bool> = (lo..hi.max(lo + 1)).map(|i| modes[i % modes.len()]).collect();
            let part = fold(&syms, &sessions[lo..hi], &part_modes);
            if replay_first == 1 {
                prop_assert_eq!(part.timeline().len(), part.trace.len());
                prop_assert_eq!(merged.timeline().len(), merged.trace.len());
            }
            merged.merge(part);
        }
        let oracle = one_pass(&syms, &sessions, &modes);
        prop_assert_eq!(merged.trace.len(), oracle.len());
        prop_assert_eq!(merged.timeline(), &oracle[..]);
        prop_assert!(merged == whole);
    }

    /// `==` through the kept-events fast path agrees with full replay:
    /// on an identical rebuild, with every session's mode flipped, and
    /// with one event moved in time.
    #[test]
    fn equality_fast_path_agrees_with_replay(
        procs in 1usize..4,
        ops in prop::collection::vec((0u8..=255, 0u8..40), 0..120),
        drop_every in 0usize..12,
        cuts in prop::collection::vec(0usize..1000, 0..4),
        recover in 0u8..2,
        nudge in 0usize..1000,
    ) {
        let (syms, sessions) = capture(procs, &ops, drop_every, &cuts);
        let modes = [recover == 1];
        let a = fold(&syms, &sessions, &modes);
        let cold = a.clone();

        let same = fold(&syms, &sessions, &modes);
        let flipped = fold(&syms, &sessions, &[recover == 0]);
        let mut moved_sessions = sessions.clone();
        if let Some(s) = moved_sessions.iter_mut().find(|s| !s.is_empty()) {
            let i = nudge % s.len();
            s[i].t += 1;
        }
        let moved = fold(&syms, &moved_sessions, &modes);

        for b in [&same, &flipped, &moved] {
            // Clones of never-replayed values: `==` here cannot lean on
            // a cached timeline.
            let fast = cold.clone() == b.clone();
            prop_assert_eq!(fast, replay_eq(&cold.clone(), b));
            prop_assert_eq!(fast, a == *b);
        }
        prop_assert!(a == same);
    }
}
