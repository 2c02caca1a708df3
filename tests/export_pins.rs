//! Byte pins for the timeline renderers beyond the tiny Figure-4
//! fixture: a supervised Chrome trace with every overlay attached, a
//! multi-session multi-lane whole-run capture through all three
//! formats, and a tag file whose names need JSON escaping.
//!
//! Small outputs are checked in under `tests/golden/`; large ones are
//! pinned by byte length plus an FNV-1a digest, so a renderer rewrite
//! must reproduce every byte without a multi-megabyte golden.
//!
//! Regenerate the small goldens after an intentional format change
//! with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p hwprof --test export_pins
//! ```
//!
//! and copy the length/digest a failing pin prints into its constant.

use std::fs;
use std::path::PathBuf;

use hwprof::analysis::Reconstruction;
use hwprof::profiler::{BoardConfig, RawRecord};
use hwprof::tagfile::{TagFile, TagKind};
use hwprof::{
    scenarios, validate_json, AlertEntry, AlertTransition, Analyzer, Detector, Experiment, Profile,
    SpanEvent, SpanLog, SpanName, SpanPhase, SpanTrack, SupervisedCapture, SupervisorPolicy,
};

const SEED: u64 = 0x1993_0617;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); run with UPDATE_GOLDEN=1"));
    assert_eq!(
        actual, expected,
        "output drifted from tests/golden/{name}; \
         rerun with UPDATE_GOLDEN=1 if the change is intentional"
    );
}

/// 64-bit FNV-1a.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Pins large outputs by length and digest, reporting every drifted
/// one at once: `(what, output, pinned length, pinned digest)`.
fn check_digests(pins: &[(&str, &str, usize, u64)]) {
    let drifted: Vec<String> = pins
        .iter()
        .filter(|&&(_, out, len, digest)| out.len() != len || fnv1a(out) != digest)
        .map(|&(what, out, len, digest)| {
            format!(
                "{what}: {} bytes, digest {:#018x} (pinned {len} bytes, {digest:#018x})",
                out.len(),
                fnv1a(out)
            )
        })
        .collect();
    assert!(drifted.is_empty(), "drifted:\n{}", drifted.join("\n"));
}

// ---- supervised Chrome trace with every overlay ------------------------

fn supervised(log: &SpanLog) -> SupervisedCapture {
    let policy = SupervisorPolicy {
        seed: SEED,
        min_coverage_ppm: 0,
        drain_budget_us: 2_000,
        ..SupervisorPolicy::default()
    };
    Experiment::new()
        .profile_all()
        .board(BoardConfig {
            capacity: 1024,
            time_bits: 24,
        })
        .scenario(scenarios::network_receive(64 * 1024, true))
        .journal(log)
        .supervised(policy)
        .expect("supervised run")
}

fn span(t_us: u64, phase: SpanPhase, track: SpanTrack, name: SpanName, id: u64) -> SpanEvent {
    SpanEvent {
        t_us,
        phase,
        track,
        name,
        id,
        arg: 7,
    }
}

fn alert(seq: u64, detector: Detector, subject: &str, transition: AlertTransition) -> AlertEntry {
    AlertEntry {
        seq,
        window: seq * 3,
        at_us: 1_000 * seq,
        detector,
        subject: subject.to_string(),
        transition,
        baseline: 400,
        observed: 400 + 75 * seq,
        delta: if seq.is_multiple_of(2) { -75 } else { 75 } * seq as i64,
    }
}

#[test]
fn supervised_chrome_trace_with_journal_and_alerts_is_pinned() {
    let log = SpanLog::new();
    let cap = supervised(&log);
    let mut events = log.snapshot();
    assert!(!events.is_empty(), "journal must record pipeline spans");
    // An end whose begin was never journaled, and a begin whose end
    // never came: the two unpaired cases of the pipeline lanes.
    events.push(span(
        40,
        SpanPhase::End,
        SpanTrack::Transport,
        SpanName::Upload,
        90,
    ));
    events.push(span(
        50,
        SpanPhase::Begin,
        SpanTrack::Board,
        SpanName::Bank,
        91,
    ));
    let alerts = [
        alert(
            1,
            Detector::RateShift,
            "tcp_input",
            AlertTransition::Pending,
        ),
        alert(
            2,
            Detector::RateShift,
            "tcp_\"in\"\\put",
            AlertTransition::Firing,
        ),
        alert(
            3,
            Detector::CoverageDrop,
            "coverage",
            AlertTransition::Resolved,
        ),
    ];
    let chrome = Profile::new(&cap.profile)
        .name("supervised pin")
        .run(&cap.run)
        .span_events(events)
        .alerts(&alerts)
        .chrome_trace();
    validate_json(&chrome).expect("valid JSON");

    assert!(
        cap.coverage().gaps >= 1,
        "the run must go dark at least once"
    );
    for needle in [
        "\"name\":\"dark (",
        "\"name\":\"gap (",
        "\"name\":\"mask level = ",
        "\"name\":\"alerts\"",
        "\"name\":\"capture pipeline\"",
        "\"ph\":\"X\",\"pid\":1000000",
        "\"ph\":\"i\",\"pid\":1000000",
        "upload (unmatched end)",
        "bank (open at capture end)",
        "FIRING rate-shift(",
    ] {
        assert!(chrome.contains(needle), "missing {needle}");
    }
    check_digests(&[(
        "supervised chrome trace",
        &chrome,
        151_702,
        0x1490_9852_3567_8599,
    )]);
}

// ---- multi-session, multi-lane whole-run capture -----------------------

/// `scenarios::mixed(2)` captured whole, then cut into 4096-record
/// banks so the plain export lays out several sessions.
fn mixed_sessions() -> Reconstruction {
    let cap = Experiment::new()
        .board(BoardConfig {
            capacity: 1 << 20,
            ..BoardConfig::default()
        })
        .scenario(scenarios::mixed(2))
        .try_run()
        .expect("mixed run");
    assert!(!cap.overflowed, "the whole run must fit the RAM");
    Analyzer::for_tagfile(&cap.tagfile)
        .record_sessions(cap.records.chunks(4096))
        .expect("ungated analysis")
}

#[test]
fn mixed_whole_run_exports_are_pinned() {
    let r = mixed_sessions();
    assert!(r.sessions >= 3, "several sessions: {}", r.sessions);
    assert!(r.births >= 1, "the run must spawn processes");
    assert!(r.open_at_end >= 1, "frames must stay open at capture end");
    let p = Profile::new(&r).name("mixed pin");
    let chrome = p.chrome_trace();
    let speedscope = p.speedscope();
    let folded = p.folded();
    validate_json(&chrome).expect("valid chrome JSON");
    validate_json(&speedscope).expect("valid speedscope JSON");
    for needle in [
        "switch in (new process)",
        "\"name\":\"== ",
        " (open at capture end)",
        "\"name\":\"control 1\"",
        "\"name\":\"kernel session 2\"",
    ] {
        assert!(chrome.contains(needle), "missing {needle}");
    }
    check_digests(&[
        (
            "mixed chrome trace",
            &chrome,
            907_244,
            0x74ae_6033_cd90_53b9,
        ),
        (
            "mixed speedscope",
            &speedscope,
            429_327,
            0x1dc9_de1f_3f15_1af5,
        ),
        (
            "mixed folded stacks",
            &folded,
            20_140,
            0x8f52_fb0f_f73c_718e,
        ),
    ]);
}

// ---- names that need escaping ------------------------------------------

/// Two threads of control over functions whose names exercise every
/// escape class the writers handle: quote, backslash, tab, another
/// control character, and multi-byte UTF-8.
fn escaping() -> Reconstruction {
    let mut tf = TagFile::new(600);
    let quote = tf.assign("say \"hi\"", TagKind::Function).expect("fresh");
    let slash = tf.assign("back\\slash", TagKind::Function).expect("fresh");
    let tab = tf
        .assign("tab\there\u{1}", TagKind::Function)
        .expect("fresh");
    let utf = tf.assign("naïve_π_🦀", TagKind::Function).expect("fresh");
    let swtch = tf.assign("swtch", TagKind::ContextSwitch).expect("fresh");
    let mark = tf.assign("mark \"§\"", TagKind::Inline).expect("fresh");
    let mut records = Vec::new();
    let mut t = 10u64;
    for _ in 0..2 {
        for (tag, dt) in [
            (quote, 0),
            (slash, 5),
            (mark, 9),
            (slash + 1, 14),
            (tab, 20),
            (tab + 1, 31),
            (swtch, 35),
            (swtch + 1, 38),
            (utf, 40),
            (utf + 1, 52),
            (swtch, 53),
            (swtch + 1, 55),
            (quote + 1, 60),
        ] {
            records.push(RawRecord::latch(tag, t + dt));
        }
        t += 70;
    }
    records.push(RawRecord::latch(utf, t));
    Analyzer::for_tagfile(&tf)
        .record_sessions([records.as_slice()])
        .expect("ungated analysis")
}

#[test]
fn escaped_names_are_pinned() {
    let r = escaping();
    let p = Profile::new(&r).name("pin \"esc\" \\ \t ü");
    let chrome = p.chrome_trace();
    let speedscope = p.speedscope();
    let doc = validate_json(&chrome).expect("valid chrome JSON");
    validate_json(&speedscope).expect("valid speedscope JSON");
    assert!(r.context_switches >= 2, "two threads of control");
    let names: Vec<&str> = doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents")
        .iter()
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .collect();
    for want in ["say \"hi\"", "back\\slash", "tab\there\u{1}", "naïve_π_🦀"] {
        assert!(names.contains(&want), "{want:?} must round-trip");
    }
    check_golden("escaping_trace.json", &chrome);
    check_golden("escaping.speedscope.json", &speedscope);
    check_golden("escaping.folded", &p.folded());
}
