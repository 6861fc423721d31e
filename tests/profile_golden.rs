//! Golden-profile determinism gate: the cycle-domain exports of a profiled
//! golden LeNet pipeline run (trace generation + structure recovery) must
//! be byte-identical run to run, and the Chrome Trace export must match
//! the checked-in `tests/golden/lenet_profile.json`.
//!
//! Wall-clock timestamps vary per run by construction, so only the
//! cycle-domain exports ([`cnnre_obs::profile::ClockDomain::Cycles`]) are
//! pinned; the `both`-domain export is covered by the CLI smoke tests.
//!
//! Regenerate the golden after an intentional pipeline or exporter change:
//!
//! ```text
//! cargo test --test profile_golden -- --ignored regenerate_golden_profile
//! ```
//!
//! Both tests live in one `#[test]` body each and the harness runs this
//! binary's tests in-process: the profile ring is global, so the checking
//! test performs all of its runs itself rather than sharing state.

use cnn_reveng::accel::{AccelConfig, Accelerator};
use cnn_reveng::attacks::structure::{recover_structures, NetworkSolverConfig};
use cnn_reveng::nn::models::lenet;
use cnnre_obs::profile::{chrome_trace, folded_stacks, ClockDomain, ProfileEvent};
use cnnre_tensor::rng::{SeedableRng, SmallRng};
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/lenet_profile.json")
}

/// Runs the golden pipeline (LeNet seed-0 trace + structure recovery) with
/// profiling on and returns the exported events.
fn profiled_run() -> Vec<ProfileEvent> {
    cnnre_obs::set_enabled(true);
    cnnre_obs::profile::set_enabled(true);
    cnnre_obs::profile::reset();
    let mut rng = SmallRng::seed_from_u64(0);
    let net = lenet(1, 10, &mut rng);
    let accel = Accelerator::new(AccelConfig::default());
    let exec = accel
        .run_trace_only(&net)
        .expect("LeNet lowers onto the accelerator");
    recover_structures(&exec.trace, (32, 1), 10, &NetworkSolverConfig::default())
        .expect("structures recoverable");
    let events = cnnre_obs::profile::export();
    cnnre_obs::profile::set_enabled(false);
    cnnre_obs::set_enabled(false);
    cnnre_obs::global().reset();
    events
}

#[test]
fn cycle_domain_exports_are_deterministic_and_match_golden() {
    let first = profiled_run();
    let second = profiled_run();
    assert!(!first.is_empty(), "profiled run must record events");

    let trace_a = chrome_trace(&first, ClockDomain::Cycles);
    let trace_b = chrome_trace(&second, ClockDomain::Cycles);
    assert_eq!(
        trace_a, trace_b,
        "cycle-domain Chrome Trace export must be byte-deterministic"
    );
    let folded_a = folded_stacks(&first, ClockDomain::Cycles);
    let folded_b = folded_stacks(&second, ClockDomain::Cycles);
    assert_eq!(
        folded_a, folded_b,
        "cycle-domain flamegraph export must be byte-deterministic"
    );

    // The timeline covers both halves of the pipeline.
    assert!(trace_a.contains("accel.run_trace_only"), "accel span");
    assert!(trace_a.contains("attack.structure"), "solver span");
    assert!(trace_a.contains("conv1"), "labelled stage slice");

    let on_disk = std::fs::read_to_string(golden_path())
        .expect("golden profile exists; regenerate with the ignored test");
    assert!(
        on_disk == trace_a,
        "tests/golden/lenet_profile.json is stale: the pipeline or the \
         exporter now produces a different cycle-domain timeline; rerun \
         `cargo test --test profile_golden -- --ignored \
         regenerate_golden_profile` if the change is intentional"
    );
}

/// One complete (`"ph":"X"`) span of a Chrome Trace export: its path and
/// its `[ts, ts + dur]` interval.
struct Slice {
    path: String,
    ts: u64,
    end: u64,
}

/// The complete spans of a Chrome Trace export written one event per line,
/// as `chrome_trace` writes it.
fn slices(chrome: &str) -> Vec<Slice> {
    let field = |line: &str, key: &str| -> Option<String> {
        let rest = &line[line.find(&format!("\"{key}\":"))? + key.len() + 3..];
        let end = rest.find([',', '}'])?;
        Some(rest[..end].trim_matches('"').to_string())
    };
    chrome
        .lines()
        .filter(|line| line.contains("\"ph\":\"X\""))
        .map(|line| {
            let num = |key| -> u64 {
                field(line, key)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("no {key} in {line}"))
            };
            let ts = num("ts");
            Slice {
                path: field(line, "path").unwrap_or_else(|| panic!("no path in {line}")),
                ts,
                end: ts + num("dur"),
            }
        })
        .collect()
}

#[test]
fn golden_profile_children_cover_their_parents() {
    let on_disk = std::fs::read_to_string(golden_path()).expect("golden profile exists");
    let spans = slices(&on_disk);
    // `b` nests in `a`: a longer path under `a`'s, inside `a`'s interval.
    let nests = |a: &Slice, b: &Slice| {
        b.path.len() > a.path.len()
            && b.path.starts_with(&a.path)
            && b.path.as_bytes()[a.path.len()] == b'.'
            && a.ts <= b.ts
            && b.end <= a.end
    };
    let mut parents = 0;
    for parent in spans.iter().filter(|s| s.end > s.ts) {
        let nested: Vec<&Slice> = spans.iter().filter(|c| nests(parent, c)).collect();
        let mut children: Vec<(u64, u64)> = nested
            .iter()
            .filter(|c| !nested.iter().any(|mid| nests(mid, c)))
            .map(|c| (c.ts, c.end))
            .collect();
        if children.is_empty() {
            continue;
        }
        children.sort_unstable();
        let (mut covered, mut reach) = (0, parent.ts);
        for (ts, end) in children {
            covered += end.saturating_sub(ts.max(reach));
            reach = reach.max(end);
        }
        let dur = parent.end - parent.ts;
        assert!(
            10 * covered >= 9 * dur,
            "{}'s children cover {covered} of its {dur} cycles",
            parent.path
        );
        parents += 1;
    }
    // accel.run_trace_only, attack.structure and its segment span.
    assert!(parents >= 3, "only {parents} parent spans with children");
}

#[test]
#[ignore = "writes tests/golden/lenet_profile.json; run explicitly after intentional changes"]
fn regenerate_golden_profile() {
    let events = profiled_run();
    let rendered = chrome_trace(&events, ClockDomain::Cycles);
    std::fs::write(golden_path(), rendered).expect("golden profile written");
}
