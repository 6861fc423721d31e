//! Golden-replay determinism gate for the live attack-telemetry stream:
//! the `.evt` recording of the golden LeNet pipeline run (trace generation
//! plus structure recovery, the paper's Fig. 3 setting) must be
//! byte-identical run to run and match the checked-in
//! `tests/golden/lenet_events.evt`; the `cnnre-viz` renderings of that
//! recording (recovered-graph DOT and attack-progress timeline SVG) must
//! match their checked-in snapshots byte for byte.
//!
//! Regenerate all three goldens after an intentional protocol, pipeline,
//! or renderer change:
//!
//! ```text
//! cargo test --test events_golden -- --ignored regenerate_golden_events
//! ```
//!
//! The stream hub is global, so the checking test performs all of its
//! runs itself rather than sharing state across `#[test]` bodies.

use cnn_reveng::accel::{AccelConfig, Accelerator};
use cnn_reveng::attacks::structure::{recover_structures, NetworkSolverConfig};
use cnn_reveng::nn::models::lenet;
use cnnre_obs::stream::{read_stream, EventPayload};
use cnnre_tensor::rng::{SeedableRng, SmallRng};
use cnnre_viz::{dot, timeline, ReplayState};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Runs the golden pipeline (LeNet seed-0 trace + structure recovery) with
/// event recording on and returns the recorded `.evt` bytes.
fn recorded_run() -> Vec<u8> {
    cnnre_obs::set_enabled(true);
    cnnre_obs::stream::reset();
    cnnre_obs::stream::set_enabled(true);
    cnnre_obs::stream::set_record(true);
    let mut rng = SmallRng::seed_from_u64(0);
    let net = lenet(1, 10, &mut rng);
    let accel = Accelerator::new(AccelConfig::default());
    let exec = accel
        .run_trace_only(&net)
        .expect("LeNet lowers onto the accelerator");
    recover_structures(&exec.trace, (32, 1), 10, &NetworkSolverConfig::default())
        .expect("structures recoverable");
    let bytes = cnnre_obs::stream::recorded_stream_snapshot();
    cnnre_obs::stream::set_record(false);
    cnnre_obs::stream::set_enabled(false);
    cnnre_obs::stream::reset();
    cnnre_obs::set_enabled(false);
    cnnre_obs::global().reset();
    bytes
}

#[test]
fn recording_and_replay_are_byte_deterministic_and_match_goldens() {
    let first = recorded_run();
    let second = recorded_run();
    assert!(!first.is_empty(), "recorded run must produce events");
    assert_eq!(
        first, second,
        "the recorded event stream must be byte-deterministic"
    );

    let events = read_stream(first.as_slice()).expect("own recording decodes");
    assert!(
        events
            .iter()
            .any(|e| matches!(e.payload, EventPayload::RunStarted { .. })),
        "run markers present"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.payload, EventPayload::LayerBoundary { .. })),
        "segmentation progress present"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.payload, EventPayload::CandidatesNarrowed { .. })),
        "solver progress present"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.payload, EventPayload::GraphConv { .. })),
        "recovered graph present"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.payload, EventPayload::RunFinished { .. })),
        "completion marker present"
    );

    let replay = ReplayState::from_events(&events);
    assert_eq!(replay.unknown_events, 0, "no forward-compat fallbacks");
    let graph = &replay
        .final_graph_run()
        .expect("a run carries the recovered graph")
        .graph;
    let dot_a = dot::render_dot(graph);
    let svg_a = timeline::render_timeline_svg(&replay);

    // The replay fold and renderers are pure functions of the decoded
    // events, so re-rendering the second recording checks the whole
    // record → decode → render chain for determinism.
    let replay_b = ReplayState::from_events(&read_stream(second.as_slice()).expect("decodes"));
    let graph_b = &replay_b.final_graph_run().expect("graph run").graph;
    assert_eq!(dot_a, dot::render_dot(graph_b), "DOT must be deterministic");
    assert_eq!(
        svg_a,
        timeline::render_timeline_svg(&replay_b),
        "timeline SVG must be deterministic"
    );

    let stale = "tests/golden/{} is stale: the pipeline, the wire format, or \
                 the renderer now produces different output; rerun `cargo test \
                 --test events_golden -- --ignored regenerate_golden_events` \
                 if the change is intentional";
    let on_disk = std::fs::read(golden_path("lenet_events.evt"))
        .expect("golden .evt exists; regenerate with the ignored test");
    assert!(
        on_disk == first,
        "{}",
        stale.replace("{}", "lenet_events.evt")
    );
    let on_disk = std::fs::read_to_string(golden_path("lenet_graph.dot"))
        .expect("golden DOT exists; regenerate with the ignored test");
    assert!(
        on_disk == dot_a,
        "{}",
        stale.replace("{}", "lenet_graph.dot")
    );
    let on_disk = std::fs::read_to_string(golden_path("lenet_timeline.svg"))
        .expect("golden timeline exists; regenerate with the ignored test");
    assert!(
        on_disk == svg_a,
        "{}",
        stale.replace("{}", "lenet_timeline.svg")
    );
}

#[test]
#[ignore = "writes the tests/golden/lenet_events.* snapshots; run explicitly after intentional changes"]
fn regenerate_golden_events() {
    let bytes = recorded_run();
    let events = read_stream(bytes.as_slice()).expect("own recording decodes");
    let replay = ReplayState::from_events(&events);
    let graph = &replay
        .final_graph_run()
        .expect("a run carries the recovered graph")
        .graph;
    std::fs::write(golden_path("lenet_events.evt"), &bytes).expect("golden .evt written");
    std::fs::write(golden_path("lenet_graph.dot"), dot::render_dot(graph))
        .expect("golden DOT written");
    std::fs::write(
        golden_path("lenet_timeline.svg"),
        timeline::render_timeline_svg(&replay),
    )
    .expect("golden timeline written");
}
