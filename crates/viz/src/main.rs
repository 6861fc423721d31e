//! `cnnre-viz` — render the attack-telemetry event stream.
//!
//! ```text
//! cnnre-viz --replay <file.evt | http://HOST:PORT[/PATH]> [--out-dir DIR] [--snapshots] [--metrics FILE]
//! ```
//!
//! `--replay` decodes a recorded event file, or fetches the stream a run
//! has recorded so far from its `--serve-obs` plane (the path defaults to
//! `/events`). Either way the final state is rendered into
//! `<out-dir>/graph.dot`, `graph.svg`, and `timeline.svg`; with
//! `--snapshots`, an incremental `graph_NNN.dot` is written every time a
//! recovered-graph event confirms a new layer, so the directory shows the
//! network growing as the attack converges.
//!
//! Exit codes: 0 success, 1 stream/fetch/render failure (including a
//! non-200 HTTP status), 2 usage error.

use cnnre_obs::stream::{EventPayload, EventReader};
use cnnre_viz::{dot, replay::ReplayState, timeline};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Opts {
    replay: String,
    out_dir: PathBuf,
    snapshots: bool,
    metrics: Option<PathBuf>,
}

const USAGE: &str = "usage:\n  \
    cnnre-viz --replay <file.evt | http://HOST:PORT[/PATH]> [--out-dir DIR] [--snapshots] [--metrics FILE]\n\n\
    --replay <src>    render a recorded event file, or GET a stream from a\n                    \
    --serve-obs plane (PATH defaults to /events)\n  \
    --out-dir <dir>   output directory (default: viz_out)\n  \
    --snapshots       write incremental graph_NNN.dot per confirmed layer\n  \
    --metrics <file>  write a viz.* metrics snapshot (JSON)";

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut replay = None;
    let mut opts = Opts {
        replay: String::new(),
        out_dir: PathBuf::from("viz_out"),
        snapshots: false,
        metrics: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--replay" => {
                let v = it.next().ok_or("--replay needs a file or URL argument")?;
                replay = Some(v.clone());
            }
            "--out-dir" => {
                let v = it.next().ok_or("--out-dir needs a directory argument")?;
                opts.out_dir = PathBuf::from(v);
            }
            "--snapshots" => opts.snapshots = true,
            "--metrics" => {
                let v = it.next().ok_or("--metrics needs a file argument")?;
                opts.metrics = Some(PathBuf::from(v));
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    opts.replay = replay.ok_or("--replay is required")?;
    Ok(opts)
}

/// Fetches `HOST:PORT[/PATH]`, an `http://` URL without its scheme (the
/// path defaults to `/events`), with the in-tree HTTP client; any status
/// other than 200 is an error.
fn fetch(url: &str) -> Result<Vec<u8>, String> {
    let (addr, path) = match url.find('/') {
        Some(i) => url.split_at(i),
        None => (url, "/events"),
    };
    let (status, body) =
        cnnre_obs::http::get(addr, path).map_err(|e| format!("GET http://{url}: {e}"))?;
    if status != 200 {
        return Err(format!("GET http://{url}: HTTP {status}"));
    }
    Ok(body)
}

/// Streams events from `source` into a replay state, writing incremental
/// graph snapshots when requested.
fn consume<R: Read>(
    source: R,
    opts: &Opts,
    consumed: &cnnre_obs::Counter,
    snapshots_written: &cnnre_obs::Counter,
) -> Result<ReplayState, String> {
    let mut reader = EventReader::new(source);
    let mut state = ReplayState::new();
    let mut snapshot_idx: u64 = 0;
    loop {
        let ev = match reader.next_event() {
            Ok(Some(ev)) => ev,
            Ok(None) => break,
            Err(e) => return Err(format!("event stream: {e}")),
        };
        let is_graph_event = matches!(
            ev.payload,
            EventPayload::GraphConv { .. } | EventPayload::GraphFc { .. }
        );
        state.apply(&ev);
        consumed.inc();
        if opts.snapshots && is_graph_event {
            let graph = state
                .final_graph_run()
                .map(|r| r.graph.as_slice())
                .unwrap_or(&[]);
            let path = opts.out_dir.join(format!("graph_{snapshot_idx:03}.dot"));
            write_file(&path, &dot::render_dot(graph))?;
            snapshots_written.inc();
            snapshot_idx += 1;
        }
    }
    Ok(state)
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("write {}: {e}", path.display()))
}

fn run(opts: &Opts) -> Result<(), String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("create {}: {e}", opts.out_dir.display()))?;
    let consumed = cnnre_obs::counter("viz.events.consumed");
    let snapshots_written = cnnre_obs::counter("viz.snapshots.written");
    let src = &opts.replay;
    let state = if let Some(url) = src.strip_prefix("http://") {
        let body = fetch(url)?;
        consume(body.as_slice(), opts, &consumed, &snapshots_written)?
    } else {
        let f = std::fs::File::open(src).map_err(|e| format!("open {src}: {e}"))?;
        consume(
            std::io::BufReader::new(f),
            opts,
            &consumed,
            &snapshots_written,
        )?
    };
    let graph = state
        .final_graph_run()
        .map(|r| r.graph.as_slice())
        .unwrap_or(&[]);
    write_file(&opts.out_dir.join("graph.dot"), &dot::render_dot(graph))?;
    write_file(
        &opts.out_dir.join("graph.svg"),
        &dot::render_graph_svg(graph),
    )?;
    write_file(
        &opts.out_dir.join("timeline.svg"),
        &timeline::render_timeline_svg(&state),
    )?;
    eprintln!(
        "cnnre-viz: {} events ({} unknown), {} runs, {} confirmed layers -> {}",
        state.events,
        state.unknown_events,
        state.runs.len(),
        graph.len(),
        opts.out_dir.display()
    );
    if let Some(path) = &opts.metrics {
        cnnre_obs::global()
            .snapshot()
            .write_json(path, false)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("cnnre-viz: {msg}\n");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if opts.metrics.is_some() {
        cnnre_obs::set_enabled(true);
    }
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("cnnre-viz: {msg}");
            ExitCode::from(1)
        }
    }
}
