//! The `cnnre-audit` command-line tool.
//!
//! ```text
//! cnnre-audit trace FILE       audit a saved memory trace (.csv or binary)
//! cnnre-audit candidates FILE  audit a candidate-layer JSONL file
//! cnnre-audit events FILE      audit a recorded .evt attack-event stream
//!
//!   --format human|json   report format (default human)
//!   --out FILE            also write the report to FILE
//!   --epb N               elements per DRAM block for Eq. (1)-(3) (default 16)
//!   --trace FILE          events mode: cross-check boundaries (E003)
//!   --candidates FILE     events mode: cross-check the graph (E004)
//!   --quiet               suppress stdout (exit code still set)
//!   --list-checks         print the diagnostic-code catalogue and exit
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 operational error (unreadable file,
//! malformed input, bad flags) — the same convention as `cnnre-lint`.

use std::fs;
use std::io::Read;
use std::process::ExitCode;

use cnnre_audit::{AuditReport, Tolerances};
use cnnre_trace::io::{read_binary_unordered, read_csv_unordered};
use cnnre_trace::Trace;

/// First bytes of the binary trace container (`trace::io`).
const BINARY_MAGIC: &[u8; 8] = b"CNNRETR1";

struct Opts {
    mode: Mode,
    file: String,
    json: bool,
    out: Option<String>,
    quiet: bool,
    epb: u64,
    trace_companion: Option<String>,
    candidates_companion: Option<String>,
}

enum Mode {
    Trace,
    Candidates,
    Events,
}

const CHECK_CATALOGUE: &[(&str, &str)] = &[
    ("T001", "event cycle stamps must be non-decreasing"),
    ("T002", "transaction addresses must be block-aligned"),
    ("T010", "segments must tile the event stream"),
    ("T011", "segment cycle stamps must match their events"),
    ("T012", "no read-after-write within one segment"),
    ("T013", "per segment, written and read regions are disjoint"),
    (
        "T014",
        "per segment, written blocks form one contiguous extent",
    ),
    (
        "T015",
        "word-granularity traces write each address once per segment",
    ),
    ("T020", "every segment classifies as prologue/compute/merge"),
    (
        "G001",
        "Eq. (1): SIZE_IFM = W_IFM^2 * D_IFM matches the footprint",
    ),
    (
        "G002",
        "Eq. (2): SIZE_OFM = W_OFM^2 * D_OFM matches the footprint",
    ),
    (
        "G003",
        "Eq. (3): SIZE_FLTR = F^2 * D_IFM * D_OFM matches the footprint",
    ),
    (
        "G004",
        "Eq. (4): the width chain W_IFM -> W_conv -> W_OFM holds",
    ),
    (
        "G005",
        "Eq. (5): S_conv <= F_conv <= W_IFM/2 (pointwise excepted)",
    ),
    ("G006", "Eq. (6): S_pool <= F_pool <= W_conv"),
    ("G007", "Eq. (7): P_conv < F_conv"),
    ("G008", "Eq. (8): P_pool < F_pool"),
    ("C001", "chain: W_OFM_i = W_IFM_{i+1}"),
    (
        "C002",
        "chain: D_OFM_i = D_IFM_{i+1} (summed over concat sources)",
    ),
    ("C003", "chain: FC in_features = flattened source volume"),
    (
        "D001",
        "differential: segment count = schedule stages + prologue",
    ),
    (
        "D002",
        "differential: OFM footprint matches the planned binding",
    ),
    (
        "D003",
        "differential: filter footprint matches the weight region",
    ),
    (
        "D004",
        "differential: IFM footprint within the inputs' dense extent",
    ),
    (
        "D005",
        "differential: pruned write count equals OFM non-zeros",
    ),
    (
        "D006",
        "differential: ground truth present in the candidate set",
    ),
    (
        "E001",
        "event stream: cycles non-decreasing within each run",
    ),
    ("E002", "event stream: sequence numbers strictly increasing"),
    (
        "E003",
        "event stream: boundaries match the trace's re-segmentation",
    ),
    (
        "E004",
        "event stream: recovered graph matches candidate chain 0",
    ),
];

fn usage() -> String {
    "usage: cnnre-audit <trace|candidates|events> FILE [--format human|json] [--out FILE] \
     [--epb N] [--trace FILE] [--candidates FILE] [--quiet]\n       \
     cnnre-audit --list-checks"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<Option<Opts>, String> {
    let mut mode = None;
    let mut file = None;
    let mut json = false;
    let mut out = None;
    let mut quiet = false;
    let mut epb = 16;
    let mut trace_companion = None;
    let mut candidates_companion = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list-checks" => {
                for (code, summary) in CHECK_CATALOGUE {
                    println!("{code}  {summary}");
                }
                return Ok(None);
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(None);
            }
            "--format" => match it.next().map(String::as_str) {
                Some("human") => json = false,
                Some("json") => json = true,
                other => return Err(format!("--format expects human|json, got {other:?}")),
            },
            "--out" => {
                out = Some(
                    it.next()
                        .ok_or_else(|| "--out expects a path".to_string())?
                        .clone(),
                );
            }
            "--epb" => {
                epb = it
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .filter(|&v| v > 0)
                    .ok_or_else(|| "--epb expects a positive integer".to_string())?;
            }
            "--trace" => {
                trace_companion = Some(
                    it.next()
                        .ok_or_else(|| "--trace expects a path".to_string())?
                        .clone(),
                );
            }
            "--candidates" => {
                candidates_companion = Some(
                    it.next()
                        .ok_or_else(|| "--candidates expects a path".to_string())?
                        .clone(),
                );
            }
            "--quiet" => quiet = true,
            "trace" if mode.is_none() => mode = Some(Mode::Trace),
            "candidates" if mode.is_none() => mode = Some(Mode::Candidates),
            "events" if mode.is_none() => mode = Some(Mode::Events),
            other if !other.starts_with('-') && mode.is_some() && file.is_none() => {
                file = Some(other.to_string());
            }
            other => return Err(format!("unrecognized argument '{other}'\n{}", usage())),
        }
    }
    match (mode, file) {
        (Some(mode), Some(file)) => Ok(Some(Opts {
            mode,
            file,
            json,
            out,
            quiet,
            epb,
            trace_companion,
            candidates_companion,
        })),
        _ => Err(usage()),
    }
}

/// Loads a trace, auto-detecting the binary container by its magic bytes
/// and falling back to CSV. Cycles running backwards are read, not
/// rejected, so the audit can report them as T001.
fn load_trace(path: &str) -> Result<Trace, String> {
    let mut f = fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let mut magic = [0u8; 8];
    let n = f.read(&mut magic).map_err(|e| format!("{path}: {e}"))?;
    drop(f);
    if n == 8 && &magic == BINARY_MAGIC {
        let f = fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
        read_binary_unordered(f).map_err(|e| format!("{path}: {e:?}"))
    } else {
        let f = fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
        read_csv_unordered(f).map_err(|e| format!("{path}: {e:?}"))
    }
}

fn run(opts: &Opts) -> Result<AuditReport, String> {
    match opts.mode {
        Mode::Trace => {
            let trace = load_trace(&opts.file)?;
            Ok(cnnre_audit::trace(&trace))
        }
        Mode::Candidates => {
            let text = fs::read_to_string(&opts.file).map_err(|e| format!("{}: {e}", opts.file))?;
            let chains =
                cnnre_audit::parse_candidates(&text).map_err(|e| format!("{}: {e}", opts.file))?;
            let tol = Tolerances {
                elems_per_block: opts.epb,
                ..Tolerances::default()
            };
            Ok(cnnre_audit::candidates(&chains, &tol))
        }
        Mode::Events => {
            let bytes = fs::read(&opts.file).map_err(|e| format!("{}: {e}", opts.file))?;
            let stream = cnnre_obs::stream::read_stream(bytes.as_slice())
                .map_err(|e| format!("{}: {e}", opts.file))?;
            let trace = match &opts.trace_companion {
                Some(path) => Some(load_trace(path)?),
                None => None,
            };
            let chains = match &opts.candidates_companion {
                Some(path) => {
                    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                    Some(cnnre_audit::parse_candidates(&text).map_err(|e| format!("{path}: {e}"))?)
                }
                None => None,
            };
            Ok(cnnre_audit::events(
                &stream,
                trace.as_ref(),
                chains.as_deref(),
            ))
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Some(opts)) => opts,
        Ok(None) => return ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("cnnre-audit: {msg}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&opts) {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("cnnre-audit: {msg}");
            return ExitCode::from(2);
        }
    };
    let rendered = if opts.json {
        report.render_json()
    } else {
        report.render_human()
    };
    if let Some(path) = &opts.out {
        if let Err(e) = fs::write(path, &rendered) {
            eprintln!("cnnre-audit: {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if !opts.quiet {
        print!("{rendered}");
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
