//! The differential audit: for synthetic runs where the `nn` graph ground
//! truth is known, diff the trace/segmenter/solver view against the
//! graph's true geometry and name exactly which invariant broke.

use cnnre_accel::{AccelConfig, Execution, Schedule, ScheduleError, StageKind};
use cnnre_attacks::structure::{CandidateStructure, FcParams, LayerParams, PoolParams};
use cnnre_nn::graph::{Network, Op};
use cnnre_trace::observe::{observe, LayerKindHint};
use cnnre_trace::segment::{segment_trace, Segment};

use crate::geometry::{self, CandidateChain, CandidateLayer, ObservedSizes, Tolerances};
use crate::report::AuditReport;

/// The compute layers of the ground-truth network, as solver-comparable
/// parameter tuples, derived from the schedule and graph shapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrueLayer {
    /// A convolution stage (optionally with fused pooling).
    Conv {
        /// Stage name from the schedule (e.g. `conv1`).
        name: String,
        /// The true parameter tuple.
        params: LayerParams,
    },
    /// A fully connected stage.
    Fc {
        /// Stage name from the schedule.
        name: String,
        /// The true parameters.
        params: FcParams,
    },
    /// An element-wise merge stage (no free parameters).
    Merge {
        /// Stage name from the schedule.
        name: String,
    },
}

/// Extracts the ground-truth layer list for `net` under `config`'s
/// schedule — the reference every observed/recovered artifact is diffed
/// against.
///
/// # Errors
///
/// Returns [`ScheduleError`] when the network cannot be lowered.
pub fn true_layers(net: &Network, config: &AccelConfig) -> Result<Vec<TrueLayer>, ScheduleError> {
    let schedule = Schedule::plan(net, config)?;
    let mut out = Vec::new();
    for stage in schedule.stages() {
        match &stage.kind {
            StageKind::Conv {
                conv,
                pool,
                global_pool,
                ..
            } => {
                let Op::Conv(c) = &net.node(*conv).op else {
                    continue;
                };
                let in_shape = net.shape(stage.inputs[0]);
                let out_shape = net.shape(stage.output);
                let win = c.window();
                let w_conv = net.shape(*conv).h;
                let pool_params = if *global_pool {
                    Some(PoolParams {
                        f: w_conv,
                        s: w_conv.max(1),
                        p: 0,
                    })
                } else if let Some(pid) = pool {
                    match &net.node(*pid).op {
                        Op::Pool(p) => {
                            let pw = p.window();
                            Some(PoolParams {
                                f: pw.f,
                                s: pw.s,
                                p: pw.p,
                            })
                        }
                        _ => None,
                    }
                } else {
                    None
                };
                out.push(TrueLayer::Conv {
                    name: stage.name.clone(),
                    params: LayerParams {
                        w_ifm: in_shape.h,
                        d_ifm: c.d_ifm(),
                        w_ofm: out_shape.h,
                        d_ofm: c.d_ofm(),
                        f_conv: win.f,
                        s_conv: win.s,
                        p_conv: win.p,
                        pool: pool_params,
                    },
                });
            }
            StageKind::Fc { linear, .. } => {
                let Op::Linear(l) = &net.node(*linear).op else {
                    continue;
                };
                out.push(TrueLayer::Fc {
                    name: stage.name.clone(),
                    params: FcParams {
                        in_features: l.in_features(),
                        out_features: l.out_features(),
                    },
                });
            }
            StageKind::Eltwise => out.push(TrueLayer::Merge {
                name: stage.name.clone(),
            }),
        }
    }
    Ok(out)
}

/// Number of transaction blocks a byte region `[base, base+len)` spans.
fn span_blocks(base: u64, len_bytes: u64, blk: u64) -> u64 {
    if len_bytes == 0 {
        return 0;
    }
    (base + len_bytes - 1) / blk - base / blk + 1
}

/// True when a candidate tuple matches the ground truth up to padding
/// degeneracy: the side channel cannot distinguish paddings that produce
/// the same output width, so `P_conv`/`P_pool` are not compared.
fn conv_matches_truth(cand: &LayerParams, truth: &LayerParams) -> bool {
    cand.w_ifm == truth.w_ifm
        && cand.d_ifm == truth.d_ifm
        && cand.w_ofm == truth.w_ofm
        && cand.d_ofm == truth.d_ofm
        && cand.f_conv == truth.f_conv
        && cand.s_conv == truth.s_conv
        && match (cand.pool, truth.pool) {
            (None, None) => true,
            (Some(a), Some(b)) => a.f == b.f && a.s == b.s,
            _ => false,
        }
}

/// Diffs an execution (trace + stage reports) — and optionally a recovered
/// candidate set — against the graph ground truth.
///
/// Codes: `D001` segment count, `D002` OFM footprint, `D003` filter
/// footprint, `D004` IFM footprint, `D005` pruned write count vs OFM
/// non-zeros, `D006` ground truth missing from the candidate set (followed
/// by a geometry audit of the truth itself, so the finding names the
/// equation that excluded it).
///
/// # Errors
///
/// Returns [`ScheduleError`] when the network cannot be lowered.
pub fn differential(
    net: &Network,
    config: &AccelConfig,
    exec: &Execution,
    candidates: Option<&[CandidateStructure]>,
) -> Result<AuditReport, ScheduleError> {
    let schedule = Schedule::plan(net, config)?;
    let mut report = AuditReport::new("differential");
    let stages = schedule.stages();
    let segments = segment_trace(&exec.trace);
    let blk = exec.trace.block_bytes();

    // D001: one prologue segment plus exactly one segment per stage.
    if segments.len() != stages.len() + 1 {
        report.push(
            "D001",
            "trace",
            format!(
                "segmenter found {} segments but the schedule has {} stages (+1 prologue \
                 expected)",
                segments.len(),
                stages.len()
            ),
        );
    } else {
        let events = |seg: &Segment| exec.trace.events().skip(seg.first_event).take(seg.len());
        let mut seen_written: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        // Prologue writes (the staged input) count as feature-map state.
        for ev in events(&segments[0]) {
            if ev.kind.is_write() {
                seen_written.insert(ev.addr);
            }
        }
        for (stage, seg) in stages.iter().zip(&segments[1..]) {
            report.items_examined += 1;
            let subject = format!("stage {}", stage.name);
            let mut written = std::collections::BTreeSet::new();
            let mut fm_read = std::collections::BTreeSet::new();
            let mut ro_read = std::collections::BTreeSet::new();
            for ev in events(seg) {
                if ev.kind.is_write() {
                    written.insert(ev.addr);
                } else if seen_written.contains(&ev.addr) {
                    fm_read.insert(ev.addr);
                } else {
                    ro_read.insert(ev.addr);
                }
            }
            seen_written.extend(written.iter().copied());

            // D002: OFM footprint against the planned output binding.
            if let Some(binding) = schedule.binding(stage.output) {
                if config.zero_pruning {
                    // The pruned footprint is data-dependent; bound it by
                    // the dense region instead of demanding equality.
                    let dense = span_blocks(binding.base, binding.len_bytes, blk);
                    if written.len() as u64 > dense {
                        report.push(
                            "D002",
                            &subject,
                            format!(
                                "stage wrote {} distinct blocks but its dense OFM region \
                                 spans only {dense}",
                                written.len()
                            ),
                        );
                    }
                } else {
                    let expected = span_blocks(binding.base, binding.len_bytes, blk);
                    if written.len() as u64 != expected {
                        report.push(
                            "D002",
                            &subject,
                            format!(
                                "stage wrote {} distinct blocks but its true OFM spans \
                                 {expected} blocks ([{:#x}, +{}))",
                                written.len(),
                                binding.base,
                                binding.len_bytes
                            ),
                        );
                    }
                }
            }

            // D003: weight footprint against the planned weight region.
            let weight_node = match &stage.kind {
                StageKind::Conv { conv, .. } => Some(*conv),
                StageKind::Fc { linear, .. } => Some(*linear),
                StageKind::Eltwise => None,
            };
            match weight_node.and_then(|n| schedule.weight_region(n)) {
                Some(region) => {
                    let expected = span_blocks(region.base, region.len_bytes, blk);
                    if ro_read.len() as u64 != expected {
                        report.push(
                            "D003",
                            &subject,
                            format!(
                                "stage read {} distinct weight blocks but its true filter \
                                 region spans {expected} blocks",
                                ro_read.len()
                            ),
                        );
                    }
                }
                None => {
                    if !ro_read.is_empty() {
                        report.push(
                            "D003",
                            &subject,
                            format!(
                                "weightless stage read {} blocks outside any feature map",
                                ro_read.len()
                            ),
                        );
                    }
                }
            }

            // D004: IFM footprint bounded by the inputs' dense regions.
            // Flatten inputs are reinterpretations: resolve to the node that
            // actually owns the bytes before looking up the binding.
            let ifm_budget: u64 = stage
                .inputs
                .iter()
                .filter_map(|&n| schedule.binding(Schedule::resolve_storage(net, n)))
                .map(|b| span_blocks(b.base, b.len_bytes, blk))
                .sum();
            if fm_read.is_empty() || fm_read.len() as u64 > ifm_budget {
                report.push(
                    "D004",
                    &subject,
                    format!(
                        "stage read {} distinct feature-map blocks; expected between 1 and \
                         {ifm_budget} (its inputs' dense footprint)",
                        fm_read.len()
                    ),
                );
            }
        }
    }

    // D005: under zero pruning at word granularity, the write transaction
    // count of every stage equals its OFM non-zero count exactly.
    if config.zero_pruning && config.block_bytes == config.element_bytes {
        for stage in &exec.stages {
            report.items_examined += 1;
            if let Some(nnz) = stage.ofm_nonzeros {
                if stage.write_transactions != nnz {
                    report.push(
                        "D005",
                        format!("stage {}", stage.name),
                        format!(
                            "pruned stage issued {} write transactions but its OFM has {nnz} \
                             non-zeros (RLE stream must write each survivor once)",
                            stage.write_transactions
                        ),
                    );
                }
            }
        }
    }

    // D006: the ground truth must be present in the recovered candidate set.
    if let Some(cands) = candidates {
        let truth = true_layers(net, config)?;
        let truth_convs: Vec<&LayerParams> = truth
            .iter()
            .filter_map(|l| match l {
                TrueLayer::Conv { params, .. } => Some(params),
                _ => None,
            })
            .collect();
        let truth_fcs: Vec<&FcParams> = truth
            .iter()
            .filter_map(|l| match l {
                TrueLayer::Fc { params, .. } => Some(params),
                _ => None,
            })
            .collect();
        let found = cands.iter().any(|c| {
            let convs = c.conv_layers();
            let fcs = c.fc_layers();
            convs.len() == truth_convs.len()
                && fcs.len() == truth_fcs.len()
                && convs
                    .iter()
                    .zip(&truth_convs)
                    .all(|(a, b)| conv_matches_truth(a, b))
                && fcs.iter().zip(&truth_fcs).all(|(a, b)| a == b)
        });
        if !found {
            report.push(
                "D006",
                "candidate set",
                format!(
                    "none of the {} candidate structures matches the ground truth ({} conv, \
                     {} FC layers); geometry audit of the truth follows",
                    cands.len(),
                    truth_convs.len(),
                    truth_fcs.len()
                ),
            );
            // Audit the *truth* against the observations: whichever
            // equation fires is the invariant that wrongly excluded it.
            let obs = observe(&exec.trace);
            let mut layers = Vec::new();
            let mut compute = obs
                .layers
                .iter()
                .filter(|l| l.kind == LayerKindHint::Compute);
            for t in &truth {
                let sizes = compute
                    .next()
                    .map(|l| ObservedSizes {
                        ifm_blocks: Some(l.ifm_blocks_total()),
                        ofm_blocks: Some(l.ofm_blocks),
                        fltr_blocks: Some(l.weight_blocks),
                    })
                    .unwrap_or_default();
                match t {
                    TrueLayer::Conv { params, .. } => layers.push(CandidateLayer::Conv {
                        params: *params,
                        observed: sizes,
                    }),
                    TrueLayer::Fc { params, .. } => layers.push(CandidateLayer::Fc {
                        params: *params,
                        observed: sizes,
                    }),
                    TrueLayer::Merge { .. } => {}
                }
            }
            let tol = Tolerances {
                elems_per_block: exec.trace.elems_per_block().max(1),
                ..Tolerances::default()
            };
            let truth_report = geometry::candidates(&[CandidateChain { index: 0, layers }], &tol);
            for f in truth_report.findings {
                report.push(f.code, format!("ground truth {}", f.subject), f.detail);
            }
        }
    }

    report.finalize();
    Ok(report)
}
