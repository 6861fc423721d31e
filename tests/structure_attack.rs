//! End-to-end structure reverse engineering (the paper's §3) on all four
//! case-study networks, from simulated full-scale memory traces.

use cnn_reveng::accel::{AccelConfig, Accelerator};
use cnn_reveng::attacks::structure::{
    filter_modular, filter_modular_pools, recover_structures, CandidateStructure, LayerParams,
    NetworkSolverConfig, SolveError,
};
use cnn_reveng::nn::models::{alexnet, convnet, lenet, squeezenet, ConvSpec};
use cnn_reveng::nn::Network;
use cnnre_tensor::rng::SeedableRng;
use cnnre_tensor::rng::SmallRng;

fn recover(net: &Network, input: (usize, usize), classes: usize) -> Vec<CandidateStructure> {
    let accel = Accelerator::new(AccelConfig::default());
    let exec = accel
        .run_trace_only(net)
        .expect("network lowers onto the accelerator");
    recover_structures(&exec.trace, input, classes, &NetworkSolverConfig::default())
        .expect("structures recoverable")
}

/// Whether `candidate` matches `spec` up to the padding degeneracy the
/// solver dedups (same widths/depths/filter/stride/pool; padding may be the
/// smaller representative producing the same pre-pool width).
fn matches_spec(candidate: &LayerParams, spec: &ConvSpec) -> bool {
    candidate.f_conv == spec.f
        && candidate.s_conv == spec.s
        && candidate.pool.map(|p| (p.f, p.s, p.p)) == spec.pool.map(|p| (p.f, p.s, p.p))
        && cnn_reveng::nn::geometry::conv_out(candidate.w_ifm, spec.f, spec.s, spec.p)
            == candidate.conv_out_w()
}

fn truth_found(structures: &[CandidateStructure], specs: &[ConvSpec]) -> bool {
    structures.iter().any(|s| {
        let convs = s.conv_layers();
        convs.len() == specs.len()
            && convs
                .iter()
                .zip(specs)
                .all(|(c, spec)| matches_spec(c, spec))
    })
}

/// LeNet's two conv layers: 5×5 filters, stride 1, 2×2/2 max pooling.
fn lenet_truth() -> [ConvSpec; 2] {
    [
        ConvSpec::new(6, 5, 1, 0).with_pool(cnn_reveng::nn::models::PoolSpec::max(2, 2)),
        ConvSpec::new(16, 5, 1, 0).with_pool(cnn_reveng::nn::models::PoolSpec::max(2, 2)),
    ]
}

#[test]
fn lenet_structure_space_is_small_and_contains_truth() {
    let mut rng = SmallRng::seed_from_u64(0);
    let net = lenet(1, 10, &mut rng);
    let structures = recover(&net, (32, 1), 10);
    // Paper's Table 3: 9 possible structures; our exhaustive solver finds a
    // slightly larger superset (see EXPERIMENTS.md).
    assert!(
        (2..=40).contains(&structures.len()),
        "LeNet candidate count out of band: {}",
        structures.len()
    );
    assert!(
        truth_found(&structures, &lenet_truth()),
        "true LeNet structure missing"
    );
    // All structures end in a 10-class FC layer.
    for s in &structures {
        assert_eq!(
            s.fc_layers().last().expect("has FC layers").out_features,
            10
        );
    }
}

#[test]
fn convnet_structure_space_is_small_and_contains_truth() {
    let mut rng = SmallRng::seed_from_u64(0);
    let net = convnet(1, 10, &mut rng);
    let structures = recover(&net, (32, 3), 10);
    assert!(
        (2..=25).contains(&structures.len()),
        "ConvNet candidate count out of band: {}",
        structures.len()
    );
    let pool32 = cnn_reveng::nn::models::PoolSpec::max(3, 2);
    let truth = [
        ConvSpec::new(32, 5, 1, 2).with_pool(pool32),
        ConvSpec::new(32, 5, 1, 2).with_pool(pool32),
        ConvSpec::new(64, 3, 1, 1).with_pool(cnn_reveng::nn::models::PoolSpec::max(2, 2)),
    ];
    assert!(
        truth_found(&structures, &truth),
        "true ConvNet structure missing"
    );
}

#[test]
fn alexnet_structure_space_contains_truth_and_table4_alternatives() {
    let mut rng = SmallRng::seed_from_u64(0);
    let net = alexnet(1, 1000, &mut rng);
    let structures = recover(&net, (227, 3), 1000);
    assert!(
        (24..=150).contains(&structures.len()),
        "AlexNet candidate count out of band: {}",
        structures.len()
    );
    // The canonical AlexNet (paper's CONV1_1..CONV5_1 path).
    assert!(
        truth_found(&structures, &cnn_reveng::nn::models::ALEXNET_CONV_SPECS),
        "true AlexNet structure missing"
    );
    // The paper's alternative CONV2_2 -> CONV3_2 path is also found.
    let alt_path = structures.iter().any(|s| {
        let convs = s.conv_layers();
        convs.len() == 5
            && convs[1].f_conv == 10
            && convs[1].d_ofm == 64
            && convs[1].w_ofm == 26
            && convs[2].f_conv == 6
            && convs[2].s_conv == 2
    });
    assert!(alt_path, "Table-4 CONV2_2/CONV3_2 path missing");
    // FC stack recovered uniquely: 9216 -> 4096 -> 4096 -> 1000.
    for s in &structures {
        let fcs = s.fc_layers();
        assert_eq!(fcs.len(), 3);
        assert_eq!(fcs[0].out_features, 4096);
        assert_eq!(fcs[2].out_features, 1000);
    }
}

#[test]
fn squeezenet_structure_space_collapses_under_modularity() {
    let mut rng = SmallRng::seed_from_u64(0);
    let net = squeezenet(1, 1000, &mut rng);
    let structures = recover(&net, (227, 3), 1000);
    assert!(
        (4..=120).contains(&structures.len()),
        "SqueezeNet candidate count out of band: {}",
        structures.len()
    );
    // True stem present.
    let stem_found = structures.iter().any(|s| {
        let c = s.conv_layers()[0];
        c.f_conv == 7 && c.s_conv == 2 && c.pool.map(|p| (p.f, p.s)) == Some((3, 2))
    });
    assert!(stem_found, "true SqueezeNet stem missing");
    // Modularity assumption: fire modules (3 conv layers each, starting
    // after the stem) must share one geometry signature.
    let groups: Vec<Vec<usize>> = (0..3)
        .map(|role| (0..8).map(|module| 1 + 3 * module + role).collect())
        .collect();
    // Fire-module conv geometry identical across modules; the down-sampling
    // pools (both expand branches of fire4 and fire8) share one design.
    let pool_groups = vec![vec![8, 9, 20, 21]];
    let modular = filter_modular_pools(filter_modular(structures.clone(), &groups), &pool_groups);
    assert!(!modular.is_empty(), "modularity filter must keep the truth");
    assert!(
        modular.len() < structures.len(),
        "modularity should reduce the space: {} vs {}",
        modular.len(),
        structures.len()
    );
    // Paper: nine structures remain; we allow a small band around that.
    assert!(
        (2..=24).contains(&modular.len()),
        "modular SqueezeNet count out of band: {}",
        modular.len()
    );
}

/// Footprints are counted in the trace's own blocks: the true LeNet
/// geometry is recovered whatever the DRAM burst size, not only at 64 B.
#[test]
fn lenet_structure_is_recovered_at_every_block_size() {
    let mut rng = SmallRng::seed_from_u64(0);
    let net = lenet(1, 10, &mut rng);
    for block_bytes in [16, 32, 64, 128] {
        let accel = Accelerator::new(AccelConfig::default().with_block_bytes(block_bytes));
        let exec = accel
            .run_trace_only(&net)
            .expect("network lowers onto the accelerator");
        assert_eq!(exec.trace.block_bytes(), block_bytes);
        let structures =
            recover_structures(&exec.trace, (32, 1), 10, &NetworkSolverConfig::default())
                .unwrap_or_else(|e| panic!("{block_bytes}-byte blocks: {e}"));
        assert!(
            truth_found(&structures, &lenet_truth()),
            "{block_bytes}-byte blocks: true LeNet structure missing among {}",
            structures.len()
        );
    }
}

/// The candidate cap is enforced: LeNet has more than one candidate
/// structure, so a cap of one aborts the enumeration.
#[test]
fn structure_cap_aborts_the_enumeration() {
    let mut rng = SmallRng::seed_from_u64(0);
    let net = lenet(1, 10, &mut rng);
    let exec = Accelerator::new(AccelConfig::default())
        .run_trace_only(&net)
        .expect("network lowers onto the accelerator");
    let cfg = NetworkSolverConfig {
        max_structures: 1,
        ..NetworkSolverConfig::default()
    };
    let result = recover_structures(&exec.trace, (32, 1), 10, &cfg);
    assert_eq!(result.err(), Some(SolveError::TooManyStructures(1)));
}
