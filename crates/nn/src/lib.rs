//! A from-scratch CNN library: inference, SGD training, and the model zoo
//! used by the DAC'18 reverse-engineering study.
//!
//! This crate is a substrate of the `cnn-reveng` workspace (see the
//! workspace DESIGN.md). It provides:
//!
//! * [`layer`] — convolution (im2col + GEMM, or a scatter for sparse
//!   inputs), max/average pooling, thresholded ReLU, fully connected,
//!   concat and element-wise add, each with forward *and* backward passes;
//! * [`graph`] — DAG networks ([`graph::Network`]) with shape inference,
//!   covering plain chains, SqueezeNet fire modules, and bypass paths;
//! * [`train`] — softmax cross-entropy and a mini-batch SGD trainer (the
//!   paper ranks recovered candidate structures by short training);
//! * [`data`] — seeded synthetic classification datasets (the ImageNet
//!   stand-in, see DESIGN.md §4);
//! * [`models`] — LeNet, ConvNet, AlexNet and SqueezeNet, both full-scale
//!   (for memory-trace generation) and depth-scaled (for training), plus
//!   candidate-structure constructors;
//! * [`geometry`] — the output-size arithmetic shared with the attacks.
//!
//! # Example
//!
//! ```
//! use cnnre_nn::models::lenet;
//! use cnnre_tensor::Tensor3;
//! use cnnre_tensor::rng::SeedableRng;
//!
//! let mut rng = cnnre_tensor::rng::SmallRng::seed_from_u64(0);
//! let net = lenet(4, 10, &mut rng);
//! let logits = net.forward(&Tensor3::zeros(net.input_shape()));
//! assert_eq!(logits.len(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod data;
pub mod gemm;
pub mod geometry;
pub mod graph;
pub mod im2col;
pub mod layer;
pub mod models;
pub mod train;

pub use graph::{Network, NetworkBuilder, NodeId, Op};
