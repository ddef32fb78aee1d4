//! A small, dependency-free machine-learning substrate.
//!
//! The learned OS policies in this reproduction (the LinnOS-style I/O latency
//! classifier, the learned scheduler, the tiered-memory placer, the learned
//! congestion controller) all need light models that can be trained and
//! queried inside a simulation loop. This crate implements them from scratch:
//! a row-major matrix type, LinnOS's `I → 16 → 16 → 1` network with
//! backpropagation on binary cross-entropy, SGD/Adam optimizers, logistic
//! regression, online feature standardization, a replay buffer, and tabular
//! Q-learning.
//!
//! The models are deliberately *imperfect in realistic ways* — they are
//! trained on data from the simulation and degrade under distribution shift,
//! which is precisely the misbehaviour the paper's guardrails exist to catch.

#![warn(missing_docs)]

pub mod linear;
pub mod loss;
pub mod mlp;
pub mod optim;
pub mod qlearn;
pub mod replay;
pub mod scaler;
pub mod tensor;

pub use linear::LogisticRegression;
pub use mlp::{Mlp, OutputCorruption, TrainBuffers};
pub use optim::{Adam, Optimizer, Sgd};
pub use qlearn::QTable;
pub use replay::ReplayBuffer;
pub use scaler::OnlineScaler;
pub use tensor::Matrix;
