//! Neural-network layer on top of the autograd tape: the models the paper
//! trains (GCN, MLP, Ortho-GCN, GraphSAGE) and the optimisers that train
//! them.
//!
//! Each model implements [`Model`]: it registers its parameters on a fresh
//! [`fedomd_autograd::Tape`] every step, records its forward pass, and hands
//! back the logits plus the hidden activations `Z^1..Z^{L-1}` that FedOMD's
//! CMD constraint operates on, plus the hidden weight matrices subject to
//! the orthogonality penalty (paper Eq. 6).

pub mod model;
pub mod models;
pub mod optim;
pub mod ortho;

pub use model::{ConstOperand, ForwardOut, GraphInput, Model, INPUT_CSR_MAX_DENSITY};
pub use models::gcn::Gcn;
pub use models::mlp::Mlp;
pub use models::ortho_gcn::{OrthoGcn, OrthoGcnConfig};
pub use models::sage::GraphSage;
pub use optim::{Adam, AdamState, Optimizer, Sgd};
