//! The concrete local models of the federation.
//!
//! * [`mlp::Mlp`] — the structure-blind 2-layer perceptron behind the
//!   FedMLP / FedProx / SCAFFOLD baselines.
//! * [`gcn::Gcn`] — the 2-layer GCN behind LocGCN / FedGCN (Kipf & Welling).
//! * [`ortho_gcn::OrthoGcn`] — the paper's local model (its Table 1):
//!   GCNConv in, a stack of OrthoConv hidden layers, GCNConv out.
//! * [`sage::GraphSage`] — the mean-aggregator SAGE used by FedSage+.

pub mod gcn;
pub mod mlp;
pub mod ortho_gcn;
pub mod sage;
