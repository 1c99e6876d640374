//! Workspace facade crate: hosts the cross-crate integration tests in
//! `tests/` and the runnable examples in `examples/`. The actual library
//! surface lives in the `fedomd-*` member crates; the most useful entry
//! point for downstream users is [`fedomd_core`].

pub use fedomd_autograd as autograd;
pub use fedomd_core as core;
pub use fedomd_data as data;
pub use fedomd_federated as federated;
pub use fedomd_graph as graph;
pub use fedomd_nn as nn;
pub use fedomd_sparse as sparse;
pub use fedomd_tensor as tensor;

/// One-stop imports for the common "generate → cut → train → evaluate"
/// flow (what `examples/quickstart.rs` uses).
pub mod prelude {
    pub use fedomd_core::{FedOmdConfig, FedRun, RunConfig};
    pub use fedomd_data::{generate, spec, DatasetName};
    pub use fedomd_federated::baselines::{run_baseline, Baseline};
    pub use fedomd_federated::{
        setup_federation, ClientData, FederationConfig, RunResult, TrainConfig,
    };
    pub use fedomd_nn::Model;
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_covers_the_quickstart_flow() {
        use crate::prelude::*;
        let ds = generate(&spec(DatasetName::CoraMini), 0);
        let clients = setup_federation(&ds, &FederationConfig::mini(2, 0));
        assert_eq!(clients.len(), 2);
        let _cfg: TrainConfig = TrainConfig::mini(0);
        let _omd = FedOmdConfig::paper();
        let _b = Baseline::parse("fedgcn").expect("known baseline");
    }
}
