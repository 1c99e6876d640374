//! Deployment flow: train a federation with a run checkpoint on its last
//! round, reload the snapshot, and serve the global model it carries.
//!
//! ```text
//! cargo run --release --example train_and_checkpoint
//! ```
//!
//! The served model is the checkpoint's `global` installed into a fresh
//! Ortho-GCN. After the final broadcast every client holds that same model,
//! so its predictions on party 0 must match those of the checkpointed
//! client copy `params[0]` bit for bit.

use fedomd_core::{build_fedomd_model, FedOmdConfig, FedRun, RunCheckpoint};
use fedomd_data::{generate, spec, DatasetName};
use fedomd_federated::helpers::predict;
use fedomd_federated::{setup_federation, FederationConfig, TrainConfig};

fn main() {
    let dataset = generate(&spec(DatasetName::CoraMini), 0);
    let clients = setup_federation(&dataset, &FederationConfig::mini(3, 0));
    let cfg = TrainConfig {
        rounds: 40,
        patience: 40,
        ..TrainConfig::mini(0)
    };
    let omd = FedOmdConfig::paper();
    let path = std::env::temp_dir().join(format!(
        "fedomd-train-and-checkpoint-{}.ckpt",
        std::process::id()
    ));

    let result = FedRun::new(&clients, dataset.n_classes)
        .train(cfg.clone())
        .omd(omd)
        .checkpoint_every(cfg.rounds, &path)
        .run();
    println!(
        "trained FedOMD: test accuracy {:.2}%",
        100.0 * result.test_acc
    );

    let ckpt = RunCheckpoint::load(&path).expect("load checkpoint");
    let _ = std::fs::remove_file(&path);
    println!(
        "checkpoint {}: {} run, next round {}",
        path.display(),
        ckpt.spec.0[0].1,
        ckpt.state.next_round
    );
    let global = ckpt
        .state
        .global
        .as_deref()
        .expect("a FedOMD checkpoint carries the global model");

    let in_dim = dataset.n_features();
    let mut served = build_fedomd_model(&cfg, &omd, in_dim, dataset.n_classes);
    served.set_params(global);
    let mut client0 = build_fedomd_model(&cfg, &omd, in_dim, dataset.n_classes);
    client0.set_params(&ckpt.state.params[0]);

    let bits = |m: &fedomd_tensor::Matrix| -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    };
    let a = predict(served.as_ref(), &clients[0]);
    let b = predict(client0.as_ref(), &clients[0]);
    assert_eq!(
        bits(&a),
        bits(&b),
        "served global model and client 0 disagree"
    );
    println!(
        "served global model reproduces client 0's predictions bit for bit ({} logits)",
        a.len()
    );
}
