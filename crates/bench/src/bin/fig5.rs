//! Regenerates **Figure 5**: average test accuracy versus communication
//! round on Cora with 5 parties, for every algorithm. Emits one CSV-style
//! series per algorithm (round, test accuracy).

use fedomd_bench::{
    dataset_for, fed_cfg, run_row, table4_rows, train_cfg, ExperimentRecord, HarnessOpts,
};
use fedomd_data::DatasetName;
use fedomd_federated::setup_federation;
use fedomd_telemetry::NullObserver;

const M: usize = 5;

fn main() {
    let opts = HarnessOpts::parse();
    let seed = opts.seeds[0];
    let ds = dataset_for(DatasetName::Cora, opts.scale, seed);
    let clients = setup_federation(&ds, &fed_cfg(&opts, M, 1.0, seed));
    let mut cfg = train_cfg(&opts, seed);
    // Convergence curves want the full schedule, not early stopping.
    cfg.patience = cfg.rounds;

    let mut record = ExperimentRecord::new("fig5", opts.scale.name(), &[seed]);
    println!("Figure 5 — test accuracy vs communication round (Cora, M={M})\n");
    println!("algorithm,round,test_acc_pct");
    for algo in table4_rows() {
        let r = run_row(&algo, &clients, ds.n_classes, &cfg, &mut NullObserver);
        for h in &r.history {
            println!("{},{},{:.2}", algo.name(), h.round, 100.0 * h.test_acc);
            record.push(
                algo.name(),
                &format!("round{}", h.round),
                100.0 * h.test_acc,
                0.0,
            );
        }
        eprintln!(
            "  {}: best {:.2}% @ round {}",
            algo.name(),
            100.0 * r.test_acc,
            r.best_round
        );
    }
    fedomd_bench::emit(&record, &opts);
}
