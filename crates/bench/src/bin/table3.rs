//! Regenerates **Table 3**: per-model computational/communication cost.
//! Prints the paper's asymptotic expressions next to *measured* per-round
//! client / server / inference wall-clock time and traffic from an
//! instrumented short run (M = 3 parties on Cora at the chosen scale). The
//! times are the run's `PhaseDone` segments, folded by [`PhaseTotals`].

use fedomd_bench::{
    dataset_for, fed_cfg, run_row, table4_rows, train_cfg, ExperimentRecord, HarnessOpts,
    PhaseTotals, Table,
};
use fedomd_data::DatasetName;
use fedomd_federated::setup_federation;

/// The asymptotic rows exactly as the paper's Table 3 states them.
fn asymptotic(name: &str) -> (&'static str, &'static str, &'static str) {
    match name {
        "FedMLP" => ("O(nf²)", "O(N)", "O(nf²)"),
        "FedProx" => ("O(nf² + f²)", "O(N)", "O(nf²)"),
        "SCAFFOLD" => ("O(nf² + f²)", "O(N + Nf² + f²)", "O(nf²)"),
        "FedGCN" | "LocGCN" => ("O(kmf + nf²)", "O(N)", "O(kmf + nf²)"),
        "FedLIT" => ("O(kmf + nf²)", "O(N + Nf² + f)", "O(kmf + nf²)"),
        "FedSage+" => ("O(L(m+sg)f + L(n+sg)f²)", "O(N)", "O(L(m+sg)f + L(n+sg)f²)"),
        "FedOMD" => (
            "O(kmf + nf² + f² + n²f)",
            "O(N + N²f² + Nf)",
            "O(kmf + nf²)",
        ),
        _ => ("-", "-", "-"),
    }
}

fn main() {
    let mut opts = HarnessOpts::parse();
    // Timing wants a fixed small number of rounds, not early stopping.
    opts.quick = true;
    let seed = opts.seeds[0];
    let ds = dataset_for(DatasetName::Cora, opts.scale, seed);
    let clients = setup_federation(&ds, &fed_cfg(&opts, 3, 1.0, seed));
    let cfg = train_cfg(&opts, seed);

    let mut record = ExperimentRecord::new("table3", opts.scale.name(), &[seed]);
    let mut table = Table::new(&[
        "Model",
        "Client Time (asym)",
        "Server Time (asym)",
        "Inference (asym)",
        "client ms/round",
        "server ms/round",
        "infer ms/eval",
        "MB/round",
        "stats %",
    ]);

    println!(
        "Table 3 — asymptotic + measured costs (Cora, M=3, {} rounds, {} scale)\n",
        cfg.rounds,
        opts.scale.name()
    );
    for algo in table4_rows() {
        let mut totals = PhaseTotals::default();
        let r = run_row(&algo, &clients, ds.n_classes, &cfg, &mut totals);
        let rounds = r.comms.rounds.max(1) as f64;
        let evals = r.history.len().max(1) as f64;
        let (ca, sa, ia) = asymptotic(algo.name());
        let client_ms = totals.client_ms() / rounds;
        let server_ms = totals.server_ms() / rounds;
        let infer_ms = totals.inference_ms() / evals;
        let mb_round = r.comms.total_bytes() as f64 / rounds / 1e6;
        let stats_pct = 100.0 * r.comms.stats_fraction();
        table.row(vec![
            algo.name().to_string(),
            ca.into(),
            sa.into(),
            ia.into(),
            format!("{client_ms:.2}"),
            format!("{server_ms:.2}"),
            format!("{infer_ms:.2}"),
            format!("{mb_round:.3}"),
            format!("{stats_pct:.2}"),
        ]);
        record.push(algo.name(), "client_ms_per_round", client_ms, 0.0);
        record.push(algo.name(), "server_ms_per_round", server_ms, 0.0);
        record.push(algo.name(), "inference_ms_per_eval", infer_ms, 0.0);
        record.push(algo.name(), "mb_per_round", mb_round, 0.0);
        record.push(algo.name(), "stats_pct_of_uplink", stats_pct, 0.0);
        eprintln!("  {} done", algo.name());
    }
    print!("{}", table.render());
    println!("\nn/m/f/N as in the paper; measured on this machine's rayon pool.");
    fedomd_bench::emit(&record, &opts);
}
