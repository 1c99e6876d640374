//! Regenerates **Figure 6**: sensitivity of FedOMD to the loss weights
//! (α, β) on Cora and Computer with 3 parties — a grid of mean accuracies.

use fedomd_bench::{seeded_cell, ExperimentRecord, HarnessOpts, Table};
use fedomd_core::FedOmdConfig;
use fedomd_data::DatasetName;
use fedomd_federated::Strategy;

const ALPHAS: [f32; 4] = [5e-5, 5e-4, 5e-3, 5e-2];
const BETAS: [f32; 4] = [0.1, 1.0, 10.0, 100.0];
const M: usize = 3;

fn main() {
    let opts = HarnessOpts::parse();
    let mut record = ExperimentRecord::new("fig6", opts.scale.name(), &opts.seeds);

    println!("Figure 6 — (α, β) sensitivity grid, mean accuracy (%), M={M}\n");
    for ds_name in [DatasetName::Cora, DatasetName::Computer] {
        let mut header = vec!["α \\ β".to_string()];
        header.extend(BETAS.iter().map(|b| format!("β={b}")));
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut table = Table::new(&header_refs);

        for &alpha in &ALPHAS {
            let mut cells = vec![format!("α={alpha}")];
            for &beta in &BETAS {
                let cfg = FedOmdConfig {
                    alpha,
                    beta,
                    ..FedOmdConfig::paper()
                };
                let s = seeded_cell(&Strategy::FedOmd(cfg), ds_name, M, 1.0, &opts);
                record.push(
                    &format!("alpha={alpha}"),
                    &format!("{ds_name:?}/beta={beta}"),
                    s.mean,
                    s.std,
                );
                cells.push(format!("{:.2}", s.mean));
                eprintln!("  [{ds_name:?}] α={alpha} β={beta}: {:.2}%", s.mean);
            }
            table.row(cells);
        }
        println!("## {ds_name:?}\n{}", table.render());
    }
    fedomd_bench::emit(&record, &opts);
}
