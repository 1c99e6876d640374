//! Regenerates **Figure 7**: the impact of the Louvain `resolution`
//! hyper-parameter (which controls how fragmented the party subgraphs are)
//! on FedOMD accuracy, for the four main datasets with 3 parties.

use fedomd_bench::{seeded_cell, ExperimentRecord, HarnessOpts, Table};
use fedomd_core::FedOmdConfig;
use fedomd_data::DatasetName;
use fedomd_federated::Strategy;

const RESOLUTIONS: [f64; 6] = [0.5, 1.0, 2.0, 5.0, 20.0, 50.0];
const M: usize = 3;

fn main() {
    let opts = HarnessOpts::parse();
    let algo = Strategy::FedOmd(FedOmdConfig::paper());
    let mut record = ExperimentRecord::new("fig7", opts.scale.name(), &opts.seeds);

    println!("Figure 7 — Louvain resolution sweep, FedOMD mean accuracy (%), M={M}\n");
    let mut header = vec!["Dataset".to_string()];
    header.extend(RESOLUTIONS.iter().map(|r| format!("res={r}")));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&header_refs);

    for ds_name in [
        DatasetName::Cora,
        DatasetName::Citeseer,
        DatasetName::Computer,
        DatasetName::Photo,
    ] {
        let mut cells = vec![format!("{ds_name:?}")];
        for &res in &RESOLUTIONS {
            let s = seeded_cell(&algo, ds_name, M, res, &opts);
            record.push(
                &format!("{ds_name:?}"),
                &format!("res={res}"),
                s.mean,
                s.std,
            );
            cells.push(format!("{:.2}", s.mean));
            eprintln!("  [{ds_name:?}] res={res}: {:.2}%", s.mean);
        }
        table.row(cells);
    }
    print!("{}", table.render());
    fedomd_bench::emit(&record, &opts);
}
