//! Regenerates **Table 7**: the hidden-layer depth sweep of FedOMD
//! (2..10 OrthoConv layers) on Computer and Photo versus the 2-layer
//! FedGCN — the over-smoothing-resistance claim.

use fedomd_bench::{seeded_cell, ExperimentRecord, HarnessOpts, Table};
use fedomd_core::FedOmdConfig;
use fedomd_data::DatasetName;
use fedomd_federated::baselines::Baseline;
use fedomd_federated::Strategy;

const PARTIES: [usize; 4] = [3, 5, 7, 9];
const DEPTHS: [usize; 5] = [2, 4, 6, 8, 10];

fn main() {
    let opts = HarnessOpts::parse();
    let mut record = ExperimentRecord::new("table7", opts.scale.name(), &opts.seeds);

    println!(
        "Table 7 — depth sweep, accuracy ±std (%), {} scale\n",
        opts.scale.name()
    );
    for ds_name in [DatasetName::Computer, DatasetName::Photo] {
        let mut header = vec!["Model / depth".to_string()];
        header.extend(PARTIES.iter().map(|m| format!("M={m}")));
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut table = Table::new(&header_refs);

        for &depth in &DEPTHS {
            let cfg = FedOmdConfig {
                hidden_layers: depth,
                ..FedOmdConfig::paper()
            };
            let algo = Strategy::FedOmd(cfg);
            let label = format!("FedOMD {depth}-hidden");
            let mut cells = vec![label.clone()];
            for &m in &PARTIES {
                let s = seeded_cell(&algo, ds_name, m, 1.0, &opts);
                record.push(&label, &format!("{ds_name:?}/M={m}"), s.mean, s.std);
                cells.push(s.paper_cell());
                eprintln!("  [{ds_name:?} M={m}] {label}: {}", s.paper_cell());
            }
            table.row(cells);
        }
        // Reference row: the 2-GCNConv FedGCN.
        let algo = Strategy::Baseline(Baseline::FedGcn);
        let mut cells = vec!["FedGCN 2-GCNConv".to_string()];
        for &m in &PARTIES {
            let s = seeded_cell(&algo, ds_name, m, 1.0, &opts);
            record.push(
                "FedGCN 2-GCNConv",
                &format!("{ds_name:?}/M={m}"),
                s.mean,
                s.std,
            );
            cells.push(s.paper_cell());
        }
        table.row(cells);
        println!("## {ds_name:?}\n{}", table.render());
    }
    fedomd_bench::emit(&record, &opts);
}
