//! Regenerates **Table 6**: the ablation of FedOMD's two mechanisms
//! (orthogonalisation × CMD) on Cora and Citeseer, M ∈ {3, 5, 7, 9}.

use fedomd_bench::{seeded_cell, ExperimentRecord, HarnessOpts, Table};
use fedomd_core::FedOmdConfig;
use fedomd_data::DatasetName;
use fedomd_federated::Strategy;

const PARTIES: [usize; 4] = [3, 5, 7, 9];

fn main() {
    let opts = HarnessOpts::parse();
    let variants: [(&str, FedOmdConfig); 3] = [
        ("Ortho ✓ / CMD ✗", FedOmdConfig::ortho_only()),
        ("Ortho ✗ / CMD ✓", FedOmdConfig::cmd_only()),
        ("Ortho ✓ / CMD ✓", FedOmdConfig::paper()),
    ];
    let mut record = ExperimentRecord::new("table6", opts.scale.name(), &opts.seeds);

    println!(
        "Table 6 — ablation, accuracy ±std (%), {} scale\n",
        opts.scale.name()
    );
    for ds_name in [DatasetName::Cora, DatasetName::Citeseer] {
        let mut header = vec!["Variant".to_string()];
        header.extend(PARTIES.iter().map(|m| format!("M={m}")));
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut table = Table::new(&header_refs);

        for (label, cfg) in &variants {
            let algo = Strategy::FedOmd(*cfg);
            let mut cells = vec![label.to_string()];
            for &m in &PARTIES {
                let s = seeded_cell(&algo, ds_name, m, 1.0, &opts);
                record.push(label, &format!("{ds_name:?}/M={m}"), s.mean, s.std);
                cells.push(s.paper_cell());
                eprintln!("  [{ds_name:?} M={m}] {label}: {}", s.paper_cell());
            }
            table.row(cells);
        }
        println!("## {ds_name:?}\n{}", table.render());
    }
    fedomd_bench::emit(&record, &opts);
}
