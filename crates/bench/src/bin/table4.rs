//! Regenerates **Table 4**: node-classification accuracy of the seven
//! baselines and FedOMD on Cora / Citeseer / Computer / Photo with party
//! counts M ∈ {3, 5, 7, 9}, averaged over seeds (the paper uses 5).

use fedomd_bench::{seeded_cell, table4_rows, ExperimentRecord, HarnessOpts, Table};
use fedomd_data::DatasetName;

const PARTIES: [usize; 4] = [3, 5, 7, 9];
const DATASETS: [DatasetName; 4] = [
    DatasetName::Cora,
    DatasetName::Citeseer,
    DatasetName::Computer,
    DatasetName::Photo,
];

fn main() {
    let opts = HarnessOpts::parse();
    let rows = table4_rows();
    let mut record = ExperimentRecord::new("table4", opts.scale.name(), &opts.seeds);

    println!(
        "Table 4 — accuracy ±std (%), {} scale, {} seed(s)\n",
        opts.scale.name(),
        opts.seeds.len()
    );
    for ds_name in DATASETS {
        let mut header = vec!["Model".to_string()];
        header.extend(PARTIES.iter().map(|m| format!("M={m}")));
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut table = Table::new(&header_refs);

        for algo in &rows {
            let mut cells = vec![algo.name().to_string()];
            for &m in &PARTIES {
                let s = seeded_cell(algo, ds_name, m, 1.0, &opts);
                record.push(algo.name(), &format!("{ds_name:?}/M={m}"), s.mean, s.std);
                cells.push(s.paper_cell());
                eprintln!("  [{ds_name:?} M={m}] {}: {}", algo.name(), s.paper_cell());
            }
            table.row(cells);
        }
        println!("## {ds_name:?}\n{}", table.render());
    }
    fedomd_bench::emit(&record, &opts);
}
