//! Regenerates **Table 5**: many-party scaling on Coauthor-CS with
//! M ∈ {20, 50}.

use fedomd_bench::{seeded_cell, table4_rows, ExperimentRecord, HarnessOpts, Table};
use fedomd_data::DatasetName;

const PARTIES: [usize; 2] = [20, 50];

fn main() {
    let opts = HarnessOpts::parse();
    let rows = table4_rows();
    let mut record = ExperimentRecord::new("table5", opts.scale.name(), &opts.seeds);

    println!(
        "Table 5 — Coauthor-CS accuracy ±std (%) at many parties, {} scale\n",
        opts.scale.name()
    );
    let mut table = Table::new(&["Model", "M=20", "M=50"]);
    for algo in &rows {
        let mut cells = vec![algo.name().to_string()];
        for &m in &PARTIES {
            let s = seeded_cell(algo, DatasetName::CoauthorCs, m, 1.0, &opts);
            record.push(algo.name(), &format!("coauthor-cs/M={m}"), s.mean, s.std);
            cells.push(s.paper_cell());
            eprintln!("  [M={m}] {}: {}", algo.name(), s.paper_cell());
        }
        table.row(cells);
    }
    print!("{}", table.render());
    fedomd_bench::emit(&record, &opts);
}
