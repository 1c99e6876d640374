//! Regenerates **Table 2**: dataset statistics. Generates each synthetic
//! dataset at the chosen scale and reports its measured statistics against
//! the paper's targets.

use fedomd_bench::{dataset_for, ExperimentRecord, HarnessOpts, Scale, Table};
use fedomd_data::{spec, ALL_PAPER};

fn main() {
    let opts = HarnessOpts::parse();
    let mut table = Table::new(&[
        "Dataset",
        "#Nodes",
        "#Edges",
        "#Classes",
        "#Features",
        "target edges",
        "homophily",
    ]);
    let mut record = ExperimentRecord::new("table2", opts.scale.name(), &opts.seeds);

    for name in ALL_PAPER {
        let ds = dataset_for(name, opts.scale, opts.seeds[0]);
        let target = match opts.scale {
            Scale::Mini => spec(name.mini()),
            Scale::Paper => spec(name),
        };
        let homophily = ds.graph.edge_homophily(&ds.labels);
        table.row(vec![
            ds.name.clone(),
            ds.n_nodes().to_string(),
            ds.n_edges().to_string(),
            ds.n_classes.to_string(),
            ds.n_features().to_string(),
            target.n_edges.to_string(),
            format!("{homophily:.2}"),
        ]);
        record.push(&ds.name, "nodes", ds.n_nodes() as f64, 0.0);
        record.push(&ds.name, "edges", ds.n_edges() as f64, 0.0);
        record.push(&ds.name, "classes", ds.n_classes as f64, 0.0);
        record.push(&ds.name, "features", ds.n_features() as f64, 0.0);
        record.push(&ds.name, "homophily", homophily, 0.0);
    }

    println!("Table 2 — dataset statistics ({} scale)", opts.scale.name());
    println!("splits: 1% train / 20% val / 20% test (paper Table 2 caption)\n");
    print!("{}", table.render());
    fedomd_bench::emit(&record, &opts);
}
