//! Regenerates **Figure 4** (and the premise of Figure 1): the non-i.i.d.
//! label distribution across parties after the Louvain cut. Prints the
//! party × class count matrix the paper renders as a bubble plot, plus a
//! per-party feature-mean divergence to show feature non-i.i.d.-ness.

use fedomd_bench::{dataset_for, fed_cfg, ExperimentRecord, HarnessOpts, Table};
use fedomd_data::ALL_PAPER;
use fedomd_federated::setup_federation;
use fedomd_tensor::stats::l2_distance;

const M: usize = 5;

fn main() {
    let opts = HarnessOpts::parse();
    let seed = opts.seeds[0];
    let mut record = ExperimentRecord::new("fig4", opts.scale.name(), &[seed]);

    println!("Figure 4 — per-party label counts after the Louvain cut (M={M})\n");
    for name in ALL_PAPER {
        let ds = dataset_for(name, opts.scale, seed);
        let clients = setup_federation(&ds, &fed_cfg(&opts, M, 1.0, seed));

        let mut header = vec!["party".to_string()];
        header.extend((0..ds.n_classes).map(|c| format!("c{c}")));
        header.push("nodes".into());
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut table = Table::new(&header_refs);

        let global_mean = fedomd_tensor::column_means(&ds.features);
        for (p, client) in clients.iter().enumerate() {
            let mut hist = vec![0usize; ds.n_classes];
            for &l in &client.labels {
                hist[l] += 1;
            }
            let mut cells = vec![format!("P{p}")];
            cells.extend(hist.iter().map(|h| h.to_string()));
            cells.push(client.n_nodes().to_string());
            table.row(cells);
            for (c, &h) in hist.iter().enumerate() {
                record.push(
                    &format!("{}/P{p}", ds.name),
                    &format!("c{c}"),
                    h as f64,
                    0.0,
                );
            }
            // Feature non-i.i.d.: distance of party feature mean from global.
            let pm = fedomd_tensor::column_means(&client.input.x);
            let d = l2_distance(&pm, &global_mean) as f64;
            record.push(&format!("{}/P{p}", ds.name), "feat_mean_dist", d, 0.0);
        }
        println!("## {}\n{}", ds.name, table.render());

        let skew = fedomd_bench::heterogeneity::label_skew(&clients, ds.n_classes);
        let shift = fedomd_bench::heterogeneity::feature_shift(&clients, 5);
        let edge_loss = fedomd_bench::heterogeneity::cross_edge_loss(&clients, ds.n_edges());
        println!(
            "label skew (TV) {skew:.3} · feature shift (CMD) {shift:.4} · edges lost to cut {:.1}%\n",
            100.0 * edge_loss
        );
        record.push(&ds.name, "label_skew_tv", skew, 0.0);
        record.push(&ds.name, "feature_shift_cmd", shift, 0.0);
        record.push(&ds.name, "edge_loss", edge_loss, 0.0);
    }
    fedomd_bench::emit(&record, &opts);
}
