//! Scale test: run the index-free FANN_R pipeline on the largest (scaled)
//! Table III datasets — CTR and USA — where the paper reports that only
//! G-tree (of the heavy indexes) is even buildable.
//!
//! The index-free algorithms (`Exact-max`, `APX-sum`, `R-List`) need no
//! preprocessing at all, so they run at any scale; this binary measures
//! them end-to-end on networks of hundreds of thousands of nodes.
//!
//! Each row also reports the process's peak resident set (`VmHWM`) once
//! that algorithm has run. The peak never falls, so a row's figure covers
//! the graph, every earlier row and its own search state; rows run in
//! table order. Off Linux the column reads `n/a`.
//!
//! Usage: `scale_test [--dataset CTR|USA] [--queries N]`

use fann_bench::*;
use fann_core::algo::{apx_sum, exact_max, r_list};
use fann_core::gphi::ine::InePhi;
use fann_core::{Aggregate, FannQuery};
use workload::datasets::by_name;

fn main() {
    let args = Args::parse();
    let name = args.get_str("dataset", "CTR");
    let queries: usize = args.get("queries", 3);
    let spec = by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown dataset {name}");
        std::process::exit(1);
    });
    eprintln!(
        "[scale] generating {} (~{} nodes)...",
        spec.name, spec.target_nodes
    );
    let (g, gen_secs) = time(|| spec.load());
    println!(
        "dataset {}: {} nodes, {} edges (generated in {:.1}s, zero index build)",
        spec.name,
        g.num_nodes(),
        g.num_edges(),
        gen_secs
    );

    let header: Vec<String> = ["algorithm", "agg", "mean/query", "peak RSS"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    for (algo_name, agg) in [
        ("Exact-max", Aggregate::Max),
        ("R-List(INE)", Aggregate::Max),
        ("APX-sum(INE)", Aggregate::Sum),
    ] {
        let mut times = Vec::new();
        for i in 0..queries {
            let mut rng = workload::rng(777 + i as u64);
            let p = workload::points::uniform_data_points(&g, 0.001, &mut rng);
            let q = workload::points::uniform_query_points(&g, 64, 0.10, &mut rng);
            let query = FannQuery::new(&p, &q, 0.5, agg);
            let (ans, secs) = time(|| match algo_name {
                "Exact-max" => exact_max(&g, &query),
                "R-List(INE)" => r_list(&g, &query, &InePhi::new(&g, &q)),
                "APX-sum(INE)" => apx_sum(&g, &query, &InePhi::new(&g, &q)),
                _ => unreachable!(),
            });
            assert!(ans.is_some(), "{algo_name} found no answer");
            times.push(secs);
        }
        let (mean, _) = mean_std(&times);
        rows.push(vec![
            algo_name.to_string(),
            agg.to_string(),
            fmt_secs(Some(mean)),
            peak_rss(),
        ]);
    }
    print_table(
        &format!(
            "Scale test: index-free FANN_R on {} ({} nodes)",
            spec.name,
            g.num_nodes()
        ),
        &header,
        &rows,
    );
    println!("[shape] all index-free algorithms answer at this scale with zero preprocessing");
}

/// Peak resident set size of this process so far (`VmHWM` in
/// `/proc/self/status`); `n/a` where that file does not exist.
fn peak_rss() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            kb.trim().strip_suffix("kB")?.trim().parse::<usize>().ok()
        })
        .map_or_else(|| "n/a".to_string(), |kb| fmt_bytes(kb * 1024))
}
