//! Figure 7: the Core i7 / NUMA port still separates interference from
//! normal behaviour (QPI / L3 / overall-CPI axes).

use bench::fig7_i7_port;

fn main() {
    let clusters = fig7_i7_port(9);
    println!("# Figure 7 — Data Serving on the Core i7 (Nehalem) server");
    println!("# separation score {:.2}", clusters.separation_score);
    println!("setting,cpi,l3_pki,qpi_outstanding_pki,interference");
    for p in &clusters.points {
        println!(
            "{},{:.3},{:.3},{:.3},{}",
            p.setting, p.coords[0], p.coords[1], p.coords[2], p.interference as u8
        );
    }
}
