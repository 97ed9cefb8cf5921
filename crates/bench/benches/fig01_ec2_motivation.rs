//! Figure 1: measured performance of a service under a fixed workload whose
//! performance periodically collapses due to co-located VMs.
//!
//! Prints the hourly throughput/latency series (the paper's Fig. 1 shape).

fn main() {
    print!("{}", bench::Figure::Fig1.render());
}
