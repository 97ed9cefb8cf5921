//! Figure 5: observing many VMs running the same Data Analytics workload
//! lets DeepDive tell which machines suffer network interference.

fn main() {
    print!("{}", bench::Figure::Fig5.render());
}
