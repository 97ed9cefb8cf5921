//! Figure 13: mean reaction time of the profiling farm under Poisson VM
//! arrivals — (a) local information only, (b) with global information,
//! (c) sweeping the Zipf popularity tail index.

use traces::ArrivalModel;

fn main() {
    bench::print_reaction_time_figure(13, "Poisson", ArrivalModel::Poisson);
}
